"""Every definition in the package is used by the package itself.

A function, class, method or property that only tests call is code the
auditor ships without running it. A module-level definition counts as used
when another part of `src/ricaudit` names it, imports it or reads it off its
module (`yamlio.load_file`); a method or property when some attribute access
names it. The names listed in `ricaudit._EXPORTS` are strings, not
references. Dunder methods, which Python calls, and the named-tuple `_make`
hooks, which `_replace` calls, are exempt.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import ricaudit

SRC = Path(ricaudit.__file__).resolve().parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def names(tree: ast.AST, module: str | None = None) -> Counter:
    """Name and import references in `tree`, plus `module.name` reads when
    `module` is given; attribute names alone when it is not."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if module is None:
                found[node.attr] += 1
            elif isinstance(node.value, ast.Name) and node.value.id == module:
                found[node.attr] += 1
        elif module is not None and isinstance(node, ast.Name):
            found[node.id] += 1
        elif module is not None and isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def unreferenced() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py"))}
    attributes = sum((names(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        in_package = sum((names(other, module) for other in trees.values()), Counter())
        for node in tree.body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)) or node.name.startswith("__"):
                continue
            if in_package[node.name] == names(node, module)[node.name]:
                unused.append(f"{module}.{node.name}")
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(member, FUNCTIONS) and not member.name.startswith("__")
                        and member.name != "_make"
                        and attributes[member.name] == names(member)[member.name]):
                    unused.append(f"{module}.{node.name}.{member.name}")
    return unused


def test_every_definition_is_referenced_in_the_package():
    assert unreferenced() == []
