"""Every definition in the package is used by the package itself.

A function, class, method or property that only tests call is code the
auditor ships without running it. A module-level definition counts as used
when another part of `src/ricaudit` names it, imports it or reads it off its
module (`yamlio.load_file`); a method or property when some attribute access
names it. A read `C.m` off a class `C` of the package names `C`'s own `m`
only: a `parse` of one class is no use of another's. The names listed in
`ricaudit._EXPORTS` are strings, not references. Dunder methods, which
Python calls, are exempt.

Every field of a named tuple in the package is read, too: some part of
`src/ricaudit` reads an attribute of that name off something. A class whose
instances are only unpacked or compared as tuples would be listed in
`TUPLE_ONLY`, with the reason; none is today.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import ricaudit

SRC = Path(ricaudit.__file__).resolve().parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def names(tree: ast.AST, module: str | None = None, classes: frozenset = frozenset()) -> Counter:
    """Name and import references in `tree`, plus `module.name` reads when
    `module` is given; attribute names alone when it is not, each read off
    one of `classes` as "Class.name"."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if module is None:
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                found[f"{owner}.{node.attr}" if owner in classes else node.attr] += 1
            elif isinstance(node.value, ast.Name) and node.value.id == module:
                found[node.attr] += 1
        elif module is not None and isinstance(node, ast.Name):
            found[node.id] += 1
        elif module is not None and isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def unreferenced() -> list[str]:
    trees = package_trees()
    classes = frozenset(node.name for tree in trees.values() for node in tree.body
                        if isinstance(node, ast.ClassDef))
    attributes = sum((names(tree, classes=classes) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        in_package = sum((names(other, module) for other in trees.values()), Counter())
        for node in tree.body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)) or node.name.startswith("__"):
                continue
            if in_package[node.name] == names(node, module)[node.name]:
                unused.append(f"{module}.{node.name}")
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if not isinstance(member, FUNCTIONS) or member.name.startswith("__"):
                    continue
                keys = (member.name, f"{node.name}.{member.name}")
                own = names(member, classes=classes)
                if all(attributes[key] == own[key] for key in keys):
                    unused.append(f"{module}.{node.name}.{member.name}")
    return unused


def test_every_definition_is_referenced_in_the_package():
    assert unreferenced() == []


# Named tuples whose fields need no attribute read, each with its reason.
TUPLE_ONLY: dict[str, str] = {}


def unread_fields() -> list[str]:
    trees = package_trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, ast.ClassDef) or node.name in TUPLE_ONLY
                    or not any(isinstance(base, ast.Name) and base.id == "NamedTuple"
                               for base in node.bases)):
                continue
            unread += [f"{module}.{node.name}.{field.target.id}" for field in node.body
                       if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
                       and field.target.id not in read]
    return unread


def test_every_record_field_is_read_in_the_package():
    assert unread_fields() == []
