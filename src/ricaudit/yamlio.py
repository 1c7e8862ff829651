"""The one YAML loader behind every input the toolkit reads.

Every input file is read by `read_file`. Manifests load through
`load_all`; catalogs, inventories, config files and the fixture index, each
a single document, through `load_file`. The loader is libyaml's safe loader
when PyYAML was built with it and PyYAML's pure-Python safe loader
otherwise; both produce the same trees for the shipped data. Where they
disagree on odd input the libyaml behaviour is kept (see
tests/test_yamlio.py). An explicit bool, int, float or timestamp tag on a
value that does not convert (`!!bool maybe`, `!!int ''`) is a construction
error at the value's position, like any other.

libyaml composes nodes recursively on the C stack, so a deeply nested
document can kill the process with a segmentation fault. A document nested
deeper than MAX_DEPTH is therefore rejected before it is composed. Every
mapping or sequence needs an indicator character of its own (`[`, `{`,
`-`, `:` or `?`), so a text holding at most MAX_DEPTH of them cannot nest
deeper and is composed at once. Any other text first has its event stream
(which libyaml parses with a heap-allocated state stack) scanned for the
first document that nests too deep. Either way the cap and its diagnostic
are the same. Every failure is raised as InvalidYaml with a one-line
message and the index of the offending document in the stream.

A composed document made only of mappings with scalar keys, sequences and
str, null, bool, int and float scalars under their standard tags, with no
alias, is built by a plain recursive walk: the same tree the safe
constructor gives, in less than half its time. The walk interns each str
mapping key, as `json.loads` memoizes keys, so the many documents of a large
manifest set share one copy of each key they repeat. Any other document
(aliases, merge keys, other tags, a scalar that does not convert) is built by
the loader's own constructor, so its data and its errors are unchanged.

Whether a stream can hold an alias is decided once, from its text: an alias
names an anchor, and an anchor needs a `&`. A text without one (no shipped
or generated manifest has one) is walked without the alias bookkeeping,
each str key read without a call of its own. A text with any `&`, even one
inside a scalar such as `a && b`, keeps the check at every node.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Iterator

import yaml

from .errors import AuditError, InvalidYaml, quoted


class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, whose scalar constructors refuse what they cannot read."""


MAX_DEPTH = 256

# Each mapping or sequence start event needs one of these of its own.
_COLLECTION_INDICATORS = "[{-:?"

_NESTING_STEP = {
    yaml.MappingStartEvent: 1,
    yaml.SequenceStartEvent: 1,
    yaml.MappingEndEvent: -1,
    yaml.SequenceEndEvent: -1,
}


def _decode(data: bytes | str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidYaml(f"not valid UTF-8: {exc}") from exc


_TAG = "tag:yaml.org,2002:"
_STR, _MAP, _SEQ = _TAG + "str", _TAG + "map", _TAG + "seq"
_SCALAR_TAGS = frozenset(_TAG + name for name in ("null", "bool", "int", "float"))


def _refusing(construct: Any) -> Any:
    """`construct`, raising a ConstructorError at the node for a value it cannot read.

    PyYAML's own constructors let KeyError (`!!bool maybe`), IndexError
    (`!!int ''`), AttributeError (`!!timestamp x`) and ValueError escape.
    """

    def construct_or_refuse(loader: Any, node: yaml.Node) -> Any:
        try:
            return construct(loader, node)
        except (KeyError, IndexError, AttributeError, ValueError) as exc:
            tag = node.tag.replace(_TAG, "!!")
            raise yaml.constructor.ConstructorError(
                None, None, f"cannot read {quoted(node.value)} as {tag}", node.start_mark
            ) from exc

    return construct_or_refuse


for _name in ("bool", "int", "float", "timestamp"):
    Loader.add_constructor(_TAG + _name, _refusing(Loader.yaml_constructors[_TAG + _name]))


class _Unusual(Exception):
    """A node that `_build` leaves to the loader's own constructor."""


def _build(loader: Any, node: yaml.Node, seen: set[int] | None) -> Any:
    """The data of `node`, as the safe constructor builds it, for a plain tree.

    `seen` collects the nodes built so far, to find an alias; it is None for
    a stream that can hold none, whose str keys are then read directly.
    Raises _Unusual on any node it does not handle (see the module docstring).
    """
    if seen is not None:
        if id(node) in seen:
            raise _Unusual  # an alias: the constructor shares one object between its uses
        seen.add(id(node))
    kind, tag = type(node), node.tag
    if kind is yaml.ScalarNode:
        if tag == _STR:
            return node.value
        if tag in _SCALAR_TAGS:
            try:
                return loader.yaml_constructors[tag](loader, node)
            except yaml.constructor.ConstructorError:
                pass  # left to the loader's constructor, which raises it in its order
    elif kind is yaml.MappingNode and tag == _MAP:
        mapping = {}
        for key, value in node.value:
            if type(key) is not yaml.ScalarNode:
                raise _Unusual
            if seen is None and key.tag == _STR:
                name = sys.intern(key.value)
            else:
                name = _build(loader, key, seen)
                if type(name) is str:
                    name = sys.intern(name)
            mapping[name] = _build(loader, value, seen)
        return mapping
    elif kind is yaml.SequenceNode and tag == _SEQ:
        return [_build(loader, item, seen) for item in node.value]
    raise _Unusual


def _construct(loader: Any, node: yaml.Node, aliased: bool) -> Any:
    """`loader.construct_document(node)`, by the plain walk where it applies.

    `aliased` is False only for a stream that can hold no alias.
    """
    try:
        return _build(loader, node, set() if aliased else None)
    except _Unusual:
        return loader.construct_document(node)


def _first_too_deep(text: str) -> int | None:
    """Index of the first document nested deeper than MAX_DEPTH, or None.

    A syntax error ends the scan quietly, so that the loader raises it at
    the document where it occurs instead of a depth error pre-empting it.
    """
    depth, index = 0, -1
    parser = Loader(text)
    try:
        for event in iter(parser.get_event, None):
            step = _NESTING_STEP.get(type(event))
            if step is None:
                if type(event) is yaml.DocumentStartEvent:
                    index += 1
                continue
            depth += step
            if depth > MAX_DEPTH:
                return index
    except yaml.YAMLError:
        pass
    finally:
        parser.dispose()
    return None


def _one_line(exc: Exception) -> str:
    if isinstance(exc, yaml.MarkedYAMLError):
        parts = [
            text + (f" at line {mark.line + 1}, column {mark.column + 1}" if mark else "")
            for text, mark in ((exc.context, exc.context_mark), (exc.problem, exc.problem_mark))
            if text
        ]
        if parts:
            return "; ".join(parts)
    return " ".join(str(exc).split())


def load_all(data: bytes | str) -> Iterator[Any]:
    """Yield each document of a (possibly multi-document) stream in order.

    Empty documents yield None. Raises InvalidYaml, carrying the index of
    the document at fault, on bad UTF-8, a syntax or construction error, or
    nesting deeper than MAX_DEPTH; earlier documents are yielded first.
    """
    text = _decode(data)
    shallow = sum(map(text.count, _COLLECTION_INDICATORS)) <= MAX_DEPTH
    # An alias names an anchor, and every anchor starts with `&`.
    aliased = "&" in text
    too_deep = None if shallow else _first_too_deep(text)
    loader = Loader(text)
    index = 0
    try:
        while loader.check_node():
            if index == too_deep:
                raise InvalidYaml(f"nesting deeper than {MAX_DEPTH} levels", index)
            yield _construct(loader, loader.get_node(), aliased)
            index += 1
    except yaml.YAMLError as exc:
        raise InvalidYaml(_one_line(exc), index) from exc
    finally:
        loader.dispose()


def load(data: bytes | str) -> Any:
    """The stream's single document (None for an empty stream)."""
    documents = list(load_all(data))
    if len(documents) > 1:
        raise InvalidYaml(f"expected a single document, found {len(documents)}", 1)
    return documents[0] if documents else None


def read_file(path: str | Path, what: str) -> bytes:
    """The bytes of the `what` file at `path`; AuditError `cannot read <what> <path>: <reason>`."""
    try:
        with open(path, "rb") as file:  # Path("") would be ".", a directory
            return file.read()
    except OSError as exc:
        raise AuditError(f"cannot read {what} {path}: {exc}") from exc


def load_file(path: str | Path, what: str) -> Any:
    """The single document of the YAML file at `path`, a `what` input.

    Raises AuditError with a one-line message naming `what` and `path` when
    the file cannot be read or is not valid YAML.
    """
    try:
        return load(read_file(path, what))
    except InvalidYaml as exc:
        raise AuditError(f"{what} {path}: invalid YAML: {exc}") from exc
