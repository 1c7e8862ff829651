"""Declarative check combinators for misconfiguration rules.

Rules live in data files, so their trigger conditions are expressed as a
small combinator language over the manifest tree rather than as code. A
check is a one-key mapping; combinators compose:

    any_container:
      any_of:
        - path_absent: resources.limits.cpu
        - path_absent: resources.limits.memory

Paths are dot-separated keys; a `*` segment fans out over every mapping
value or list element. Path predicates are existential: they hold if at
least one node matches.
"""

from __future__ import annotations

import math
import re
import reprlib
from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from typing import TYPE_CHECKING, Any

from .errors import CatalogError

if TYPE_CHECKING:
    from .manifests import ResourceDocument

# Kinds that embed a pod template, and the path to the pod spec inside them.
POD_SPEC_PATHS: dict[str, tuple[str, ...]] = {
    "Pod": ("spec",),
    "Deployment": ("spec", "template", "spec"),
    "StatefulSet": ("spec", "template", "spec"),
    "DaemonSet": ("spec", "template", "spec"),
    "ReplicaSet": ("spec", "template", "spec"),
    "Job": ("spec", "template", "spec"),
    "CronJob": ("spec", "jobTemplate", "spec", "template", "spec"),
}


# The pod securityContext fields that apply to each container that does not set them.
INHERITED_SECURITY_FIELDS = ("runAsNonRoot", "runAsUser", "runAsGroup", "seccompProfile",
                             "seLinuxOptions", "windowsOptions", "appArmorProfile")

PodView = tuple[Mapping[str, Any] | None, list[Mapping[str, Any]]]

# What a check reads beyond its document's kind, namespace and ref (see `compile_check`).
BODY, CONTEXT = "body", "context"


class EvalContext:
    """Cross-resource facts available to context-sensitive combinators.

    It also keeps the pod spec and containers of the last document asked
    for, so that the rules evaluated on one document in turn walk its pod
    spec once. A plain class, because `pod` rebinds `last_pod`.
    """

    __slots__ = ("namespace_kinds", "ref_counts", "last_pod")

    def __init__(self) -> None:
        self.namespace_kinds: dict[str | None, set[str]] = {}
        self.ref_counts: Counter = Counter()
        # (document, its pod). Holding the document keeps the `is` test in `pod`
        # from matching a new object that reuses a freed one's address.
        self.last_pod: tuple = (None, None)

    @classmethod
    def build(cls, resources: Iterable[ResourceDocument]) -> "EvalContext":
        """The facts of a whole set of documents, with or without their bodies."""
        ctx = cls()
        for res in resources:
            ctx.namespace_kinds.setdefault(res.namespace, set()).add(res.kind)
            ctx.ref_counts[res.ref] += 1
        return ctx

    def pod(self, doc: ResourceDocument) -> PodView:
        """`pod_of(doc)`, walked once for consecutive calls on the same document."""
        last = self.last_pod
        if last[0] is not doc:
            last = self.last_pod = (doc, pod_of(doc))
        return last[1]


# A check judges a node of a document; one that reads no BODY may judge one with no body.
Check = Callable[[Any, "ResourceDocument", EvalContext], bool]


def resolve_path(node: Any, path: str) -> list[Any]:
    """All values reachable from `node` along a dotted path.

    A `*` segment expands over mapping values and list elements; a numeric
    segment indexes into lists. Missing keys simply produce no matches.
    """
    current = [node]
    for segment in path.split("."):
        nxt: list[Any] = []
        for value in current:
            if segment == "*":
                if isinstance(value, Mapping):
                    nxt.extend(value.values())
                elif isinstance(value, list):
                    nxt.extend(value)
            elif isinstance(value, Mapping):
                if segment in value:
                    nxt.append(value[segment])
            elif isinstance(value, list) and segment.isdigit():
                try:
                    idx = int(segment)
                except ValueError:  # "²", or more digits than int() converts: out of range too
                    continue
                if idx < len(value):
                    nxt.append(value[idx])
        current = nxt
        if not current:
            break
    return current


def shannon_entropy(text: str) -> float:
    """Shannon entropy of a string in bits per character."""
    if not text:
        return 0.0
    counts = Counter(text)
    total = len(text)
    return -sum((n / total) * math.log2(n / total) for n in counts.values())


def pod_spec_of(doc: ResourceDocument) -> Mapping[str, Any] | None:
    path = POD_SPEC_PATHS.get(doc.kind)
    if path is None:
        return None
    node: Any = doc.body
    for segment in path:
        if not isinstance(node, Mapping) or segment not in node:
            return None
        node = node[segment]
    return node if isinstance(node, Mapping) else None


def _effective(container: Mapping[str, Any], inherited: Mapping[str, Any]) -> Mapping[str, Any]:
    """`container`, or a copy whose securityContext adds the `inherited` fields it leaves unset."""
    own = container.get("securityContext")
    own = own if isinstance(own, Mapping) else {}
    missing = {k: v for k, v in inherited.items() if own.get(k) is None}
    return {**container, "securityContext": {**own, **missing}} if missing else container


def pod_of(doc: ResourceDocument) -> PodView:
    """The pod spec of `doc` (None if it has none) and its containers and init containers,
    each with its effective securityContext: the `INHERITED_SECURITY_FIELDS` that the pod
    sets and the container does not are copied into a view of it, as Kubernetes applies them.
    """
    spec = pod_spec_of(doc)
    if spec is None:
        return None, []
    pod_context = spec.get("securityContext")
    inherited = {k: pod_context[k] for k in INHERITED_SECURITY_FIELDS
                 if pod_context.get(k) is not None} if isinstance(pod_context, Mapping) else {}
    found = []
    for key in ("containers", "initContainers"):
        items = spec.get(key)
        if isinstance(items, list):
            found.extend(_effective(c, inherited) for c in items if isinstance(c, Mapping))
    return spec, found


def image_registry(image: str) -> str:
    """The registry component of a container image string.

    A first path segment containing a dot, a colon, or "localhost" is a
    registry host; otherwise the default public registry is implied.
    """
    head = image.split("/", 1)[0]
    if "/" in image and ("." in head or ":" in head or head == "localhost"):
        return head.lower()
    return "docker.io"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CatalogError(message)


# Field shapes, named as in diagnostics. A YAML or JSON boolean is never a number.
STRING, NONEMPTY, INTEGER, NUMBER, BOOLEAN, STRINGS, LIST, ANY = (
    "a string", "a non-empty string", "an integer", "a number", "a boolean",
    "a list of strings", "a list", "any value")
SHAPES: dict[str, Callable[[Any], bool]] = {
    STRING: lambda v: isinstance(v, str),
    NONEMPTY: lambda v: isinstance(v, str) and v != "",
    INTEGER: lambda v: isinstance(v, int) and not isinstance(v, bool),
    NUMBER: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    BOOLEAN: lambda v: isinstance(v, bool),
    STRINGS: lambda v: isinstance(v, list) and all(isinstance(i, str) for i in v),
    LIST: lambda v: isinstance(v, list),
    ANY: lambda v: True,
}
_ABSENT = object()


def entry_fields(raw: Any, what: str, fields: Mapping[str, Any], key: str | None = None,
                 error: Callable[[str], Exception] = CatalogError) -> dict[str, Any]:
    """The values of `fields` in a catalog entry or scan report, each checked for its shape.

    `fields` maps a required field's name to its shape and an optional one's
    to (shape, default), the value taken when the field is absent or null.
    A failed check raises `error` with a one-line message that names `what`,
    followed by the value of its `key` field if given. Values are quoted by
    `reprlib`, bounded: aliases can make them huge.
    """
    if not isinstance(raw, Mapping):
        raise error(f"{what} must be a mapping, got {reprlib.repr(raw)}")
    values = {}
    for name, shape in fields.items():
        value = raw.get(name, _ABSENT)
        if isinstance(shape, tuple):
            shape, default = shape
            if value is None or value is _ABSENT:
                values[name] = default
                continue
        if value is _ABSENT or not SHAPES[shape](value):
            label = what if key is None else f"{what} {reprlib.repr(raw.get(key))}"
            problem = f"missing field {name!r}" if value is _ABSENT else f"{name} must be {shape}"
            raise error(f"{label}: {problem}")
        values[name] = value
    return values


# The exact types whose values a shape accepts without a closer look (None:
# every value); a subclass, or any value of a shape with none listed, goes to
# `entry_fields`.
_EXACT_TYPES: dict[str, tuple[type, ...] | None] = {
    STRING: (str,), NONEMPTY: (str,), INTEGER: (int,), NUMBER: (int, float), BOOLEAN: (bool,),
    STRINGS: (), LIST: (list,), ANY: None,
}
_REQUIRED = object()


def field_reader(fields: Mapping[str, Any]) -> Callable[..., list[Any]]:
    """`fields`, as `entry_fields` takes them, compiled once into a reader.

    The reader takes `entry_fields`' other arguments and returns the field
    values in the order of `fields`. Its fast path accepts a dict in which
    each field holds a value of an exact type its shape allows (non-empty for
    a non-empty string), or is optional and absent or null, and then takes
    its default. Any other entry goes to `entry_fields`, which accepts it or
    words the failure, so `SHAPES` stays the one definition of a shape. `what`
    may be a function returning the label, called only then.

    The fast path is generated as straight-line source, as
    `collections.namedtuple` does: field names enter it only as `repr`
    literals, and types and defaults as bound names.
    """
    def miss(raw: Any, what: str | Callable[[], str], key: str | None,
             error: Callable[[str], Exception]) -> list[Any]:
        label = what if isinstance(what, str) else what()
        return list(entry_fields(raw, label, fields, key, error).values())

    namespace: dict[str, Any] = {"_miss": miss, "_CatalogError": CatalogError}
    fallback = "        return _miss(raw, what, key, error)"
    lines = [
        "def read(raw, what, key=None, error=_CatalogError):",
        "    if type(raw) is not dict:",
        fallback,
        "    get = raw.get",
    ]
    for i, (name, shape) in enumerate(fields.items()):
        shape, default = shape if isinstance(shape, tuple) else (shape, _REQUIRED)
        types = _EXACT_TYPES[shape]
        v = f"v{i}"
        lines.append(f"    {v} = get({name!r})")
        # When a value that is not None misses the fast path.
        miss_test = None
        if types is not None:
            namespace[f"_t{i}"] = types[0] if len(types) == 1 else types
            miss_test = f"type({v}) {'is not' if len(types) == 1 else 'not in'} _t{i}"
            if shape == NONEMPTY:
                miss_test += f" or not {v}"
        if default is _REQUIRED:
            # No exact type is None's, so a type test also refuses None.
            lines += [f"    if {miss_test or f'{v} is None'}:", fallback]
        else:
            namespace[f"_d{i}"] = default
            lines += [f"    if {v} is None:", f"        {v} = _d{i}"]
            if miss_test:
                lines += [f"    elif {miss_test}:", fallback]
    lines.append(f"    return [{', '.join(f'v{i}' for i in range(len(fields)))}]")
    exec("\n".join(lines), namespace)
    return namespace["read"]


def compile_check(spec: Mapping[str, Any]) -> Check:
    """Compile a check mapping into a callable predicate.

    Raises CatalogError on unknown combinators or malformed arguments, so
    bad catalogs fail before any evaluation starts. The predicate's `reads`
    attribute is a frozenset naming what the check reads beyond its
    document's kind, namespace and ref: BODY, the document's body, and CONTEXT,
    facts about the other documents (`EvalContext.namespace_kinds` and
    `ref_counts`). A check that reads CONTEXT can only be judged once every
    document is known (see `rules.Evaluation`).
    """
    reads: set[str] = set()
    check = _compile(spec, reads)
    check.reads = frozenset(reads)
    return check


def _compile(spec: Mapping[str, Any], reads: set[str]) -> Check:
    """`compile_check` without the `reads` mark: what the check reads is added to `reads`."""
    _require(isinstance(spec, Mapping) and len(spec) == 1,
             f"a check must be a one-key mapping, got {spec!r}")
    op, arg = next(iter(spec.items()))
    if op in ("namespace_lacks_kind", "duplicate_ref"):
        reads.add(CONTEXT)
    elif op not in ("all_of", "any_of", "not", "kind_is"):
        reads.add(BODY)

    if op == "all_of" or op == "any_of":
        _require(isinstance(arg, list) and arg, f"{op} needs a non-empty list")
        subs = [_compile(s, reads) for s in arg]
        every = any if op == "any_of" else all
        return lambda node, doc, ctx: every(s(node, doc, ctx) for s in subs)
    if op == "not":
        sub = _compile(arg, reads)
        return lambda node, doc, ctx: not sub(node, doc, ctx)

    if op == "kind_is":
        listed = [arg] if isinstance(arg, str) else arg
        _require(SHAPES[STRINGS](listed), "kind_is needs a kind or a list of kinds")
        kinds = set(listed)
        return lambda node, doc, ctx: doc.kind in kinds

    if op == "path_exists" or op == "path_absent":
        _require(isinstance(arg, str), f"{op} must be a string")
        if op == "path_exists":
            return lambda node, doc, ctx: bool(resolve_path(node, arg))
        return lambda node, doc, ctx: not resolve_path(node, arg)
    if op == "path_equals" or op == "path_contains":
        path, value = entry_fields(arg, op, {"path": STRING, "value": ANY}).values()
        if op == "path_equals":
            return lambda node, doc, ctx: any(v == value for v in resolve_path(node, path))
        return lambda node, doc, ctx: any(
            isinstance(v, list) and value in v for v in resolve_path(node, path)
        )
    if op == "path_matches":
        path, pattern = entry_fields(arg, op, {"path": STRING, "pattern": STRING}).values()
        try:
            regex = re.compile(pattern)
        except re.error as exc:
            raise CatalogError(f"path_matches pattern {pattern!r}: {exc}") from exc
        return lambda node, doc, ctx: any(
            isinstance(v, str) and regex.search(v) for v in resolve_path(node, path)
        )

    if op == "any_item" or op == "all_items":
        path, check = entry_fields(arg, op, {"path": STRING, "check": ANY}).values()
        sub = _compile(check, reads)
        every = any if op == "any_item" else all
        return lambda node, doc, ctx: every(
            sub(item, doc, ctx)
            for items in resolve_path(node, path)
            if isinstance(items, list)
            for item in items
        )

    if op == "pod_spec":
        sub = _compile(arg, reads)
        return lambda node, doc, ctx: (
            (spec_node := ctx.pod(doc)[0]) is not None and sub(spec_node, doc, ctx)
        )
    if op == "any_container" or op == "all_containers":
        sub = _compile(arg, reads)
        every = any if op == "any_container" else all
        return lambda node, doc, ctx: every(sub(c, doc, ctx) for c in ctx.pod(doc)[1])

    if op == "image_registry_not_in":
        _require(SHAPES[STRINGS](arg) and arg,
                 "image_registry_not_in needs a non-empty list of strings")
        allowed = {r.lower() for r in arg}
        def check_registry(node: Any, doc: ResourceDocument, ctx: EvalContext) -> bool:
            image = node.get("image") if isinstance(node, Mapping) else None
            return isinstance(image, str) and image_registry(image) not in allowed
        return check_registry

    if op == "credential_data":
        patterns, threshold, min_length = entry_fields(arg, op, {
            "key_patterns": (STRINGS, []), "entropy_threshold": (NUMBER, 4.0),
            "min_value_length": (INTEGER, 16)}).values()
        patterns = [p.lower() for p in patterns]
        def check_credentials(node: Any, doc: ResourceDocument, ctx: EvalContext) -> bool:
            data = node.get("data") if isinstance(node, Mapping) else None
            if not isinstance(data, Mapping):
                return False
            for key, value in data.items():
                if any(p in str(key).lower() for p in patterns):
                    return True
                if (isinstance(value, str) and len(value) >= min_length
                        and shannon_entropy(value) >= threshold):
                    return True
            return False
        return check_credentials

    if op == "namespace_lacks_kind":
        _require(isinstance(arg, str), f"{op} must be a string")
        return lambda node, doc, ctx: arg not in ctx.namespace_kinds.get(doc.namespace, set())

    if op == "duplicate_ref":
        return lambda node, doc, ctx: ctx.ref_counts[doc.ref] > 1

    raise CatalogError(f"unknown check combinator: {op!r}")
