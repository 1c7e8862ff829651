"""Parsing of Kubernetes resource manifests into a uniform document model.

Multi-document YAML and JSON-style manifests are both handled by the YAML
parser (JSON is a YAML subset). `List` objects are flattened into their
items because every downstream consumer operates per object. Unknown kinds
are retained: an auditor must not drop evidence it does not understand.

Only the rules read a document's body. `load_directory` hands each file's
documents on as soon as the file is parsed, and what a run keeps of a
document after that is the same ResourceDocument with no body: kind,
namespace, app label and ref. So a manifest stage holds one file's bodies
plus one small tuple per document. Discovery keeps nothing per file but
its path, as a plain string in one sorted list. A file that cannot be read
or parsed is skipped with one diagnostic line; `distinct_files` decides,
for every input, which paths name the same file.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping
from pathlib import Path
from typing import Any, NamedTuple

from . import yamlio
from .errors import AuditError, DocumentError, InvalidYaml, quoted

MANIFEST_EXTENSIONS = {".yaml", ".yml", ".json"}

CLUSTER_SCOPE = "_cluster"


class ResourceDocument(NamedTuple):
    """One parsed Kubernetes object.

    `app` is the container the object belongs to: its `app` label, else its
    `app.kubernetes.io/name` label, else None. `ref` is the canonical
    "namespace/kind/name", with "_cluster" for a cluster-scoped object.
    `body` is the full manifest tree (maps/lists/scalars) and is treated as
    immutable; rule evaluation never mutates it. What a run keeps of a
    document once the rules have read it is the same tuple with `body=None`.
    """

    kind: str
    namespace: str | None
    app: str | None
    ref: str
    body: Mapping[str, Any] | None


def _labels_of(raw: Mapping[str, Any], origin: str, index: int | str) -> Mapping[str, str]:
    labels = raw["metadata"].get("labels")
    if not isinstance(labels, (Mapping, type(None))):
        raise DocumentError(origin, index, f"labels must be a mapping (got {type(labels).__name__})")
    for key, value in (labels or {}).items():
        # Nothing is coerced: `tier: 2` would become "2", `app: 1.10` "1.1".
        if not (isinstance(key, str) and isinstance(value, str)):
            raise DocumentError(origin, index, f"label {quoted(key)} must be a string")
    return labels or {}


def document_from_mapping(raw: Any, origin: str, index: int | str) -> ResourceDocument:
    """`raw` as a document; `index` names it in errors (see `parse_manifest_stream`)."""
    if not isinstance(raw, Mapping):
        raise DocumentError(origin, index, f"document is not an object (got {type(raw).__name__})")
    kind = raw.get("kind")
    if not isinstance(kind, str) or not kind:
        raise DocumentError(origin, index, "no kind field")
    metadata = raw.get("metadata")
    name = metadata.get("name") if isinstance(metadata, Mapping) else None
    if not isinstance(name, str) or not name:
        raise DocumentError(origin, index, "no metadata.name")
    namespace = metadata.get("namespace")
    if not isinstance(namespace, (str, type(None))):
        raise DocumentError(origin, index,
                            f"metadata.namespace must be a string (got {type(namespace).__name__})")
    # Interned, so the records of a run share one string per kind and per namespace.
    namespace = sys.intern(namespace) if namespace else None
    labels = _labels_of(raw, origin, index)
    app = labels.get("app") or labels.get("app.kubernetes.io/name") or None
    ref = f"{namespace or CLUSTER_SCOPE}/{kind}/{name}"
    return ResourceDocument(sys.intern(kind), namespace, app, ref, raw)


def _is_list_object(raw: Any) -> bool:
    return (
        isinstance(raw, Mapping)
        and isinstance(raw.get("kind"), str)
        and raw["kind"].endswith("List")
        and isinstance(raw.get("items"), list)
    )


def _flatten_list(raw: Mapping[str, Any], origin: str, index: int) -> list[ResourceDocument]:
    item_kind = raw["kind"][: -len("List")] or None
    docs = []
    for position, item in enumerate(raw["items"]):
        if isinstance(item, Mapping):
            item = dict(item)
            if item_kind and not item.get("kind"):
                item["kind"] = item_kind
            # Rules can read the apiVersion path of an item's body.
            if not item.get("apiVersion") and isinstance(raw.get("apiVersion"), str):
                item["apiVersion"] = raw["apiVersion"]
        docs.append(document_from_mapping(item, origin, f"{index}: item {position}"))
    return docs


def parse_manifest_stream(text: bytes | str, origin: str) -> list[ResourceDocument]:
    """Parse a (possibly multi-document) manifest stream.

    Returns one ResourceDocument per non-empty document in stream order;
    empty and comment-only documents are skipped silently.

    Raises DocumentError, naming the file and document, on bad UTF-8, syntax
    errors and nesting deeper than yamlio.MAX_DEPTH, and on structurally
    valid documents that are not Kubernetes objects (no kind, no
    metadata.name, a namespace or labels that are not strings). A document
    is named by its position in the stream, counting skipped documents; an
    item of a List also by its position in `items` (`document 0: item 1: ...`).
    """
    documents: list[ResourceDocument] = []
    try:
        for index, raw in enumerate(yamlio.load_all(text)):
            if raw is None or raw == {} or raw == "":
                continue
            if _is_list_object(raw):
                documents.extend(_flatten_list(raw, origin, index))
            else:
                documents.append(document_from_mapping(raw, origin, index))
    except InvalidYaml as exc:
        raise DocumentError(origin, exc.document_index, str(exc)) from exc
    return documents


class DirectoryLoad(NamedTuple):
    """Outcome of load_directory: parsed documents plus one diagnostic line
    per skipped file."""

    documents: list[ResourceDocument]
    errors: list[str]


def distinct_files(paths: Iterable[str | Path]) -> Iterator[str | Path]:
    """Each path that names a file no earlier path named (the same path, a
    symlink or a hard link), in order. Device and inode identify a file as
    resolving its path would, with one stat call instead of one per path
    component; they are kept as one int per file. A path that cannot be
    stat'ed is yielded as it is, so that reading it reports the error."""
    seen: set[int] = set()
    for path in paths:
        try:
            status = os.stat(path)
        except OSError:
            yield path
            continue
        identity = status.st_dev << 64 | status.st_ino
        if identity not in seen:
            seen.add(identity)
            yield path


def _is_manifest_name(name: str) -> bool:
    """Whether `name` has a manifest suffix, by `PurePath.suffix`'s rule: the
    text from the last dot, where that dot is not the name's first character.
    So `..yaml` is a manifest, and a bare `.yaml` is not."""
    dot = name.rfind(".")
    return dot > 0 and name[dot:].lower() in MANIFEST_EXTENSIONS


def _manifest_files(root: str) -> list[str]:
    """The paths of the manifest files under the directory `root`, sorted.

    Hidden entries are included. A directory is walked whatever its name; a
    symlink to a directory is not entered, and one to a regular file is
    listed under its own path. A directory that cannot be listed is skipped.
    Paths are joined to `root` as `Path` joins them, so `.` adds no prefix.
    """
    found: list[str] = []
    pending = [root]
    while pending:
        directory = pending.pop()
        prefix = "" if directory == "." else os.path.join(directory, "")
        try:
            with os.scandir(directory) as entries:
                for entry in entries:
                    if entry.is_dir(follow_symlinks=False):
                        pending.append(prefix + entry.name)
                    # `os.path.isfile`, not `entry.is_file()`, for a symlink: a link
                    # loop makes `entry.is_file()` raise, which would skip the directory.
                    elif _is_manifest_name(entry.name) and (
                            entry.is_file(follow_symlinks=False) or os.path.isfile(entry.path)):
                        found.append(prefix + entry.name)
        except OSError:
            continue
    found.sort()
    return found


def load_directory(
    *roots: str | Path, consume: Callable[[list[ResourceDocument]], None] | None = None
) -> DirectoryLoad:
    """Recursively load every manifest file under each root, root by root.

    A manifest file is a regular file whose name ends in `.yaml`, `.yml` or
    `.json`, in any case, after at least one other character (see
    `_manifest_files`). A file that cannot be read or parsed is skipped with
    one line in the result's `errors`, not raised, so one malformed file
    never hides the rest of the evidence. A file reached more than once
    (through two roots, a symlink or a hard link) is loaded once, under the
    first path that reached it. Document order is deterministic: root order,
    then lexicographic by file path within a root, then document index.

    Discovery holds each root's file paths as one sorted list of strings.
    Each file's documents go to `consume` as soon as the file is parsed,
    and are released before the next file is read. By default they are
    collected in the result's `documents`.
    """
    found: list[str] = []
    for root in roots:
        root = str(Path(root))  # normalised as `Path` does, so diagnostics name the same paths
        if not os.path.exists(root):
            raise AuditError(f"no such path: {root}")
        if os.path.isfile(root):
            found.append(root)
        else:
            found += _manifest_files(root)

    result = DirectoryLoad(documents=[], errors=[])
    consume = consume or result.documents.extend
    for path in distinct_files(found):
        try:
            docs = parse_manifest_stream(yamlio.read_file(path, "manifest"), path)
        except DocumentError as exc:
            result.errors.append(f"parse error in {exc}")
        except AuditError as exc:
            result.errors.append(str(exc))
        else:
            consume(docs)
            del docs
    return result
