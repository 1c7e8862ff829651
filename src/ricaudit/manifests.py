"""Parsing of Kubernetes resource manifests into a uniform document model.

Multi-document YAML and JSON-style manifests are both handled by the YAML
parser (JSON is a YAML subset). `List` objects are flattened into their
items because every downstream consumer operates per object. Unknown kinds
are retained: an auditor must not drop evidence it does not understand.

Only the rules read a document's body. `load_directory` hands each file's
documents on as soon as the file is parsed, and what a run keeps of a
document after that is its ResourceRecord: kind, namespace, app label and
ref. So a manifest stage holds one file's bodies plus one small record per
document.
"""

from __future__ import annotations

import errno
import os
import stat
from collections.abc import Callable, Iterable, Iterator, Mapping
from pathlib import Path
from typing import Any, NamedTuple

from . import yamlio
from .errors import AuditError, DocumentError, InvalidYaml

MANIFEST_EXTENSIONS = {".yaml", ".yml", ".json"}

CLUSTER_SCOPE = "_cluster"


class SourceLocation(NamedTuple):
    """Where a document came from: its file and its position in the file's stream."""

    file_path: str
    document_index: int


class ResourceRecord(NamedTuple):
    """What a run keeps of a document once the rules have read its body."""

    kind: str
    namespace: str | None
    # The container the document belongs to, if it names one (see ResourceDocument.app).
    app: str | None
    ref: str

    # A record has no body: the rules judged on records read none.
    body = None


class ResourceDocument(NamedTuple):
    """One parsed Kubernetes object.

    `body` is the full manifest tree (maps/lists/scalars) and is treated as
    immutable after construction; rule evaluation never mutates it. `ref` is
    the canonical "namespace/kind/name", with "_cluster" for a cluster-scoped
    object, rendered once when the document is built.
    """

    api_version: str
    kind: str
    name: str
    namespace: str | None
    labels: Mapping[str, str]
    body: Mapping[str, Any]
    source: SourceLocation
    ref: str

    @property
    def app(self) -> str | None:
        """The `app` label, else the `app.kubernetes.io/name` label, else None."""
        return self.labels.get("app") or self.labels.get("app.kubernetes.io/name") or None

    def record(self) -> ResourceRecord:
        return ResourceRecord(self.kind, self.namespace, self.app, self.ref)


def _labels_of(raw: Mapping[str, Any], origin: str, index: int) -> dict[str, str]:
    labels = raw["metadata"].get("labels")
    if not isinstance(labels, (Mapping, type(None))):
        raise DocumentError(origin, index, f"labels must be a mapping (got {type(labels).__name__})")
    for key, value in (labels or {}).items():
        # Nothing is coerced: `tier: 2` would become "2", `app: 1.10` "1.1".
        if not (isinstance(key, str) and isinstance(value, str)):
            raise DocumentError(origin, index, f"label {key!r} must be a string")
    return dict(labels or {})


def document_from_mapping(raw: Any, origin: str, index: int) -> ResourceDocument:
    if not isinstance(raw, Mapping):
        raise DocumentError(origin, index, f"document is not an object (got {type(raw).__name__})")
    kind = raw.get("kind")
    if not isinstance(kind, str) or not kind:
        raise DocumentError(origin, index, "no kind field")
    metadata = raw.get("metadata")
    name = metadata.get("name") if isinstance(metadata, Mapping) else None
    if not isinstance(name, str) or not name:
        raise DocumentError(origin, index, "no metadata.name")
    namespace = metadata.get("namespace") if isinstance(metadata, Mapping) else None
    if not (isinstance(namespace, str) and namespace):
        namespace = None
    api_version = raw.get("apiVersion")
    return ResourceDocument(
        api_version=api_version if isinstance(api_version, str) else "",
        kind=kind,
        name=name,
        namespace=namespace,
        labels=_labels_of(raw, origin, index),
        body=raw,
        source=SourceLocation(file_path=origin, document_index=index),
        ref=f"{namespace or CLUSTER_SCOPE}/{kind}/{name}",
    )


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
    for item in raw["items"]:
        if isinstance(item, Mapping):
            item = dict(item)
            if item_kind and not item.get("kind"):
                item["kind"] = item_kind
            if not item.get("apiVersion") and isinstance(raw.get("apiVersion"), str):
                item["apiVersion"] = raw["apiVersion"]
        docs.append(document_from_mapping(item, origin, index))
    return docs


def parse_manifest_stream(text: bytes | str, origin: str) -> list[ResourceDocument]:
    """Parse a (possibly multi-document) manifest stream.

    Returns one ResourceDocument per non-empty document in stream order;
    empty and comment-only documents are skipped silently. `document_index`
    is the document's position in the stream, counting skipped documents.

    Raises DocumentError, naming the file and document, on bad UTF-8, syntax
    errors and nesting deeper than yamlio.MAX_DEPTH, and on structurally
    valid documents that are not Kubernetes objects (no kind, no
    metadata.name, labels that are not strings).
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


class ParseFailure(NamedTuple):
    """A file that failed to parse during a directory load."""

    file_path: str
    error: Exception


class DirectoryLoad(NamedTuple):
    """Outcome of load_directory: parsed documents plus recorded failures."""

    documents: list[ResourceDocument]
    errors: list[ParseFailure]


def distinct_files(paths: Iterable[str | Path]) -> Iterator[str | Path]:
    """Each path that names a file no earlier path named (the same path, a
    symlink or a hard link), in order. Device and inode identify a file as
    resolving its path would, with one stat call instead of one per path
    component. A path that cannot be stat'ed is yielded as it is, so that
    reading it reports the error."""
    seen: set[tuple[int, int]] = set()
    for path in paths:
        try:
            status = os.stat(path)
        except OSError:
            yield path
            continue
        identity = status.st_dev, status.st_ino
        if identity not in seen:
            seen.add(identity)
            yield path


# Stat errors that mean a path names no file, as `Path.is_file` reads them:
# a dangling or looping symlink, for example.
_NO_FILE = {errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP}


def load_directory(
    *roots: str | Path, consume: Callable[[list[ResourceDocument]], None] | None = None
) -> DirectoryLoad:
    """Recursively load every manifest file under each root, root by root.

    Parse errors are collected per file, not raised, so one malformed file
    never hides the rest of the evidence. A file reached more than once
    (through two roots, a symlink or a hard link) is loaded once, under the
    first path that reached it. Document order is deterministic: root
    order, then lexicographic by file path within a root, then document
    index.

    Each file's documents go to `consume` as soon as the file is parsed,
    and are released before the next file is read. By default they are
    collected in the result's `documents`.
    """
    files: dict[tuple[int, int], Path] = {}
    for root in map(Path, roots):
        if not root.exists():
            raise AuditError(f"no such path: {root}")
        if root.is_file():
            found = [root]
        else:
            found = sorted(
                (p for p in root.rglob("*") if p.suffix.lower() in MANIFEST_EXTENSIONS),
                key=lambda p: str(p),
            )
        for path in found:
            # One stat both keeps regular files and identifies them.
            try:
                status = os.stat(path)
            except OSError as exc:
                if exc.errno in _NO_FILE:
                    continue
                raise
            if stat.S_ISREG(status.st_mode):
                files.setdefault((status.st_dev, status.st_ino), path)

    result = DirectoryLoad(documents=[], errors=[])
    consume = consume or result.documents.extend
    for path in files.values():
        try:
            raw = path.read_bytes()
        except OSError as exc:
            result.errors.append(ParseFailure(str(path), AuditError(f"cannot read {path}: {exc}")))
            continue
        try:
            docs = parse_manifest_stream(raw, str(path))
        except DocumentError as exc:
            result.errors.append(ParseFailure(str(path), exc))
            continue
        consume(docs)
        del docs
    return result
