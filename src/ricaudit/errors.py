"""Exception hierarchy shared across the toolkit.

Every error raised by ricaudit derives from AuditError so the CLI can map
any tool failure to exit code 2 without enumerating subclasses.
"""

from __future__ import annotations


class AuditError(Exception):
    """Base class for all ricaudit errors."""


# --- YAML and manifest parsing ------------------------------------------


class InvalidYaml(AuditError):
    """A YAML stream is not UTF-8, not valid YAML, or nested too deep."""

    def __init__(self, reason: str, document_index: int = 0):
        self.document_index = document_index
        super().__init__(reason)


class DocumentError(AuditError):
    """A document in a manifest stream cannot become a resource."""

    default_reason = "invalid document"

    def __init__(self, file_path: str, document_index: int, reason: str | None = None):
        self.file_path = file_path
        self.document_index = document_index
        super().__init__(f"{file_path}: document {document_index}: {reason or self.default_reason}")


class MalformedDocument(DocumentError):
    """A document in a manifest stream is not syntactically valid."""


class MissingKind(DocumentError):
    """A document parsed fine but carries no usable `kind`."""

    default_reason = "no kind field"


class MissingName(DocumentError):
    """A document parsed fine but carries no `metadata.name`."""

    default_reason = "no metadata.name"


class IoError(AuditError):
    """A path could not be read."""


# --- catalogs and scoring -----------------------------------------------


class CatalogError(AuditError):
    """A catalog entry or inventory item has the wrong shape or breaks an invariant."""


class UnknownRuleId(CatalogError):
    """A control references a rule id absent from the catalog."""


class IncompleteResults(AuditError):
    """Control results do not cover a framework exactly once."""


# --- vulnerability reports ----------------------------------------------


class SchemaError(AuditError):
    """A scan report does not conform to the native report schema."""

    def __init__(self, reason: str, entry_index: int | None = None):
        self.entry_index = entry_index
        super().__init__(reason)


# --- version audit ------------------------------------------------------


class MalformedVersion(AuditError):
    """A version string is not an optionally-v-prefixed dotted numeric triple."""


# --- fixtures -----------------------------------------------------------


class FixtureDrift(AuditError):
    """A recomputed fixture value no longer matches its recorded expectation."""

    def __init__(self, cell: str, expected: object, actual: object):
        self.cell = cell
        self.expected = expected
        self.actual = actual
        super().__init__(f"fixture drift at {cell}: expected {expected!r}, got {actual!r}")


# --- cluster client -----------------------------------------------------


class ClusterError(AuditError):
    """Base class for read-only cluster client failures."""

    def __init__(self, reason: str, kind: str | None = None, namespace: str | None = None):
        self.kind = kind
        self.namespace = namespace
        scope = ""
        if kind is not None:
            scope = f" (kind {kind}" + (f", namespace {namespace})" if namespace else ")")
        super().__init__(reason + scope)


class Unauthorized(ClusterError):
    """The API server answered 401 or 403."""


class Unreachable(ClusterError):
    """The endpoint could not be reached before the timeout."""


class UnexpectedStatus(ClusterError):
    """The API server answered a non-2xx status other than 401/403."""


class DecodeError(ClusterError):
    """The response body was not a decodable list object."""


class InsecureEndpoint(ClusterError):
    """A plain-text endpoint was refused (no insecure override set)."""
