"""Exception hierarchy shared across the toolkit.

Every error raised by ricaudit derives from AuditError so the CLI can map
any tool failure to exit code 2 without enumerating subclasses; the CLI
prints `str(exc)`, so each message is written whole where it is raised.
A subclass exists only where some code catches it or builds its message.
`quoted` shows an input value in a message abridged, so one long value
cannot make a diagnostic line long; no other module quotes one itself.
"""

from __future__ import annotations

import reprlib


def quoted(value: object) -> str:
    """`repr(value)`, abridged: a long string as its two ends around `...`, at most 30
    characters, and a large container as its first few items."""
    return reprlib.repr(value)


class AuditError(Exception):
    """Base class for all ricaudit errors."""


class InvalidYaml(AuditError):
    """A YAML stream is not UTF-8, not valid YAML, or nested too deep."""

    def __init__(self, reason: str, document_index: int = 0):
        self.document_index = document_index
        super().__init__(reason)


class DocumentError(AuditError):
    """A document in a manifest stream cannot be parsed or cannot become a resource."""

    def __init__(self, file_path: str, document_index: int | str, reason: str):
        super().__init__(f"{file_path}: document {document_index}: {reason}")


class CatalogError(AuditError):
    """A catalog entry or inventory item has the wrong shape or breaks an invariant."""


class MalformedVersion(AuditError):
    """A version string is not an optionally-v-prefixed dotted numeric triple."""

