"""Component version audit against an advisory database.

The bundled database pins known-vulnerable platform versions as exact
matches: advisory CVE counts are a snapshot tied to the exact version they
were collected for, and range extrapolation would invent data. User
databases may also use inclusive upper-bound ranges.
"""

from __future__ import annotations

import re
import reprlib
from typing import Iterable, NamedTuple, Sequence

from .errors import MalformedVersion
from .severity import SeverityClass, classify_severity

# SemVer 2.0.0 build metadata: "+" and dot-separated identifiers, after the patch.
_VERSION_RE = re.compile(r"^v?(\d+)\.(\d+)(?:\.(\d+)(?:\+[0-9A-Za-z-]+(?:\.[0-9A-Za-z-]+)*)?)?$")


class Version(NamedTuple):
    """A dotted numeric triple; it compares, hashes and equals as its numbers."""

    major: int
    minor: int
    patch: int

    def __str__(self) -> str:
        return f"{self.major}.{self.minor}.{self.patch}"


def parse_version(text: str) -> Version:
    """Parse an optionally v-prefixed dotted numeric version.

    A missing patch component defaults to 0. Build metadata after the patch
    (`v3.5.4+g1b5edb6` from `helm version --short`, `v1.16.0+k3s1`) is
    dropped: SemVer 2.0.0 §10 gives it no part in precedence. Anything
    else — pre-release tags, channel names like "latest" — is rejected
    rather than coerced: silent coercion hides supply-chain drift.
    """
    match = _VERSION_RE.match(text.strip())
    if not match:
        raise MalformedVersion(f"not a numeric version: {text!r}")
    major, minor, patch = match.groups()
    try:
        return Version(int(major), int(minor), int(patch) if patch is not None else 0)
    except ValueError:  # a part longer than the interpreter converts to an int
        raise MalformedVersion(
            f"not a numeric version: {reprlib.repr(text)} (a part has too many digits)") from None


class VersionPredicate(NamedTuple):
    """Either an exact match ("==") or an inclusive upper bound ("<=")."""

    op: str
    version: Version

    def matches(self, installed: Version) -> bool:
        if self.op == "==":
            return installed == self.version
        return installed <= self.version

    def __str__(self) -> str:
        return f"{self.op} {self.version}"

    @classmethod
    def parse(cls, text: str) -> "VersionPredicate":
        parts = text.strip().split()
        if len(parts) == 1:
            op, raw = "==", parts[0]
        elif len(parts) == 2 and parts[0] in ("==", "<="):
            op, raw = parts
        else:
            raise MalformedVersion(f"not a version predicate: {text!r}")
        return cls(op=op, version=parse_version(raw))


class AdvisoryEntry(NamedTuple):
    """One advisory. `catalogs` checks its numbers when it parses one."""

    component: str
    affected: VersionPredicate
    cve_count: int
    cvss_min: float
    cvss_max: float
    vulnerability_classes: tuple[str, ...]
    recommended_min_version: Version | None = None


class VersionFinding(NamedTuple):
    component: str
    installed: Version
    matched_entry: AdvisoryEntry
    severity: SeverityClass


class VersionAudit(NamedTuple):
    """Audit outcome: findings plus one diagnostic line per item whose
    version does not parse."""

    findings: list[VersionFinding]
    errors: list[str]


def audit_components(
    inventory: Iterable[tuple[str, str]], advisories: Sequence[AdvisoryEntry]
) -> VersionAudit:
    """Match an inventory of (component, version string) pairs against advisories.

    One finding per matching (item, advisory) pair; a malformed version is
    recorded for that item, as one diagnostic line, without aborting the
    rest. Findings are sorted by severity descending, then component.
    """
    audit = VersionAudit(findings=[], errors=[])
    for component, raw in inventory:
        canonical = component.strip().lower()
        try:
            installed = parse_version(raw)
        except MalformedVersion as exc:
            audit.errors.append(f"inventory entry {canonical!r}: {exc}")
            continue
        for entry in advisories:
            if entry.component == canonical and entry.affected.matches(installed):
                audit.findings.append(
                    VersionFinding(
                        component=canonical,
                        installed=installed,
                        matched_entry=entry,
                        severity=classify_severity(entry.cvss_max),
                    )
                )
    audit.findings.sort(key=lambda f: (-f.severity, f.component))
    return audit
