"""Severity classes and threat categories used throughout the toolkit.

The five severity classes form a total order (Critical > High > Medium >
Low > Negligible); the integer values encode that order so findings can be
sorted and thresholded directly. CVSS classification and per-class counts
live here too, so that a stage that needs either loads no other stage.
"""

from __future__ import annotations

from enum import Enum, IntEnum


class SeverityClass(IntEnum):
    NEGLIGIBLE = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    CRITICAL = 4

    @property
    def label(self) -> str:
        return self.name.capitalize()

    @property
    def letter(self) -> str:
        return self.name[0]

    @classmethod
    def from_label(cls, text: str) -> "SeverityClass":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown severity class: {text!r}") from None


# Column order used by the report table: C, H, M, L, N.
TABLE_ORDER = (
    SeverityClass.CRITICAL,
    SeverityClass.HIGH,
    SeverityClass.MEDIUM,
    SeverityClass.LOW,
    SeverityClass.NEGLIGIBLE,
)


def empty_counts() -> dict[SeverityClass, int]:
    """A zero-filled histogram over all five classes."""
    return {cls: 0 for cls in TABLE_ORDER}


def classify_severity(cvss: float | None, vendor: SeverityClass | None = None) -> SeverityClass:
    """Resolve a severity class from a CVSS score and a vendor rating.

    Vendor severity wins when present (scanners encode distro-specific
    adjustments). Otherwise the standard qualitative buckets apply, with
    score 0 or no score at all landing in Negligible.
    """
    if vendor is not None:
        return vendor
    if cvss is None or cvss == 0.0:
        return SeverityClass.NEGLIGIBLE
    if cvss >= 9.0:
        return SeverityClass.CRITICAL
    if cvss >= 7.0:
        return SeverityClass.HIGH
    if cvss >= 4.0:
        return SeverityClass.MEDIUM
    return SeverityClass.LOW


class ThreatCategory(Enum):
    AUTH_AND_ACCESS_CONTROL = "auth-and-access-control"
    NETWORK_SEGMENTATION = "network-segmentation"
    SUPPLY_CHAIN = "supply-chain"
    OUTDATED_COMPONENTS = "outdated-components"
