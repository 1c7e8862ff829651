"""Container-image vulnerability report ingestion and aggregation.

Scan reports use a scanner-neutral schema (one JSON document per
container). Each accepted entry is classified into the five severity
classes and counted into its report's VulnTally (the container's image and
histogram, the occurrence count, the CVE-id sets) as it is read, so no
per-entry record is built. Tallies merge in input order, so a corpus is
aggregated one report at a time and memory is bounded by the largest
report. Merging adds histograms and unites id sets, so the histograms and
totals do not depend on the split or the order; a container's image is
that of its first report with an accepted entry. An entry with an
out-of-range CVSS score is left out alone, with one diagnostic line.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import NamedTuple

from .errors import AuditError, quoted
from .predicates import ANY, BOOLEAN, LIST, NONEMPTY, NUMBER, STRING, field_reader
from .severity import SeverityClass, classify_severity, empty_counts


class ImageRef(NamedTuple):
    """A container image coordinate: registry/repository:tag."""

    registry: str
    repository: str
    tag: str

    def render(self) -> str:
        return f"{self.registry}/{self.repository}:{self.tag}"


class ScanReport(NamedTuple):
    """Parsed scan report: the tally of its accepted entries plus one
    diagnostic line per individually rejected one."""

    records: VulnTally
    rejected: list[str]


# The fields of a scan report, of its image and of each of its entries.
REPORT_FIELDS = {"container": NONEMPTY, "image": ANY, "entries": LIST}
IMAGE_FIELDS = {"registry": STRING, "repository": STRING, "tag": STRING}
ENTRY_FIELDS = {
    "cve_id": NONEMPTY, "package": NONEMPTY, "installed_version": NONEMPTY,
    "fixed_version": (STRING, None), "cvss": (NUMBER, None),
    "vendor_severity": (STRING, None), "rce": (BOOLEAN, False),
}
_read_report = field_reader(REPORT_FIELDS)
_read_image = field_reader(IMAGE_FIELDS)
_read_entry = field_reader(ENTRY_FIELDS)
# Vendor ratings as scanners usually write them; other text goes to from_label.
_VENDOR_CLASSES = {c.name.lower(): c for c in SeverityClass}


def parse_scan_report(text: bytes | str, origin: str = "<report>") -> ScanReport:
    """Parse one native scan-report document read from `origin`.

    Each accepted entry is classified and counted into the report's tally
    as it is read. Unknown fields are ignored. Entries whose CVSS score is
    outside [0, 10] are rejected individually, each with the line
    `<container>: rejected entry <i>: <reason>` in `rejected`, its input
    values abridged; structural problems (missing fields, wrong shapes) raise
    AuditError, naming the entry's index for an entry.
    """
    what = f"scan report {origin}"
    try:
        raw = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except UnicodeDecodeError as exc:
        raise AuditError(f"{what}: not valid UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: a JSON syntax error or an integer literal longer than
        # the interpreter converts. RecursionError: nesting deeper than the
        # interpreter's recursion limit.
        raise AuditError(f"{what}: not valid JSON: {exc}") from exc

    def label() -> str:
        return f"{what}: entry {index}"

    container, image, entries = _read_report(raw, what, error=AuditError)
    image = ImageRef(*_read_image(image, f"{what}: image", error=AuditError))
    tally = VulnTally()
    report = ScanReport(records=tally, rejected=[])
    counts = empty_counts()
    unique, critical_rce, critical_actionable = (
        tally.unique, tally.critical_rce, tally.critical_actionable)
    for index, entry in enumerate(entries):
        cve_id, _, _, fixed, cvss, vendor, rce = _read_entry(entry, label, error=AuditError)
        # NaN fails both comparisons, so it is rejected too.
        if cvss is not None and not 0 <= cvss <= 10:
            report.rejected.append(f"{quoted(container)}: rejected entry {index}: cvss "
                                   f"{quoted(cvss)} outside [0.0, 10.0] for {quoted(cve_id)}")
            continue
        if vendor is not None:
            severity = _VENDOR_CLASSES.get(vendor)
            if severity is None:
                try:
                    severity = SeverityClass.from_label(vendor)
                except ValueError as exc:
                    raise AuditError(f"{label()}: {exc}") from exc
            vendor = severity
        severity = classify_severity(cvss, vendor)
        counts[severity] += 1
        unique.add(cve_id)
        if severity is SeverityClass.CRITICAL:
            if rce:
                critical_rce.add(cve_id)
            if fixed is not None:
                critical_actionable.add(cve_id)
    tally.occurrences = sum(counts.values())
    if tally.occurrences:  # a report with no accepted entry adds no row
        tally.containers[container] = (image, counts)
    return report


class ContainerScanSummary(NamedTuple):
    """One table row: a container with its vulnerability and misconfiguration counts."""

    container: str
    image: ImageRef | None
    vuln_histogram: Mapping[SeverityClass, int]
    misconfig_histogram: Mapping[SeverityClass, int]


class VulnTotals(NamedTuple):
    occurrences: int
    unique_cves: int
    critical_rce: int
    critical_actionable: int


class VulnTally:
    """Scan-report entries reduced to what an audit report shows of them.

    Per container, the image of its first report with an accepted entry and
    a severity histogram; overall, the occurrence count (also its `len`)
    and the distinct, critical-RCE and critical-actionable CVE ids. A plain
    class, because `merge` rebinds the count and the id sets.
    """

    __slots__ = ("containers", "occurrences", "unique", "critical_rce", "critical_actionable")

    def __init__(self) -> None:
        self.containers: dict[str, tuple[ImageRef, dict[SeverityClass, int]]] = {}
        self.occurrences = 0
        self.unique: set[str] = set()
        self.critical_rce: set[str] = set()
        self.critical_actionable: set[str] = set()

    def _state(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._state() == other._state()

    def __len__(self) -> int:
        return self.occurrences

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"VulnTally({fields})"

    def merge(self, other: VulnTally) -> VulnTally:
        """Add `other` into this tally, as if its entries came after ours."""
        for container, (image, counts) in other.containers.items():
            mine = self.containers.setdefault(container, (image, empty_counts()))[1]
            for severity, count in counts.items():
                mine[severity] += count
        self.occurrences += other.occurrences
        self.unique |= other.unique
        self.critical_rce |= other.critical_rce
        self.critical_actionable |= other.critical_actionable
        return self


def occurrence_and_unique_totals(tally: VulnTally) -> VulnTotals:
    """Occurrence and deduplicated totals of a tally.

    Both are always reported because a multi-container sum and a distinct
    CVE count answer different questions; neither substitutes for the
    other. Critical sub-counts are over distinct CVE ids.
    """
    return VulnTotals(tally.occurrences, len(tally.unique), len(tally.critical_rce),
                      len(tally.critical_actionable))
