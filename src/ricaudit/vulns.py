"""Container-image vulnerability report ingestion and aggregation.

Scan reports use a scanner-neutral schema (one JSON document per
container); each entry is classified into the five severity classes at
parse time. Each report's records are folded into a VulnTally (per-container
image and histogram, occurrence count, CVE-id sets), and tallies merge in
input order, so a corpus is aggregated one report at a time and memory is
bounded by the largest report. Merging adds histograms and unites id sets,
so the histograms and totals do not depend on the split or the order; a
container's image is that of its first record in merge order.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from typing import NamedTuple

from .errors import AuditError
from .predicates import ANY, BOOLEAN, LIST, NONEMPTY, NUMBER, STRING, field_reader
from .rules import Finding, severity_histogram
from .severity import SeverityClass, empty_counts


class ImageRef(NamedTuple):
    """A container image coordinate: registry/repository:tag."""

    registry: str
    repository: str
    tag: str

    def render(self) -> str:
        return f"{self.registry}/{self.repository}:{self.tag}"

    @classmethod
    def parse(cls, text: str) -> "ImageRef":
        registry, slash, rest = text.partition("/")
        repository, colon, tag = rest.rpartition(":")
        if not (slash and colon and registry and repository and tag):
            raise ValueError(f"not a registry/repository:tag image ref: {text!r}")
        return cls(registry=registry, repository=repository, tag=tag)


class VulnRecord(NamedTuple):
    """One CVE occurrence in one container image."""

    cve_id: str
    package: str
    installed_version: str
    fixed_version: str | None
    cvss: float | None
    vendor_severity: SeverityClass | None
    severity: SeverityClass
    remote_code_execution: bool
    container: str
    image: ImageRef

    @property
    def actionable(self) -> bool:
        return self.fixed_version is not None


def classify_severity(
    cvss: float | None, vendor: SeverityClass | None = None
) -> SeverityClass:
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


class RejectedEntry(NamedTuple):
    index: int
    reason: str


class ScanReport(NamedTuple):
    """Parsed scan report: accepted records plus individually rejected entries."""

    container: str
    image: ImageRef
    records: list[VulnRecord]
    rejected: list[RejectedEntry]


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

    Unknown fields are ignored. Entries whose CVSS score is outside
    [0, 10] are rejected individually and reported; structural problems
    (missing fields, wrong shapes) raise AuditError, naming the entry's
    index for an entry.
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
    report = ScanReport(container=container, image=image, records=[], rejected=[])
    records = report.records
    for index, entry in enumerate(entries):
        cve_id, package, installed, fixed, cvss, vendor, rce = _read_entry(
            entry, label, error=AuditError)
        if cvss is not None:
            # Checked before float(), which overflows on a huge JSON integer.
            if not 0 <= cvss <= 10:
                report.rejected.append(
                    RejectedEntry(index, f"cvss {cvss} outside [0.0, 10.0] for {cve_id}")
                )
                continue
            cvss = float(cvss)
        if vendor is not None:
            severity = _VENDOR_CLASSES.get(vendor)
            if severity is None:
                try:
                    severity = SeverityClass.from_label(vendor)
                except ValueError as exc:
                    raise AuditError(f"{label()}: {exc}") from exc
            vendor = severity
        records.append(VulnRecord(
            cve_id, package, installed, fixed, cvss, vendor,
            classify_severity(cvss, vendor), rce, container, image,
        ))
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
    """A record set reduced to what a report shows of it, holding no record.

    Per container, the image of its first record and a severity histogram;
    overall, the occurrence count and the distinct, critical-RCE and
    critical-actionable CVE ids. A plain class, because `merge` rebinds the
    count and the id sets.
    """

    __slots__ = ("containers", "occurrences", "unique", "critical_rce", "critical_actionable")

    def __init__(self, occurrences: int = 0) -> None:
        self.containers: dict[str, tuple[ImageRef, dict[SeverityClass, int]]] = {}
        self.occurrences = occurrences
        self.unique: set[str] = set()
        self.critical_rce: set[str] = set()
        self.critical_actionable: set[str] = set()

    def _state(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._state() == other._state()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"VulnTally({fields})"

    def merge(self, other: VulnTally) -> VulnTally:
        """Add `other` into this tally, as if its records came after ours."""
        for container, (image, counts) in other.containers.items():
            mine = self.containers.setdefault(container, (image, empty_counts()))[1]
            for severity, count in counts.items():
                mine[severity] += count
        self.occurrences += other.occurrences
        self.unique |= other.unique
        self.critical_rce |= other.critical_rce
        self.critical_actionable |= other.critical_actionable
        return self

    def summaries(
        self, misconfig_findings_by_container: Mapping[str, Sequence[Finding]] | None = None
    ) -> list[ContainerScanSummary]:
        """One row per container of the records or of the misconfiguration
        map (so a manifest-only audit has rows too), sorted by name."""
        misconfig = misconfig_findings_by_container or {}
        rows = []
        for container in sorted(self.containers.keys() | misconfig.keys()):
            image, counts = self.containers.get(container, (None, empty_counts()))
            rows.append(ContainerScanSummary(
                container, image, dict(counts), severity_histogram(misconfig.get(container, []))))
        return rows


def aggregate_by_container(records: Sequence[VulnRecord]) -> VulnTally:
    """Tally a record set in one pass, looking a container's histogram up
    once per run of consecutive records that share the container."""
    tally = VulnTally(occurrences=len(records))
    container, counts = object(), None  # the first record starts a run
    for record in records:
        if record.container != container:
            container = record.container
            entry = tally.containers.get(container)
            if entry is None:
                entry = tally.containers[container] = (record.image, empty_counts())
            counts = entry[1]
        counts[record.severity] += 1
        tally.unique.add(record.cve_id)
        if record.severity is SeverityClass.CRITICAL:
            if record.remote_code_execution:
                tally.critical_rce.add(record.cve_id)
            if record.actionable:
                tally.critical_actionable.add(record.cve_id)
    return tally


def occurrence_and_unique_totals(tally: VulnTally) -> VulnTotals:
    """Occurrence and deduplicated totals of a tally.

    Both are always reported because a multi-container sum and a distinct
    CVE count answer different questions; neither substitutes for the
    other. Critical sub-counts are over distinct CVE ids.
    """
    return VulnTotals(tally.occurrences, len(tally.unique), len(tally.critical_rce),
                      len(tally.critical_actionable))
