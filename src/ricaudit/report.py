"""Report rendering: fixed-width table, canonical JSON, exit codes.

The JSON document is the stable CI contract: keys sorted, no insignificant
whitespace, byte-identical across runs for equal inputs. `generated_at` is
the one run-dependent field; pin it with SOURCE_DATE_EPOCH. `render_json`
writes it to a stream as it encodes it, each list in slices of at most
JSON_SLICE items read from an iterator, so rendering holds one slice of
text and never the whole document. A slice of containers, scores or
version findings is built as dicts just before it is encoded. Findings
come as `rules.Findings`, runs of one rule each, and a finding is written
from its run's template instead: the text of its other fields is made
once per run, from the rule, and only its resource is encoded per
finding. The remediations and the exit code read one rule per run, not
one per finding. That text is the one canonical form, and
`render_json` the one payload encoder: the fixture verifier reads the
payload back from it.
`render_table` writes to a stream too, one container row at a time, after
a first pass that keeps only the column widths.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from itertools import islice
from json.encoder import encode_basestring
from typing import TYPE_CHECKING, Any, NamedTuple, TextIO

from .severity import TABLE_ORDER, SeverityClass
from .vulns import ContainerScanSummary, VulnTotals

if TYPE_CHECKING:
    from .compliance import FrameworkScore
    from .rules import Findings, Rule
    from .versions import VersionFinding

SCHEMA_VERSION = "1"

# The canonical form: sorted keys, compact separators, text left unescaped.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)
JSON_SLICE = 100

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_TOOL_ERROR = 2


class AuditResult(NamedTuple):
    """Everything one audit run produced, ready for rendering."""

    summaries: tuple[ContainerScanSummary, ...]
    findings: Findings
    framework_scores: tuple[FrameworkScore, ...]
    version_findings: tuple[VersionFinding, ...]
    totals: VulnTotals = VulnTotals(0, 0, 0, 0)
    generated_at: str = ""
    tool_version: str = ""

    def critical_occurrences(self) -> int:
        return sum(s.vuln_histogram[SeverityClass.CRITICAL] for s in self.summaries)


def _histogram_payload(histogram: Mapping[SeverityClass, int]) -> dict[str, int]:
    return {cls.name.lower(): int(histogram.get(cls, 0)) for cls in TABLE_ORDER}


def _container_payload(s: ContainerScanSummary) -> dict[str, Any]:
    return {
        "container": s.container,
        "image": (
            {"registry": s.image.registry, "repository": s.image.repository, "tag": s.image.tag}
            if s.image
            else None
        ),
        "vulnerabilities": _histogram_payload(s.vuln_histogram),
        "misconfigurations": _histogram_payload(s.misconfig_histogram),
    }


def _finding_template(rule: Rule) -> tuple[str, str]:
    """The canonical text of a finding of `rule`: the part before its
    resource's encoded string and the part after it.

    The fields other than the resource are encoded as `key:value` pairs in
    sorted key order; those that sort before "resource" open the text, the
    others close it.
    """
    fields = {"rule_id": rule.id, "severity": rule.severity.name.lower(), "message": rule.title,
              "remediation": rule.remediation}
    head, tail = "{", ""
    for key, value in sorted(fields.items()):
        pair = _ENCODER.encode(key) + ":" + _ENCODER.encode(value)
        if key < "resource":
            head += pair + ","
        else:
            tail += "," + pair
    return head + '"resource":', tail + "}"


def _finding_texts(findings: Findings) -> Iterator[str]:
    """The text of each finding: its run's template, made once per run,
    around its encoded resource."""
    for rule, refs in findings.refs_by_rule:
        head, tail = _finding_template(rule)
        for ref in refs:
            yield head + encode_basestring(ref) + tail


def _finding_slices(findings: Findings) -> Iterator[str]:
    """The text of each slice of `findings`."""
    texts = _finding_texts(findings)
    while text := ",".join(islice(texts, JSON_SLICE)):
        yield text


def _score_payload(s: FrameworkScore) -> dict[str, Any]:
    return {
        "framework_id": s.framework_id,
        "percent": s.percent,
        "evaluated_controls": s.evaluated_controls,
        "not_applicable_controls": s.not_applicable_controls,
    }


def _version_payload(v: VersionFinding) -> dict[str, Any]:
    return {
        "component": v.component,
        "installed": str(v.installed),
        "severity": v.severity.name.lower(),
        "cve_count": v.matched_entry.cve_count,
        "cvss_min": v.matched_entry.cvss_min,
        "cvss_max": v.matched_entry.cvss_max,
        "affected": str(v.matched_entry.affected),
        "vulnerability_classes": list(v.matched_entry.vulnerability_classes),
        "recommended_min_version": (
            str(v.matched_entry.recommended_min_version)
            if v.matched_entry.recommended_min_version
            else None
        ),
    }


_Slicer = Callable[[Any], Iterator[str]]


def _dict_slices(convert: Callable[[Any], dict[str, Any]]) -> _Slicer:
    """The slicer of a list whose items `convert` makes into dicts: the dicts
    of each slice are built, encoded in one call and dropped."""

    def slices(items: Iterable[Any]) -> Iterator[str]:
        items = iter(items)
        while text := _ENCODER.encode([convert(item) for item in islice(items, JSON_SLICE)])[1:-1]:
            yield text

    return slices


# Each list in the payload: its key, the result field it lists and the text of each of its slices.
_LISTS: dict[str, tuple[str, _Slicer]] = {
    "containers": ("summaries", _dict_slices(_container_payload)),
    "findings": ("findings", _finding_slices),
    "framework_scores": ("framework_scores", _dict_slices(_score_payload)),
    "version_findings": ("version_findings", _dict_slices(_version_payload)),
}


def _scalar_payload(result: AuditResult) -> dict[str, Any]:
    """The payload's keys that hold no list."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": result.tool_version,
        "generated_at": result.generated_at,
        "totals": {
            "vulnerability_occurrences": result.totals.occurrences,
            "unique_cves": result.totals.unique_cves,
            "critical_occurrences": result.critical_occurrences(),
            "critical_rce_unique": result.totals.critical_rce,
            "critical_actionable_unique": result.totals.critical_actionable,
        },
    }


def render_json(result: AuditResult, stream: TextIO) -> None:
    """Write the canonical serialization of `result` to `stream`.

    The text is that of `json.dumps(payload, sort_keys=True, separators=(",",
    ":"), ensure_ascii=False)`, where the payload holds `_scalar_payload(result)`
    and, under each `_LISTS` key, the payload of each item of its result field.
    That payload is never built: each slice of a list is read, encoded and
    written before the next slice is read.
    """
    scalars = _scalar_payload(result)
    write = stream.write
    for i, key in enumerate(sorted([*scalars, *_LISTS])):
        write(("," if i else "{") + _ENCODER.encode(key) + ":")
        if key in scalars:
            write(_ENCODER.encode(scalars[key]))
            continue
        field, slices = _LISTS[key]
        write("[")
        separator = ""
        for text in slices(getattr(result, field)):
            write(separator + text)
            separator = ","
        write("]")
    write("}")


# --- text table -----------------------------------------------------------

_SEV_HEADERS = [cls.letter for cls in TABLE_ORDER]


def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"


def _row_cells(s: ContainerScanSummary) -> list[str]:
    registry = s.image.registry if s.image else "-"
    image_tag = f"{s.image.repository}:{s.image.tag}" if s.image else "-"
    return [s.container, registry, image_tag,
            *(str(s.vuln_histogram.get(cls, 0)) for cls in TABLE_ORDER),
            *(str(s.misconfig_histogram.get(cls, 0)) for cls in TABLE_ORDER)]


def render_table(result: AuditResult, stream: TextIO) -> None:
    """Write the fixed-width summary table plus totals and score footer lines.

    Numeric cells are exactly the histogram counts; severity columns run
    C, H, M, L, N for both groups. A first pass over the summaries keeps
    only the column widths; each row is then formatted and written alone.
    """
    headers = ["Container Name", "Registry", "Image Tag"] + _SEV_HEADERS + _SEV_HEADERS
    widths = [len(h) for h in headers]
    for s in result.summaries:
        widths = [max(w, len(c)) for w, c in zip(widths, _row_cells(s))]

    info_width = widths[0] + widths[1] + widths[2] + 2 * 3
    vuln_width = sum(widths[3:8]) + 4 * 3
    misc_width = sum(widths[8:13]) + 4 * 3
    group_line = (
        "| "
        + "Generic Infos".ljust(info_width)
        + " | "
        + "Vulnerabilities".ljust(vuln_width)
        + " | "
        + "Misconfigurations".ljust(misc_width)
        + " |"
    )
    separator = "+" + "-" * (len(group_line) - 2) + "+"

    write = stream.write
    write("\n".join([separator, group_line, separator, _format_row(headers, widths), separator, ""]))
    for s in result.summaries:
        write(_format_row(_row_cells(s), widths) + "\n")

    if result.summaries:
        lines = [separator]
    else:
        lines = ["| no findings".ljust(len(separator) - 1) + "|", separator]
    lines.append("")
    lines.append("Totals")
    lines.append(f"  Vulnerability occurrences : {result.totals.occurrences}")
    lines.append(f"  Unique CVEs               : {result.totals.unique_cves}")
    lines.append(f"  Critical occurrences      : {result.critical_occurrences()}")
    lines.append(f"  Critical unique with RCE  : {result.totals.critical_rce}")
    lines.append(f"  Critical unique actionable: {result.totals.critical_actionable}")
    lines.append(f"  Misconfiguration findings : {len(result.findings)}")

    if result.framework_scores:
        lines.append("")
        lines.append("Framework compliance")
        for score in result.framework_scores:
            percent = f"{score.percent}%" if score.percent is not None else "n/a"
            lines.append(
                f"  {score.framework_id:<20} {percent:>4}  "
                f"({score.evaluated_controls} controls evaluated, "
                f"{score.not_applicable_controls} not applicable)"
            )

    if result.version_findings:
        lines.append("")
        lines.append("Outdated components")
        for v in result.version_findings:
            classes = ", ".join(v.matched_entry.vulnerability_classes)
            lines.append(
                f"  {v.component} {v.installed}  [{v.severity.label}]  "
                f"{v.matched_entry.cve_count} CVEs, "
                f"CVSS {v.matched_entry.cvss_min}-{v.matched_entry.cvss_max}"
                + (f"  ({classes})" if classes else "")
            )

    write("\n".join(lines) + "\n")


def render_remediations(result: AuditResult) -> str:
    """The remediation step of every rule that fired, one line per run, in
    the order of the findings: worst first."""
    runs = result.findings.refs_by_rule
    if not runs:
        return "No remediations required.\n"
    lines = ["Remediations"]
    for rule, refs in runs:
        lines.append(
            f"  [{rule.severity.label}] {rule.id} ({len(refs)} resources): {rule.remediation}")
    return "\n".join(lines) + "\n"


def exit_code(result: AuditResult, fail_on: SeverityClass) -> int:
    """0 if nothing at/above the threshold, 1 otherwise.

    Exit 2 is reserved for tool errors and never returned here.
    """
    for rule, _ in result.findings.refs_by_rule:
        if rule.severity >= fail_on:
            return EXIT_FINDINGS
    for summary in result.summaries:
        for cls, count in summary.vuln_histogram.items():
            if cls >= fail_on and count > 0:
                return EXIT_FINDINGS
    for version_finding in result.version_findings:
        if version_finding.severity >= fail_on:
            return EXIT_FINDINGS
    return EXIT_CLEAN
