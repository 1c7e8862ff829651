from __future__ import annotations

import io
import json
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import validate as schema_validate

from conftest import canonical_dumps, payload_of, rendered_json
from ricaudit.catalogs import data_path
from ricaudit.compliance import FrameworkScore
from ricaudit.fixtures import fixture_audit_result
from ricaudit.report import (
    JSON_SLICE,
    AuditResult,
    exit_code,
    render_json,
    render_remediations,
    render_table,
)
from ricaudit.rules import Finding
from ricaudit.severity import TABLE_ORDER, SeverityClass
from ricaudit.versions import AdvisoryEntry, VersionFinding, VersionPredicate, parse_version
from ricaudit.vulns import ContainerScanSummary, ImageRef, VulnTotals


def summary(container="c1", vuln=None, misconfig=None, image=True):
    base = {cls: 0 for cls in SeverityClass}
    return ContainerScanSummary(
        container=container,
        image=ImageRef("r.example", "app", "1") if image else None,
        vuln_histogram={**base, **(vuln or {})},
        misconfig_histogram={**base, **(misconfig or {})},
    )


def result_with(**kwargs):
    kwargs.setdefault("generated_at", "2026-01-01T00:00:00Z")
    kwargs.setdefault("tool_version", "0.1.0")
    return AuditResult(**kwargs)


class TestRenderJson:
    def test_canonical_byte_identity_modulo_timestamp(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1767225600")  # 2026-01-01T00:00:00Z
        first = rendered_json(fixture_audit_result())
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1769990400")  # 2026-02-02T00:00:00Z
        second = rendered_json(fixture_audit_result())
        assert first != second
        unstamped = [json.loads(rendered) | {"generated_at": ""} for rendered in (first, second)]
        assert unstamped[0] == unstamped[1]

    def test_equal_inputs_byte_identical(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        a = rendered_json(fixture_audit_result())
        b = rendered_json(fixture_audit_result())
        assert a == b

    def test_round_trip_structural(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        result = fixture_audit_result()
        rendered = rendered_json(result)
        parsed = json.loads(rendered)
        canonical = json.dumps(parsed, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert canonical == rendered
        assert parsed == json.loads(json.dumps(payload_of(result)))

    def test_keys_sorted_no_whitespace(self):
        rendered = rendered_json(result_with())
        assert ": " not in rendered and ", " not in rendered
        payload = json.loads(rendered)
        assert list(payload) == sorted(payload)

    def test_validates_against_shipped_schema(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        schema = json.loads(
            data_path("schema", "audit-result.schema.json").read_text(encoding="utf-8")
        )
        payload = json.loads(rendered_json(fixture_audit_result()))
        schema_validate(payload, schema)


# Text that JSON escapes (quotes, backslashes, control characters) or that the
# canonical form leaves unescaped (non-ASCII, including astral characters).
tricky_texts = st.text(st.sampled_from('"\\/\x00\x08\n\x1f\x7f\u2028é猫😀 a'), max_size=6)


@st.composite
def sized_results(draw, count: int) -> AuditResult:
    """A result with `count` findings and a few of every other record, all
    holding drawn text."""
    texts = draw(st.lists(tricky_texts, min_size=1, max_size=4))
    text = lambda i: texts[i % len(texts)]
    findings = tuple(Finding(text(i), f"ns/Pod/{text(i + 1)}{i}", SeverityClass(i % 5),
                             text(i + 2), text(i + 3)) for i in range(count))
    summaries = tuple(summary(f"{text(i)}{i}", misconfig={SeverityClass.LOW: i})
                      for i in range(draw(st.integers(0, 3))))
    scores = (FrameworkScore(text(0), draw(st.none() | st.integers(0, 100)), 1, 0),)
    return result_with(summaries=summaries, findings=findings, framework_scores=scores,
                       generated_at=text(1), tool_version=text(2))


class Writes(list):
    """A text stream that keeps each write apart."""

    write = list.append


class TestStreamedJson:
    @pytest.mark.parametrize(
        "count", [0, 1, JSON_SLICE - 1, JSON_SLICE, JSON_SLICE + 1, 2 * JSON_SLICE + 1])
    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(data=st.data())
    def test_streamed_text_equals_canonical_dumps(self, count, data):
        result = data.draw(sized_results(count))
        assert rendered_json(result) == canonical_dumps(result)

    def test_no_write_holds_more_than_one_slice(self):
        count = 5 * JSON_SLICE + 7
        result = result_with(findings=tuple(
            Finding("R", f"ns/Pod/p{i}", SeverityClass.HIGH, "m", "r") for i in range(count)))
        writes = Writes()
        render_json(result, writes)
        assert "".join(writes) == canonical_dumps(result)
        per_write = [text.count('"rule_id":') for text in writes]
        assert max(per_write) == JSON_SLICE
        assert sum(per_write) == count and per_write.count(JSON_SLICE) == 5

    def test_renders_without_building_the_whole_payload(self, monkeypatch):
        # A finding is read only when its dict is built, so the dicts of the
        # findings written so far are all that have been built at each write.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        read = []

        class Counted(Finding):
            __slots__ = ()

            @property
            def rule_id(self):
                read.append(self)
                return self[0]

        findings = tuple(Counted("R", f"ns/Pod/p{i}", SeverityClass.HIGH, "m", "r")
                         for i in range(2500))
        result = fixture_audit_result()._replace(findings=findings)
        reads_at_write = []

        class Stream(list):
            def write(self, text):
                self.append(text)
                reads_at_write.append(len(read))

        stream = Stream()
        render_json(result, stream)
        written = accumulate(text.count('"rule_id":') for text in stream)
        assert list(written) == reads_at_write
        assert len(read) == 2500
        assert "".join(stream) == canonical_dumps(result)


def table_text(result) -> str:
    """The text `render_table` writes for `result`."""
    stream = io.StringIO()
    render_table(result, stream)
    return stream.getvalue()


def table_result():
    """A result that fills every part of the table: a row with an image and
    one without, a score and an n/a score, version findings with and
    without vulnerability classes."""
    return result_with(
        summaries=(summary("row0", vuln={SeverityClass.CRITICAL: 12, SeverityClass.LOW: 3},
                           misconfig={SeverityClass.HIGH: 1}),
                   summary("a-longer-name", image=False)),
        findings=(Finding("R1", "ns/Pod/p", SeverityClass.HIGH, "m", "r"),),
        framework_scores=(FrameworkScore("nsa-cisa", 50, 4, 1), FrameworkScore("o-ran", None, 0, 3)),
        version_findings=(
            VersionFinding("c", parse_version("1.0.0"), ADVISORY, SeverityClass.HIGH),
            VersionFinding("d", parse_version("2.1.0"), ADVISORY._replace(vulnerability_classes=()),
                           SeverityClass.LOW)),
        totals=VulnTotals(15, 7, 2, 1),
    )


# The text render_table wrote for table_result() and for an empty result
# when it built the whole table before writing it.
TABLE_HEADER = """\
+---------------------------------------------------------------------------------+
| Generic Infos                          | Vulnerabilities    | Misconfigurations |
+---------------------------------------------------------------------------------+
| Container Name | Registry  | Image Tag | C  | H | M | L | N | C | H | M | L | N |
+---------------------------------------------------------------------------------+
"""
TABLE_ROWS = [
    "| row0           | r.example | app:1     | 12 | 0 | 0 | 3 | 0 | 0 | 1 | 0 | 0 | 0 |\n",
    "| a-longer-name  | -         | -         | 0  | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 | 0 |\n",
]
TABLE_FOOTER = """\
+---------------------------------------------------------------------------------+

Totals
  Vulnerability occurrences : 15
  Unique CVEs               : 7
  Critical occurrences      : 12
  Critical unique with RCE  : 2
  Critical unique actionable: 1
  Misconfiguration findings : 1

Framework compliance
  nsa-cisa              50%  (4 controls evaluated, 1 not applicable)
  o-ran                 n/a  (0 controls evaluated, 3 not applicable)

Outdated components
  c 1.0.0  [High]  1 CVEs, CVSS 5.0-5.0  (x)
  d 2.1.0  [Low]  1 CVEs, CVSS 5.0-5.0
"""
EMPTY_TABLE = """\
+-------------------------------------------------------------------------------+
| Generic Infos                         | Vulnerabilities   | Misconfigurations |
+-------------------------------------------------------------------------------+
| Container Name | Registry | Image Tag | C | H | M | L | N | C | H | M | L | N |
+-------------------------------------------------------------------------------+
| no findings                                                                   |
+-------------------------------------------------------------------------------+

Totals
  Vulnerability occurrences : 0
  Unique CVEs               : 0
  Critical occurrences      : 0
  Critical unique with RCE  : 0
  Critical unique actionable: 0
  Misconfiguration findings : 0
"""


class TestRenderTable:
    def test_text_as_before(self):
        assert table_text(table_result()) == TABLE_HEADER + "".join(TABLE_ROWS) + TABLE_FOOTER
        assert table_text(result_with()) == EMPTY_TABLE

    def test_each_row_written_alone(self):
        writes = Writes()
        assert render_table(table_result(), writes) is None
        assert writes == [TABLE_HEADER, *TABLE_ROWS, TABLE_FOOTER]

    def test_cells_equal_histograms(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        result = fixture_audit_result()
        text = table_text(result)
        for s in result.summaries:
            row = next(line for line in text.splitlines() if line.startswith(f"| {s.container} "))
            cells = [c.strip() for c in row.strip("|").split("|")]
            numbers = [int(c) for c in cells[3:13]]
            expected = [s.vuln_histogram[c] for c in TABLE_ORDER]
            expected += [s.misconfig_histogram[c] for c in TABLE_ORDER]
            assert numbers == expected

    def test_row_per_summary_in_order(self):
        result = result_with(
            summaries=(summary("a"), summary("b")), totals=VulnTotals(0, 0, 0, 0)
        )
        lines = table_text(result).splitlines()
        rows = [l for l in lines if l.startswith("| a ") or l.startswith("| b ")]
        assert len(rows) == 2

    def test_empty_result(self):
        text = table_text(result_with())
        assert "no findings" in text
        assert "Container Name" in text

    def test_totals_footer_labels_distinct(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        text = table_text(fixture_audit_result())
        assert "Vulnerability occurrences : 888" in text
        assert "Unique CVEs               : 355" in text

    def test_missing_image_rendered_as_dash(self):
        result = result_with(summaries=(summary(image=False),))
        row = next(
            line for line in table_text(result).splitlines() if line.startswith("| c1 ")
        )
        assert "| - " in row


class TestRemediations:
    def test_lists_each_rule_once(self):
        r1a = Finding("R1", "a", SeverityClass.HIGH, "m", "fix r1")
        r1b = Finding("R1", "b", SeverityClass.HIGH, "m", "fix r1")
        r2 = Finding("R2", "a", SeverityClass.LOW, "m", "fix r2")
        texts = [render_remediations(result_with(findings=findings))
                 for findings in ((r1a, r1b, r2), (r1a, r2, r1b))]
        for text in texts:
            assert text.count("R1") == 1
            assert "R1 (2 resources)" in text and "R2 (1 resources)" in text
            assert text.index("R1") < text.index("R2")
        assert texts[0] == texts[1]

    def test_clean(self):
        assert "No remediations" in render_remediations(result_with())


class TestExitCode:
    def test_empty_result_any_threshold(self):
        for threshold in SeverityClass:
            assert exit_code(result_with(), threshold) == 0

    def test_finding_at_threshold(self):
        result = result_with(findings=(Finding("R", "a", SeverityClass.HIGH, "m", "r"),))
        assert exit_code(result, SeverityClass.HIGH) == 1
        assert exit_code(result, SeverityClass.CRITICAL) == 0
        assert exit_code(result, SeverityClass.LOW) == 1

    def test_vulnerabilities_counted(self):
        result = result_with(
            summaries=(summary(vuln={SeverityClass.CRITICAL: 1}),),
            totals=VulnTotals(1, 1, 0, 0),
        )
        assert exit_code(result, SeverityClass.CRITICAL) == 1

    def test_version_findings_counted(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        result = fixture_audit_result()
        stripped = result_with(
            version_findings=result.version_findings,
        )
        assert exit_code(stripped, SeverityClass.CRITICAL) == 1  # docker advisory is Critical

    def test_monotone_in_threshold(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        result = fixture_audit_result()
        codes = [exit_code(result, threshold) for threshold in sorted(SeverityClass)]
        # Once clean at some threshold, raising it further stays clean.
        for lower, higher in zip(codes, codes[1:]):
            assert not (lower == 0 and higher == 1)


# The --fail-on classes from lowest to highest, written out here rather than
# read from the program.
FAIL_ON = ["negligible", "low", "medium", "high", "critical"]
severities = st.sampled_from(list(SeverityClass))
histograms = st.dictionaries(severities, st.integers(0, 2))
ADVISORY = AdvisoryEntry("c", VersionPredicate("<=", parse_version("1.0.0")), 1, 5.0, 5.0, ("x",))


@st.composite
def audit_results(draw):
    summaries = tuple(
        summary(f"c{i}", vuln=draw(histograms), misconfig=draw(histograms))
        for i in range(draw(st.integers(0, 3))))
    findings = tuple(Finding("R", f"ns/Pod/p{i}", severity, "m", "r")
                     for i, severity in enumerate(draw(st.lists(severities, max_size=3))))
    version_findings = tuple(VersionFinding("c", parse_version("1.0.0"), ADVISORY, severity)
                             for severity in draw(st.lists(severities, max_size=3)))
    occurrences = sum(sum(s.vuln_histogram.values()) for s in summaries)
    return result_with(summaries=summaries, findings=findings, version_findings=version_findings,
                       totals=VulnTotals(occurrences, 0, 0, 0))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(audit_results())
def test_exit_1_exactly_when_payload_holds_something_at_fail_on(result):
    payload = json.loads(rendered_json(result))
    for fail_on in FAIL_ON:
        at_or_above = set(FAIL_ON[FAIL_ON.index(fail_on):])
        expected = int(
            any(f["severity"] in at_or_above for f in payload["findings"])
            or any(c["vulnerabilities"][name] > 0
                   for c in payload["containers"] for name in at_or_above)
            or any(v["severity"] in at_or_above for v in payload["version_findings"]))
        assert exit_code(result, SeverityClass.from_label(fail_on)) == expected, fail_on
