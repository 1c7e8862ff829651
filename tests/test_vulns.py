from __future__ import annotations

import itertools
import json
import tracemalloc
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from ricaudit.cli import main
from ricaudit.errors import AuditError, quoted
from ricaudit.manifests import ResourceDocument
from ricaudit.pipeline import audit, build_result
from conftest import rule_of
from ricaudit.rules import Findings
from ricaudit.severity import SeverityClass, classify_severity, empty_counts
from ricaudit.vulns import (
    ImageRef,
    VulnTally,
    occurrence_and_unique_totals,
    parse_scan_report,
)


class TestImageRef:
    @pytest.mark.parametrize("text, parts", [
        pytest.param(text, parts, id=text) for text, parts in [
            ("nexus3.o-ran-sc.org:10002/ric-plt-e2:6.0.3",
             ("nexus3.o-ran-sc.org:10002", "ric-plt-e2", "6.0.3")),
            ("Docker.io/influxdb:2.2.0-alpine", ("Docker.io", "influxdb", "2.2.0-alpine")),
            ("registry.k8s.io/staging/app:1.2.3", ("registry.k8s.io", "staging/app", "1.2.3")),
        ]
    ])
    def test_render(self, text, parts):
        assert ImageRef(*parts).render() == text


class TestClassifySeverity:
    @pytest.mark.parametrize(
        "cvss,vendor,expected",
        [
            (9.8, None, SeverityClass.CRITICAL),
            (None, SeverityClass.HIGH, SeverityClass.HIGH),
            (6.9, None, SeverityClass.MEDIUM),
            (7.0, None, SeverityClass.HIGH),
            (9.0, None, SeverityClass.CRITICAL),
            (4.0, None, SeverityClass.MEDIUM),
            (3.9, None, SeverityClass.LOW),
            (0.1, None, SeverityClass.LOW),
            (0.0, None, SeverityClass.NEGLIGIBLE),
            (None, None, SeverityClass.NEGLIGIBLE),
            (10.0, None, SeverityClass.CRITICAL),
            (2.3, SeverityClass.NEGLIGIBLE, SeverityClass.NEGLIGIBLE),
            (9.9, SeverityClass.LOW, SeverityClass.LOW),
        ],
    )
    def test_buckets_and_vendor_precedence(self, cvss, vendor, expected):
        assert classify_severity(cvss, vendor) is expected

    def test_monotone_on_grid(self):
        previous = SeverityClass.NEGLIGIBLE
        for i in range(101):
            current = classify_severity(i / 10)
            assert current >= previous
            previous = current


def report_payload(entries, container="c1", tag="1"):
    return json.dumps(
        {
            "container": container,
            "image": {"registry": "r.example", "repository": "app", "tag": tag},
            "entries": entries,
        }
    )


def histogram(report):
    """The histogram of the one container row a report's tally holds."""
    [(_, counts)] = report.records.containers.values()
    return counts


def one_in(severity):
    return {**empty_counts(), severity: 1}


def fold(texts):
    """The tally of scan-report documents, merged in the order given."""
    tally = VulnTally()
    for text in texts:
        tally.merge(parse_scan_report(text).records)
    return tally


def fixture_tally(scan_report_paths):
    return fold(path.read_bytes() for path in scan_report_paths)


class TestParseScanReport:
    def test_zero_entries(self):
        report = parse_scan_report(report_payload([]))
        assert report.records == VulnTally()
        assert report.records.containers == {}
        assert report.rejected == []

    def test_bundled_influxdb_fixture(self, scan_report_paths):
        path = next(p for p in scan_report_paths if p.name == "influxdb2.json")
        report = parse_scan_report(path.read_bytes())
        assert len(report.records) == 84
        assert histogram(report) == {
            SeverityClass.CRITICAL: 10,
            SeverityClass.HIGH: 44,
            SeverityClass.MEDIUM: 28,
            SeverityClass.LOW: 2,
            SeverityClass.NEGLIGIBLE: 0,
        }

    def test_out_of_range_cvss_rejected_individually(self):
        entries = [
            {"cve_id": "CVE-1", "package": "p", "installed_version": "1", "cvss": 11.0},
            {"cve_id": "CVE-2", "package": "p", "installed_version": "1", "cvss": 5.0},
        ]
        report = parse_scan_report(report_payload(entries))
        assert report.records.unique == {"CVE-2"}
        assert histogram(report) == one_in(SeverityClass.MEDIUM)
        assert report.rejected == ["'c1': rejected entry 0: cvss 11.0 outside [0.0, 10.0] for 'CVE-1'"]

    @pytest.mark.parametrize("cvss", [11.0, -0.5, 10.01, float("nan"), float("inf"),
                                      float("-inf"), 10**400], ids=repr)
    def test_one_entry_with_a_bad_cvss_adds_nothing(self, cvss):
        # json.dumps writes NaN and Infinity, which json.loads reads back.
        report = parse_scan_report(report_payload([{**self.ENTRY, "cvss": cvss}]))
        assert report.records == VulnTally()
        assert report.rejected == [
            f"'c1': rejected entry 0: cvss {quoted(cvss)} outside [0.0, 10.0] for 'CVE-1'"]

    def test_rejected_entries_keep_entry_order(self):
        cvss_values = [5.0, 11.0, 9.5, float("nan"), None, -1, 10**30]
        entries = [{**self.ENTRY, "cve_id": f"CVE-{i}", "cvss": cvss}
                   for i, cvss in enumerate(cvss_values)]
        report = parse_scan_report(report_payload(entries))
        assert report.rejected == [
            "'c1': rejected entry 1: cvss 11.0 outside [0.0, 10.0] for 'CVE-1'",
            "'c1': rejected entry 3: cvss nan outside [0.0, 10.0] for 'CVE-3'",
            "'c1': rejected entry 5: cvss -1 outside [0.0, 10.0] for 'CVE-5'",
            f"'c1': rejected entry 6: cvss {10**30} outside [0.0, 10.0] for 'CVE-6'",
        ]
        assert report.records.unique == {"CVE-0", "CVE-2", "CVE-4"}
        assert len(report.records) == 3

    def test_missing_field_names_entry_index(self):
        entries = [{"cve_id": "CVE-1", "package": "p", "installed_version": "1"},
                   {"package": "p", "installed_version": "1"}]
        with pytest.raises(AuditError,
                           match=r"^scan report <report>: entry 1: missing field 'cve_id'$"):
            parse_scan_report(report_payload(entries))

    def test_unknown_fields_ignored(self):
        entries = [{"cve_id": "CVE-1", "package": "p", "installed_version": "1",
                    "cvss": 5.0, "exploit_maturity": "poc"}]
        payload = json.loads(report_payload(entries))
        payload["scanner"] = "fixture"
        report = parse_scan_report(json.dumps(payload))
        assert len(report.records) == 1

    def test_severity_resolved_at_parse(self):
        entries = [
            {"cve_id": "CVE-1", "package": "p", "installed_version": "1", "cvss": 9.5},
            {"cve_id": "CVE-2", "package": "p", "installed_version": "1",
             "cvss": 2.0, "vendor_severity": "negligible"},
        ]
        report = parse_scan_report(report_payload(entries))
        assert histogram(report) == {
            **empty_counts(), SeverityClass.CRITICAL: 1, SeverityClass.NEGLIGIBLE: 1}

    @pytest.mark.parametrize("cvss, vendor, expected", [
        (9.8, None, SeverityClass.CRITICAL),
        (None, "high", SeverityClass.HIGH),
        (6.9, None, SeverityClass.MEDIUM),
        (7, None, SeverityClass.HIGH),
        (9.0, None, SeverityClass.CRITICAL),
        (4.0, None, SeverityClass.MEDIUM),
        (3.9, None, SeverityClass.LOW),
        (0.1, None, SeverityClass.LOW),
        (0, None, SeverityClass.NEGLIGIBLE),
        (None, None, SeverityClass.NEGLIGIBLE),
        (10, None, SeverityClass.CRITICAL),
        (2.3, "negligible", SeverityClass.NEGLIGIBLE),
        (9.9, "low", SeverityClass.LOW),
    ])
    def test_one_entry_lands_in_its_class(self, cvss, vendor, expected):
        # Vendor severity wins; otherwise the CVSS buckets, integer scores included.
        report = parse_scan_report(report_payload(
            [{**self.ENTRY, "cvss": cvss, "vendor_severity": vendor}]))
        assert histogram(report) == one_in(expected)

    def test_not_json(self):
        with pytest.raises(AuditError, match=r"^scan report <report>: not valid JSON: "):
            parse_scan_report(b"kind: nope")

    def test_nesting_beyond_recursion_limit(self):
        with pytest.raises(AuditError, match=r"^scan report <report>: not valid JSON: ") as exc:
            parse_scan_report("[" * 100_000 + "]" * 100_000)
        assert "\n" not in str(exc.value)

    def test_bad_vendor_label(self):
        entries = [{"cve_id": "CVE-1", "package": "p", "installed_version": "1",
                    "vendor_severity": "catastrophic"}]
        with pytest.raises(AuditError, match=r"^scan report <report>: entry 0: unknown severity "
                                             r"class: 'catastrophic'$"):
            parse_scan_report(report_payload(entries))

    ENTRY = {"cve_id": "CVE-1", "package": "p", "installed_version": "1"}

    @pytest.mark.parametrize("index, field, message", [
        (3, {"cvss": "high"}, "scan report r.json: entry 3: cvss must be a number"),
        (3, {"cvss": True}, "scan report r.json: entry 3: cvss must be a number"),
        (5, {"vendor_severity": "bogus"},
         "scan report r.json: entry 5: unknown severity class: 'bogus'"),
        (4, {"vendor_severity": ""}, "scan report r.json: entry 4: unknown severity class: ''"),
        (1, {"cve_id": None}, "scan report r.json: entry 1: cve_id must be a non-empty string"),
    ])
    def test_diagnostic_names_report_and_entry(self, index, field, message):
        entries = [self.ENTRY] * index + [{**self.ENTRY, **field}, self.ENTRY]
        with pytest.raises(AuditError) as exc:
            parse_scan_report(report_payload(entries), origin="r.json")
        assert str(exc.value) == message

    def test_bad_entry_after_accepted_ones_exits_2(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(report_payload([self.ENTRY] * 3 + [{**self.ENTRY, "cvss": "high"}]))
        assert main(["vulns", "--scan-report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ricaudit: scan report {path}: entry 3: cvss must be a number\n"

    def test_entry_not_a_mapping_names_its_index(self):
        with pytest.raises(AuditError) as exc:
            parse_scan_report(report_payload([self.ENTRY] * 2 + [[1]]), origin="r.json")
        assert str(exc.value) == "scan report r.json: entry 2 must be a mapping, got [1]"

    @pytest.mark.parametrize("label, expected", [
        (" Critical ", SeverityClass.CRITICAL), ("HIGH", SeverityClass.HIGH),
        ("negligible", SeverityClass.NEGLIGIBLE), ("Low", SeverityClass.LOW),
    ])
    def test_vendor_label_read_as_from_label_reads_it(self, label, expected):
        entries = [{**self.ENTRY, "cvss": 9.9, "vendor_severity": label}]
        assert histogram(parse_scan_report(report_payload(entries))) == one_in(expected)


class Entry(NamedTuple):
    """What a generated scan-report entry says, with the report it sits in."""

    cve_id: str
    container: str
    severity: SeverityClass = SeverityClass.MEDIUM
    rce: bool = False
    fixed: str | None = None
    tag: str = "1"
    cvss: float | None = None


def reports_of(entries):
    """One scan-report document per run of entries that share container and tag."""
    texts = []
    for (container, tag), run in itertools.groupby(entries, lambda e: (e.container, e.tag)):
        texts.append(report_payload([
            {"cve_id": e.cve_id, "package": "pkg", "installed_version": "1.0",
             "fixed_version": e.fixed, "cvss": e.cvss, "vendor_severity": e.severity.name.lower(),
             "rce": e.rce}
            for e in run
        ], container, tag))
    return texts


class TestAggregation:
    def test_full_fixture_reproduces_all_rows(self, scan_report_paths):
        containers = fixture_tally(scan_report_paths).containers
        cells = {
            container: tuple(counts[c] for c in sorted(SeverityClass, reverse=True))
            for container, (_, counts) in containers.items()
        }
        assert cells == {
            "ricplt-dbass-redis": (6, 14, 26, 2, 0),
            "influxdb2": (10, 44, 28, 2, 0),
            "ricplt-e2term": (0, 0, 30, 31, 13),
            "ricplt-rtmgr": (0, 10, 119, 43, 19),
            "ricplt-e2mgr": (0, 4, 115, 43, 19),
            "ricplt-submgr": (0, 10, 119, 43, 19),
            "ricplt-appmgr": (0, 8, 36, 24, 19),
            "ricplt-a1mediator": (0, 9, 8, 8, 7),
        }
        critical_total = sum(counts[SeverityClass.CRITICAL] for _, counts in containers.values())
        assert critical_total == 16

    def test_single_container(self):
        containers = fold(reports_of([Entry("CVE-1", "only")])).containers
        assert list(containers) == ["only"]
        assert sum(containers["only"][1].values()) == 1

    def test_histogram_sums_match_record_counts(self, scan_report_paths):
        for path in scan_report_paths:
            report = parse_scan_report(path.read_bytes())
            entries = json.loads(path.read_bytes())["entries"]
            assert sum(histogram(report).values()) == len(report.records)
            assert len(report.records) == len(entries) - len(report.rejected)

    def test_misconfig_only_container_gets_row(self):
        # Rows come from the tally and from the misconfiguration counts, sorted by name.
        findings = Findings([(rule_of("R", SeverityClass.LOW), ["ns/Pod/x"])])
        pod = ResourceDocument("Pod", "ns", "appx", "ns/Pod/x", None)
        tally = fold(reports_of([Entry("CVE-1", "b")]))
        summaries = build_result(tally=tally, findings=findings, resources=[pod]).summaries
        assert [s.container for s in summaries] == ["appx", "b"]
        assert summaries[0].image is None
        assert summaries[0].misconfig_histogram == one_in(SeverityClass.LOW)
        assert summaries[0].vuln_histogram == empty_counts()
        assert summaries[1].image == ImageRef("r.example", "app", "1")
        assert summaries[1].misconfig_histogram == empty_counts()
        assert summaries[1].vuln_histogram == one_in(SeverityClass.MEDIUM)

    def test_rows_without_findings_share_one_zero_histogram(self, scan_report_paths):
        summaries = audit(scan_reports=scan_report_paths).summaries
        assert len(summaries) > 1
        assert len({id(s.misconfig_histogram) for s in summaries}) == 1
        assert summaries[0].misconfig_histogram == empty_counts()

    def test_interleaved_containers_match_a_per_record_fold(self):
        # Reports of containers A, B, A, C, B: a container that comes back
        # after another container's report keeps the image of its first report.
        crit, low = SeverityClass.CRITICAL, SeverityClass.LOW
        runs = [("A", "1", [crit, low]), ("B", "1", [low]), ("A", "2", [crit, crit]),
                ("C", "1", [low]), ("B", "2", [crit])]
        entries = [
            Entry(f"CVE-{n}", container, severity, rce=n % 2 == 0, fixed="2" if n % 3 else None,
                  tag=tag)
            for n, (container, tag, severity) in enumerate(
                (container, tag, severity) for container, tag, severities in runs
                for severity in severities)
        ]
        texts = reports_of(entries)
        assert len(texts) == len(runs)
        tally = fold(texts)
        # Brute force: one report per entry.
        assert tally == fold(text for one in entries for text in reports_of([one]))
        assert {c: (image.tag, counts[crit], counts[low])
                for c, (image, counts) in tally.containers.items()} == {
            "A": ("1", 3, 1), "B": ("1", 1, 1), "C": ("1", 0, 1)}

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 9),
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from(list(SeverityClass)),
            ),
            max_size=40,
        ),
        st.integers(0, 40),
    )
    def test_partition_stable(self, raw, split):
        entries = [Entry(f"CVE-{n}", container, sev) for n, container, sev in raw]
        split = min(split, len(entries))
        merged: dict[str, dict] = {}
        for part in (entries[:split], entries[split:]):
            for container, counts in histograms(fold(reports_of(part))).items():
                bucket = merged.setdefault(container, empty_counts())
                for cls, count in counts.items():
                    bucket[cls] += count
        whole = histograms(fold(reports_of(entries)))
        assert merged == whole


class TestTotals:
    def test_same_cve_in_three_containers(self):
        entries = [Entry("CVE-1", c) for c in ("a", "b", "c")]
        totals = occurrence_and_unique_totals(fold(reports_of(entries)))
        assert totals.occurrences == 3
        assert totals.unique_cves == 1

    def test_empty(self):
        assert occurrence_and_unique_totals(VulnTally()) == (0, 0, 0, 0)

    def test_unique_never_exceeds_occurrences(self, scan_report_paths):
        totals = occurrence_and_unique_totals(fixture_tally(scan_report_paths))
        assert totals.unique_cves <= totals.occurrences

    def test_critical_sub_counts_are_distinct_ids(self):
        entries = [
            Entry("CVE-C", "a", SeverityClass.CRITICAL, rce=True, fixed="2.0"),
            Entry("CVE-C", "b", SeverityClass.CRITICAL, rce=True, fixed="2.0"),
            Entry("CVE-D", "a", SeverityClass.CRITICAL, rce=False, fixed=None),
            Entry("CVE-E", "a", SeverityClass.HIGH, rce=True, fixed="2.0"),
        ]
        totals = occurrence_and_unique_totals(fold(reports_of(entries)))
        assert totals == (4, 3, 1, 1)

    def test_fixture_totals(self, scan_report_paths):
        totals = occurrence_and_unique_totals(fixture_tally(scan_report_paths))
        assert totals.occurrences == 888
        assert totals.unique_cves == 355
        assert totals.critical_rce == 10
        assert totals.critical_actionable == 13


entries_st = st.lists(
    st.builds(
        Entry,
        cve_id=st.sampled_from([f"CVE-{n}" for n in range(8)]),
        container=st.sampled_from(["a", "b", "c"]),
        severity=st.sampled_from(list(SeverityClass)),
        rce=st.booleans(),
        fixed=st.sampled_from([None, "2.0"]),
        tag=st.sampled_from("123"),
        cvss=st.sampled_from([None, 5.0, 11.0]),  # vendor severity wins; 11.0 is rejected
    ),
    max_size=40,
)


def rows(tally):
    return [(container, image, dict(counts))
            for container, (image, counts) in sorted(tally.containers.items())]


def histograms(tally):
    return {container: counts for container, (_, counts) in tally.containers.items()}


def expected_rows_and_totals(entries):
    """What the tally must hold, counted straight from the entries."""
    accepted = [e for e in entries if e.cvss is None or 0 <= e.cvss <= 10]
    by_container = {}
    for e in accepted:
        image, counts = by_container.setdefault(
            e.container, (ImageRef("r.example", "app", e.tag), empty_counts()))
        counts[e.severity] += 1
    critical = [e for e in accepted if e.severity is SeverityClass.CRITICAL]
    totals = (
        len(accepted),
        len({e.cve_id for e in accepted}),
        len({e.cve_id for e in critical if e.rce}),
        len({e.cve_id for e in critical if e.fixed is not None}),
    )
    return [(c, *by_container[c]) for c in sorted(by_container)], totals


class TestTally:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(entries_st, st.lists(st.integers(0, 40), max_size=5))
    def test_any_split_merges_to_the_whole(self, entries, cuts):
        bounds = [0, *sorted(min(cut, len(entries)) for cut in cuts), len(entries)]
        folded = VulnTally()
        for lo, hi in zip(bounds, bounds[1:]):
            folded.merge(fold(reports_of(entries[lo:hi])))
        whole = fold(reports_of(entries))
        expected_rows, expected_totals = expected_rows_and_totals(entries)
        assert rows(folded) == rows(whole) == expected_rows
        totals = occurrence_and_unique_totals(folded)
        assert totals == occurrence_and_unique_totals(whole) == expected_totals
        # Histogram conservation: every accepted entry lands in exactly one cell.
        assert sum(sum(row[2].values()) for row in rows(folded)) == totals.occurrences

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.lists(entries_st, max_size=6), st.data())
    def test_report_order_changes_no_histogram_or_total(self, groups, data):
        texts = [text for entries in groups for text in reports_of(entries)]
        order = data.draw(st.permutations(range(len(texts))))
        given_order, reordered = fold(texts), fold([texts[i] for i in order])
        assert histograms(given_order) == histograms(reordered)
        assert (occurrence_and_unique_totals(given_order)
                == occurrence_and_unique_totals(reordered))

    def test_fresh_tally_equals_a_fresh_tally_and_len_is_occurrences(self):
        assert VulnTally() == VulnTally()
        assert len(VulnTally()) == VulnTally().occurrences == 0
        entries = [Entry("CVE-1", "a"), Entry("CVE-1", "a"), Entry("CVE-2", "b", cvss=11.0)]
        tally = fold(reports_of(entries))
        assert tally != VulnTally()
        assert len(tally) == tally.occurrences == 2
        assert len(tally.merge(fold(reports_of(entries)))) == 4


def write_report(path, container, tag, cvss_values):
    entries = [{"cve_id": f"CVE-{i}", "package": "p", "installed_version": "1", "cvss": cvss}
               for i, cvss in enumerate(cvss_values)]
    path.write_text(report_payload(entries, container, tag))
    return path


class TestFold:
    def test_edge_cases_of_folding_reports(self, tmp_path):
        paths = [
            write_report(tmp_path / "0.json", "c", "0", []),  # no entry
            write_report(tmp_path / "1.json", "c", "1", [11.0, 12.0]),  # nothing accepted
            write_report(tmp_path / "2.json", "c", "2", [9.5]),
            write_report(tmp_path / "3.json", "d", "1", [11.0]),  # nothing accepted
            write_report(tmp_path / "4.json", "c", "3", [5.0, 13.0]),
        ]
        lines = []
        result = audit(scan_reports=paths, diag=lines.append)
        # The image of "c" is that of its first report with an accepted entry;
        # "d" has no row.
        assert [(s.container, s.image.tag, s.vuln_histogram[SeverityClass.CRITICAL],
                 sum(s.vuln_histogram.values())) for s in result.summaries] == [("c", "2", 1, 2)]
        assert result.totals == (2, 1, 0, 0)  # CVE-0 twice
        assert lines == [
            "'c': rejected entry 0: cvss 11.0 outside [0.0, 10.0] for 'CVE-0'",
            "'c': rejected entry 1: cvss 12.0 outside [0.0, 10.0] for 'CVE-1'",
            "'d': rejected entry 0: cvss 11.0 outside [0.0, 10.0] for 'CVE-0'",
            "'c': rejected entry 1: cvss 13.0 outside [0.0, 10.0] for 'CVE-1'",
        ]

    def test_audit_memory_bounded_by_largest_report(self, tmp_path, scan_report_paths):
        texts = [path.read_bytes() for path in scan_report_paths]

        def corpus(copies):
            directory = tmp_path / str(copies)
            directory.mkdir()
            paths = []
            for copy in range(copies):
                for i, text in enumerate(texts):
                    paths.append(directory / f"{copy}-{i}.json")
                    paths[-1].write_bytes(text)
            return paths

        def peak(paths):
            tracemalloc.start()
            try:
                audit(scan_reports=paths)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = corpus(4), corpus(40)
        peak(small)  # warm up: first-call allocations are not the corpus's
        assert peak(large) < 2 * peak(small)
