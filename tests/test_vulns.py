from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ricaudit.errors import AuditError
from ricaudit.pipeline import audit
from ricaudit.severity import SeverityClass, empty_counts
from ricaudit.vulns import (
    ImageRef,
    VulnRecord,
    VulnTally,
    aggregate_by_container,
    classify_severity,
    occurrence_and_unique_totals,
    parse_scan_report,
)


class TestImageRef:
    @pytest.mark.parametrize(
        "text",
        [
            "nexus3.o-ran-sc.org:10002/ric-plt-e2:6.0.3",
            "Docker.io/influxdb:2.2.0-alpine",
            "registry.k8s.io/staging/app:1.2.3",
        ],
    )
    def test_parse_render_round_trip(self, text):
        ref = ImageRef.parse(text)
        assert ref.render() == text
        assert ImageRef.parse(ref.render()) == ref

    def test_registry_with_port_survives(self):
        ref = ImageRef.parse("nexus3.o-ran-sc.org:10002/ric-plt-e2:6.0.3")
        assert ref.registry == "nexus3.o-ran-sc.org:10002"
        assert ref.repository == "ric-plt-e2"
        assert ref.tag == "6.0.3"

    def test_malformed(self):
        with pytest.raises(ValueError):
            ImageRef.parse("influxdb")


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


def report_payload(entries, container="c1"):
    return json.dumps(
        {
            "container": container,
            "image": {"registry": "r.example", "repository": "app", "tag": "1"},
            "entries": entries,
        }
    )


class TestParseScanReport:
    def test_zero_entries(self):
        report = parse_scan_report(report_payload([]))
        assert report.records == []
        assert report.rejected == []

    def test_bundled_influxdb_fixture(self, scan_report_paths):
        path = next(p for p in scan_report_paths if p.name == "influxdb2.json")
        report = parse_scan_report(path.read_bytes())
        assert len(report.records) == 84
        summary = aggregate_by_container(report.records).summaries()[0]
        assert summary.vuln_histogram == {
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
        assert [r.cve_id for r in report.records] == ["CVE-2"]
        assert len(report.rejected) == 1
        assert report.rejected[0].index == 0

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
        assert report.records[0].severity is SeverityClass.CRITICAL
        assert report.records[1].severity is SeverityClass.NEGLIGIBLE

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
        record = parse_scan_report(report_payload(entries)).records[0]
        assert record.vendor_severity is record.severity is expected


def record(cve_id, container, severity=SeverityClass.MEDIUM, rce=False, fixed=None,
           image=ImageRef("r.example", "app", "1")):
    return VulnRecord(
        cve_id=cve_id,
        package="pkg",
        installed_version="1.0",
        fixed_version=fixed,
        cvss=None,
        vendor_severity=severity,
        severity=severity,
        remote_code_execution=rce,
        container=container,
        image=image,
    )


class TestAggregation:
    def test_full_fixture_reproduces_all_rows(self, scan_report_paths):
        records = [
            r for path in scan_report_paths for r in parse_scan_report(path.read_bytes()).records
        ]
        summaries = aggregate_by_container(records).summaries()
        assert [s.container for s in summaries] == sorted(s.container for s in summaries)
        cells = {
            s.container: tuple(s.vuln_histogram[c] for c in sorted(SeverityClass, reverse=True))
            for s in summaries
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
        critical_total = sum(s.vuln_histogram[SeverityClass.CRITICAL] for s in summaries)
        assert critical_total == 16

    def test_single_container(self):
        summaries = aggregate_by_container([record("CVE-1", "only")]).summaries()
        assert len(summaries) == 1
        assert summaries[0].container == "only"
        assert sum(summaries[0].vuln_histogram.values()) == 1

    def test_histogram_sums_match_record_counts(self, scan_report_paths):
        for path in scan_report_paths:
            report = parse_scan_report(path.read_bytes())
            summary = aggregate_by_container(report.records).summaries()[0]
            assert sum(summary.vuln_histogram.values()) == len(report.records)

    def test_misconfig_only_container_gets_row(self):
        from ricaudit.rules import Finding

        finding = Finding("R", "ns/Pod/x", SeverityClass.LOW, "m", "r")
        summaries = aggregate_by_container([]).summaries({"appx": [finding]})
        assert summaries[0].container == "appx"
        assert summaries[0].image is None
        assert summaries[0].misconfig_histogram[SeverityClass.LOW] == 1
        assert summaries[0].vuln_histogram == empty_counts()

    def test_interleaved_containers_match_a_per_record_fold(self):
        # Runs of containers A, B, A, C, B: a container that comes back after
        # another container's records keeps the image of its first record.
        crit, low = SeverityClass.CRITICAL, SeverityClass.LOW
        runs = [("A", "1", [crit, low]), ("B", "1", [low]), ("A", "2", [crit, crit]),
                ("C", "1", [low]), ("B", "2", [crit])]
        records = [
            record(f"CVE-{n}", container, severity, rce=n % 2 == 0, fixed="2" if n % 3 else None,
                   image=ImageRef("r.example", container.lower(), tag))
            for n, (container, tag, severity) in enumerate(
                (container, tag, severity) for container, tag, severities in runs
                for severity in severities)
        ]
        tally = aggregate_by_container(records)
        expected = VulnTally()
        for one in records:  # brute force: one record at a time
            expected.merge(aggregate_by_container([one]))
        assert tally == expected
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
        records = [record(f"CVE-{n}", container, sev) for n, container, sev in raw]
        split = min(split, len(records))
        merged: dict[str, dict] = {}
        for part in (records[:split], records[split:]):
            for summary in aggregate_by_container(part).summaries():
                bucket = merged.setdefault(summary.container, empty_counts())
                for cls, count in summary.vuln_histogram.items():
                    bucket[cls] += count
        whole = {s.container: dict(s.vuln_histogram) for s in aggregate_by_container(records).summaries()}
        assert merged == whole


class TestTotals:
    def test_same_cve_in_three_containers(self):
        records = [record("CVE-1", c) for c in ("a", "b", "c")]
        totals = occurrence_and_unique_totals(aggregate_by_container(records))
        assert totals.occurrences == 3
        assert totals.unique_cves == 1

    def test_empty(self):
        assert occurrence_and_unique_totals(aggregate_by_container([])) == (0, 0, 0, 0)

    def test_unique_never_exceeds_occurrences(self, scan_report_paths):
        records = [
            r for path in scan_report_paths for r in parse_scan_report(path.read_bytes()).records
        ]
        totals = occurrence_and_unique_totals(aggregate_by_container(records))
        assert totals.unique_cves <= totals.occurrences

    def test_critical_sub_counts_are_distinct_ids(self):
        records = [
            record("CVE-C", "a", SeverityClass.CRITICAL, rce=True, fixed="2.0"),
            record("CVE-C", "b", SeverityClass.CRITICAL, rce=True, fixed="2.0"),
            record("CVE-D", "a", SeverityClass.CRITICAL, rce=False, fixed=None),
        ]
        totals = occurrence_and_unique_totals(aggregate_by_container(records))
        assert totals == (3, 2, 1, 1)

    def test_fixture_totals(self, scan_report_paths):
        records = [
            r for path in scan_report_paths for r in parse_scan_report(path.read_bytes()).records
        ]
        totals = occurrence_and_unique_totals(aggregate_by_container(records))
        assert totals.occurrences == 888
        assert totals.unique_cves == 355
        assert totals.critical_rce == 10
        assert totals.critical_actionable == 13


records_st = st.lists(
    st.builds(
        record,
        cve_id=st.sampled_from([f"CVE-{n}" for n in range(8)]),
        container=st.sampled_from(["a", "b", "c"]),
        severity=st.sampled_from(list(SeverityClass)),
        rce=st.booleans(),
        fixed=st.sampled_from([None, "2.0"]),
        image=st.builds(ImageRef, st.just("r.example"), st.just("app"), st.sampled_from("123")),
    ),
    max_size=40,
)


def rows(tally):
    return [(s.container, s.image, dict(s.vuln_histogram)) for s in tally.summaries()]


def histograms(tally):
    return {container: counts for container, (_, counts) in tally.containers.items()}


def expected_rows_and_totals(records):
    """What the tally must hold, computed straight from the records."""
    by_container = {}
    for r in records:
        image, counts = by_container.setdefault(r.container, (r.image, empty_counts()))
        counts[r.severity] += 1
    critical = [r for r in records if r.severity is SeverityClass.CRITICAL]
    totals = (
        len(records),
        len({r.cve_id for r in records}),
        len({r.cve_id for r in critical if r.remote_code_execution}),
        len({r.cve_id for r in critical if r.fixed_version is not None}),
    )
    return [(c, *by_container[c]) for c in sorted(by_container)], totals


class TestTally:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(records_st, st.lists(st.integers(0, 40), max_size=5))
    def test_any_split_merges_to_the_whole(self, records, cuts):
        bounds = [0, *sorted(min(cut, len(records)) for cut in cuts), len(records)]
        folded = VulnTally()
        for lo, hi in zip(bounds, bounds[1:]):
            folded.merge(aggregate_by_container(records[lo:hi]))
        whole = aggregate_by_container(records)
        expected_rows, expected_totals = expected_rows_and_totals(records)
        assert rows(folded) == rows(whole) == expected_rows
        totals = occurrence_and_unique_totals(folded)
        assert totals == occurrence_and_unique_totals(whole) == expected_totals
        # Histogram conservation: every record lands in exactly one cell.
        assert sum(sum(row[2].values()) for row in rows(folded)) == totals.occurrences

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.lists(records_st, max_size=6), st.data())
    def test_report_order_changes_no_histogram_or_total(self, reports, data):
        order = data.draw(st.permutations(range(len(reports))))

        def fold(sequence):
            tally = VulnTally()
            for report in sequence:
                tally.merge(aggregate_by_container(report))
            return tally

        given_order, reordered = fold(reports), fold([reports[i] for i in order])
        assert histograms(given_order) == histograms(reordered)
        assert (occurrence_and_unique_totals(given_order)
                == occurrence_and_unique_totals(reordered))


def write_report(path, container, tag, cvss_values):
    entries = [{"cve_id": f"CVE-{i}", "package": "p", "installed_version": "1", "cvss": cvss}
               for i, cvss in enumerate(cvss_values)]
    payload = json.loads(report_payload(entries, container))
    payload["image"]["tag"] = tag
    path.write_text(json.dumps(payload))
    return path


class TestFold:
    def test_edge_cases_of_folding_reports(self, tmp_path):
        paths = [
            write_report(tmp_path / "1.json", "c", "1", [11.0, 12.0]),  # nothing accepted
            write_report(tmp_path / "2.json", "c", "2", [9.5]),
            write_report(tmp_path / "3.json", "d", "1", [11.0]),  # nothing accepted
            write_report(tmp_path / "4.json", "c", "3", [5.0, 13.0]),
        ]
        lines = []
        result = audit(scan_reports=paths, diag=lines.append)
        # The image of "c" is that of its first accepted record; "d" has no row.
        assert [(s.container, s.image.tag, s.vuln_histogram[SeverityClass.CRITICAL],
                 sum(s.vuln_histogram.values())) for s in result.summaries] == [("c", "2", 1, 2)]
        assert result.totals == (2, 1, 0, 0)  # CVE-0 twice
        assert lines == [
            "c: rejected entry 0: cvss 11.0 outside [0.0, 10.0] for CVE-0",
            "c: rejected entry 1: cvss 12.0 outside [0.0, 10.0] for CVE-1",
            "d: rejected entry 0: cvss 11.0 outside [0.0, 10.0] for CVE-0",
            "c: rejected entry 1: cvss 13.0 outside [0.0, 10.0] for CVE-1",
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
