from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import traceback
from typing import NamedTuple

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from ricaudit import cli
from ricaudit.catalogs import data_path
from ricaudit.cli import main
from ricaudit.severity import SeverityClass


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_payload(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def assert_no_crash(err: str) -> None:
    """Neither a traceback nor the last-resort handler's line: a fuzzer
    must see the defects the handler turns into exit 2."""
    assert "Traceback" not in err
    assert "internal error" not in err, err


# A valid one-entry scan report; tests replace fields of it.
REPORT_ENTRY = {"cve_id": "CVE-1", "package": "p", "installed_version": "1",
                "fixed_version": "2", "cvss": 5.0, "vendor_severity": "medium", "rce": False}
REPORT = {"container": "c1", "image": {"registry": "r", "repository": "a", "tag": "1"},
          "entries": [REPORT_ENTRY]}


def replaced_report(image: dict = {}, entry: dict = {}, **fields) -> dict:
    return {**REPORT, "image": {**REPORT["image"], **image},
            "entries": [{**REPORT_ENTRY, **entry}], **fields}


class TestScan:
    def test_fixture_profile_per_container(self, capsys, vulnerable_manifests):
        code, out, err = run_cli(
            capsys, "scan", str(vulnerable_manifests), "--namespace", "ricplt",
            "--format", "json", "--fail-on", "critical",
        )
        payload = json_payload(out)
        assert len(payload["containers"]) == 8
        for container in payload["containers"]:
            assert container["misconfigurations"] == {
                "critical": 0, "high": 1, "medium": 3, "low": 9, "negligible": 0,
            }
        assert code == 0  # no Critical misconfiguration inside ricplt

    def test_nonexistent_path_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "scan", str(tmp_path / "missing"))
        assert code == 2
        assert "ricaudit:" in err
        assert out == ""

    def test_hardened_fail_on_high_exits_0(self, capsys, hardened_manifests):
        code, _, _ = run_cli(
            capsys, "scan", str(hardened_manifests), "--fail-on", "high"
        )
        assert code == 0

    def test_vulnerable_fail_on_low_exits_1(self, capsys, vulnerable_manifests):
        code, _, _ = run_cli(
            capsys, "scan", str(vulnerable_manifests), "--fail-on", "low"
        )
        assert code == 1

    def test_parse_errors_reported_on_stderr_not_stdout(self, capsys, tmp_path):
        (tmp_path / "bad.yaml").write_text("kind: [unclosed\n")
        (tmp_path / "ok.yaml").write_text(
            "kind: Pod\nmetadata: {name: p, namespace: ns}\nspec: {containers: []}\n"
        )
        code, out, err = run_cli(capsys, "scan", str(tmp_path), "--format", "json")
        assert "parse error" in err
        json_payload(out)  # stdout stays machine-readable

    def test_label_not_a_string_is_a_parse_error(self, capsys, tmp_path):
        # Read through str(), the label would name a container "['x', 'y']".
        path = tmp_path / "lab.yaml"
        path.write_text("kind: Pod\nmetadata:\n  name: x\n  labels: {app: [x, y]}\n")
        code, out, err = run_cli(capsys, "scan", str(path), "--format", "json")
        assert (code, json_payload(out)["containers"]) == (0, [])
        assert err == f"ricaudit: parse error in {path}: document 0: label 'app' must be a string\n"

    def test_namespace_not_a_string_is_a_parse_error(self, capsys, tmp_path):
        # Read as "no namespace", the Pod was scoped out of `--namespace 2024`
        # with nothing on stderr.
        path = tmp_path / "ns.yaml"
        path.write_text("kind: Pod\nmetadata:\n  name: web\n  namespace: 2024\n")
        code, out, err = run_cli(capsys, "scan", str(path), "--namespace", "2024",
                                 "--format", "json")
        assert (code, json_payload(out)["findings"]) == (0, [])
        assert err == (f"ricaudit: parse error in {path}: "
                       "document 0: metadata.namespace must be a string (got int)\n")

    @pytest.mark.parametrize("second, reason", [
        ({"metadata": {"namespace": "ns"}}, "no metadata.name"),
        ("p2", "document is not an object (got str)"),
    ], ids=["no-name", "not-a-mapping"])
    def test_bad_list_item_is_named_by_its_index(self, capsys, tmp_path, second, reason):
        # As `kubectl get -o yaml` writes a live cluster: one List of three pods.
        pods = [{"metadata": {"name": f"p{k}", "namespace": "ns"}} for k in (1, 3)]
        path = tmp_path / "l.yaml"
        path.write_text(yaml.safe_dump({"apiVersion": "v1", "kind": "PodList",
                                        "items": [pods[0], second, pods[1]]}))
        code, out, err = run_cli(capsys, "scan", str(path), "--format", "json")
        # The file is skipped whole, as any file that fails to parse is.
        assert (code, json_payload(out)["findings"]) == (0, [])
        assert err == f"ricaudit: parse error in {path}: document 0: item 1: {reason}\n"

    @pytest.mark.parametrize("line", [
        "spec: !!timestamp x", "spec: !!bool maybe", "spec: !!int ''", "spec: {!!float '': x}",
    ])
    def test_tag_that_does_not_convert_is_a_parse_error(self, capsys, tmp_path, line):
        path = tmp_path / "tagged.yaml"
        path.write_text(f"kind: Pod\nmetadata: {{name: p, namespace: ns}}\n{line}\n")
        code, out, err = run_cli(capsys, "scan", str(path), "--format", "json")
        assert (code, json_payload(out)["containers"]) == (0, [])
        assert err.startswith(f"ricaudit: parse error in {path}: document 0: cannot read ")
        assert len(err.splitlines()) == 1

    def test_scan_requires_input(self, capsys):
        code, _, err = run_cli(capsys, "scan")
        assert code == 2

    @pytest.mark.parametrize("again", ["", "ricplt-rtmgr.yaml"])
    def test_file_given_twice_loaded_once(self, capsys, monkeypatch, hardened_manifests, again):
        # A file reached through two inputs is one resource set, not two
        # copies that MISC-DUPREF would report against each other.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        _, once, _ = run_cli(capsys, "scan", str(hardened_manifests), "--format", "json")
        code, twice, err = run_cli(
            capsys, "scan", str(hardened_manifests), str(hardened_manifests / again),
            "--format", "json",
        )
        assert not [f for f in json_payload(twice)["findings"] if f["rule_id"] == "MISC-DUPREF"]
        assert twice == once
        assert (code, err) == (0, "")


class TestVulns:
    def test_totals_and_distinct_labels(self, capsys, scan_report_paths):
        argv = ["vulns", "--format", "both", "--fail-on", "critical"]
        for path in scan_report_paths:
            argv += ["--scan-report", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1  # 16 critical occurrences trip the default threshold
        payload = json_payload(out)
        totals = payload["totals"]
        assert totals["vulnerability_occurrences"] == 888
        assert totals["unique_cves"] == 355
        assert totals["critical_occurrences"] == 16
        assert "Vulnerability occurrences : 888" in out
        assert "Unique CVEs               : 355" in out

    def test_no_reports_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "vulns")
        assert code == 2

    def test_rejected_entry_diagnosed(self, capsys, tmp_path):
        report = {
            "container": "c",
            "image": {"registry": "r", "repository": "a", "tag": "1"},
            "entries": [
                {"cve_id": "CVE-9", "package": "p", "installed_version": "1", "cvss": 11.0},
                {"cve_id": "CVE-8", "package": "p", "installed_version": "1", "cvss": 1.0},
            ],
        }
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        code, out, err = run_cli(
            capsys, "vulns", "--scan-report", str(path), "--format", "json"
        )
        assert "rejected entry 0" in err
        assert json_payload(out)["totals"]["vulnerability_occurrences"] == 1

    def test_non_utf8_report_exits_2(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_bytes(b'{"container": "\xff"}')
        code, out, err = run_cli(capsys, "vulns", "--scan-report", str(path))
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        assert "UTF-8" in err

    def test_deeply_nested_report_exits_2(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "vulns", "--scan-report", str(path))
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_bad_source_date_epoch_exits_2(self, capsys, monkeypatch, scan_report_paths):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
        code, out, err = run_cli(capsys, "vulns", "--scan-report", str(scan_report_paths[0]))
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        assert "SOURCE_DATE_EPOCH" in err

    @pytest.mark.parametrize("report, message", [
        (replaced_report(entry={"cve_id": 5}), "entry 0: cve_id must be a non-empty string"),
        (replaced_report(entry={"cve_id": None}), "entry 0: cve_id must be a non-empty string"),
        ({**REPORT, "entries": [{"package": "p", "installed_version": "1"}]},
         "entry 0: missing field 'cve_id'"),
        ({**REPORT, "entries": [REPORT_ENTRY, 5]}, "entry 1 must be a mapping, got 5"),
        (replaced_report(entry={"vendor_severity": "catastrophic"}),
         "entry 0: unknown severity class: 'catastrophic'"),
        # Each of these was coerced with str() and rendered, with exit 0.
        (replaced_report(image={"repository": ["r"]}), "image: repository must be a string"),
        (replaced_report(image={"tag": 1.10}), "image: tag must be a string"),
        (replaced_report(entry={"vendor_severity": 5}),
         "entry 0: vendor_severity must be a string"),
        (replaced_report(container=""), "container must be a non-empty string"),
        ({**REPORT, "image": 5}, "image must be a mapping, got 5"),
    ])
    def test_malformed_report_names_file_and_entry(self, capsys, tmp_path, report, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        code, out, err = run_cli(capsys, "vulns", "--scan-report", str(path))
        assert (code, out) == (2, "")
        assert err == f"ricaudit: scan report {path}: {message}\n"

    def test_unreadable_report_names_it(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        code, out, err = run_cli(capsys, "vulns", "--scan-report", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"ricaudit: cannot read scan report {path}: ")
        assert len(err.splitlines()) == 1

    def test_empty_report_path_names_no_file(self, capsys):
        code, out, err = run_cli(capsys, "vulns", "--scan-report", "")
        assert (code, out) == (2, "")
        assert err == "ricaudit: empty value for --scan-report\n"

    def test_report_not_a_mapping_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[5]")
        code, out, err = run_cli(capsys, "vulns", "--scan-report", str(path))
        assert (code, out, err) == (2, "", f"ricaudit: scan report {path} must be a mapping, got [5]\n")

    def test_null_optional_fields_take_defaults(self, capsys, tmp_path):
        entry = {**REPORT_ENTRY, "fixed_version": None, "cvss": None,
                 "vendor_severity": None, "rce": None}
        path = tmp_path / "r.json"
        path.write_text(json.dumps({**REPORT, "entries": [entry]}))
        code, out, err = run_cli(capsys, "vulns", "--scan-report", str(path), "--format", "json")
        assert (code, err) == (0, "")
        assert json_payload(out)["containers"][0]["vulnerabilities"]["negligible"] == 1

    @pytest.mark.parametrize("second, occurrences", [
        ("same", 84), ("symlink", 84), ("copy", 168),
    ])
    def test_report_reached_twice_is_read_once(
        self, capsys, tmp_path, scan_report_paths, second, occurrences
    ):
        # A copy is another file for the same container: it is read, and
        # merges into the same row.
        path = next(p for p in scan_report_paths if p.name == "influxdb2.json")
        other = {"same": path, "symlink": tmp_path / "link.json", "copy": tmp_path / "copy.json"}
        other["symlink"].symlink_to(path)
        other["copy"].write_bytes(path.read_bytes())
        code, out, err = run_cli(
            capsys, "vulns", "--scan-report", str(path), "--scan-report", str(other[second]),
            "--format", "json",
        )
        assert (code, err) == (1, "")
        payload = json_payload(out)
        assert payload["totals"]["vulnerability_occurrences"] == occurrences
        [row] = payload["containers"]
        assert (row["container"], row["vulnerabilities"]["critical"]) == (
            "influxdb2", 10 * occurrences // 84)

class TestScore:
    def test_hardened_scores_100(self, capsys, hardened_manifests):
        code, out, _ = run_cli(
            capsys, "score", str(hardened_manifests), "--format", "json"
        )
        payload = json_payload(out)
        assert {s["framework_id"]: s["percent"] for s in payload["framework_scores"]} == {
            "nsa-cisa": 100,
            "mitre-attack": 100,
            "cis-v1.23-t1.0.1": 100,
        }
        assert code == 0

    def test_planted_failure_hand_computed_scores(self, capsys, planted_manifests):
        # Hand count over the planted fixture (one hardened workload in
        # namespace "clean" with a NetworkPolicy, one fully vulnerable
        # workload in namespace "dirty"):
        #   nsa-cisa: 11 controls at 1/2 + KHG-SC-03 at 3/3 over 12
        #             applicable -> 6.5/12 -> 54.17 -> 54
        #   mitre-attack: 7 controls at 1/2 + T1036 at 3/3 over 8
        #             applicable -> 4.5/8 -> 56.25 -> 56
        #   cis: 10 controls at 1/2 + 5.7.1 at 3/3 over 11
        #             applicable -> 6/11 -> 54.55 -> 55
        code, out, _ = run_cli(
            capsys, "score", str(planted_manifests), "--format", "json"
        )
        payload = json_payload(out)
        assert {s["framework_id"]: s["percent"] for s in payload["framework_scores"]} == {
            "nsa-cisa": 54,
            "mitre-attack": 56,
            "cis-v1.23-t1.0.1": 55,
        }

    def test_framework_selection(self, capsys, hardened_manifests):
        code, out, _ = run_cli(
            capsys, "score", str(hardened_manifests),
            "--framework", "mitre-attack", "--format", "json",
        )
        payload = json_payload(out)
        assert [s["framework_id"] for s in payload["framework_scores"]] == ["mitre-attack"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_framework_named_twice_scored_once(self, capsys, tmp_path, hardened_manifests, source):
        ids = ["nsa-cisa", "mitre-attack", "nsa-cisa"]
        if source == "flag":
            args = [arg for fid in ids for arg in ("--framework", fid)]
        else:
            config = tmp_path / "cfg.yaml"
            config.write_text(f"frameworks: [{', '.join(ids)}]\n")
            args = ["--config", str(config)]
        code, out, err = run_cli(capsys, "score", str(hardened_manifests), *args, "--format", "json")
        assert (code, err) == (0, "")
        scored = [s["framework_id"] for s in json_payload(out)["framework_scores"]]
        assert scored == ["nsa-cisa", "mitre-attack"]

    def test_unknown_framework_exits_2(self, capsys, hardened_manifests):
        code, _, err = run_cli(
            capsys, "score", str(hardened_manifests), "--framework", "pci-dss"
        )
        assert code == 2
        assert "pci-dss" in err

    def test_live_cluster_as_one_list_file(self, capsys, monkeypatch, tmp_path, fixture_root):
        # README's recipe for a live cluster: `kubectl get ... -o yaml > live.yaml`
        # writes one List object, which scores as the same resources in files do.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        tree = fixture_root / "manifests"
        items = [doc for path in sorted(tree.rglob("*.yaml"))
                 for doc in yaml.safe_load_all(path.read_text(encoding="utf-8")) if doc]
        live = tmp_path / "live.yaml"
        live.write_text(yaml.safe_dump({"apiVersion": "v1", "kind": "List", "items": items}),
                        encoding="utf-8")
        expected = run_cli(capsys, "score", str(tree), "--format", "json")
        assert expected[0] == 1 and expected[2] == ""
        assert run_cli(capsys, "score", str(live), "--format", "json") == expected


class TestVersions:
    def test_cited_inventory_yields_four_findings(self, capsys, inventory_path):
        code, out, _ = run_cli(
            capsys, "versions", "--inventory", str(inventory_path), "--format", "json",
            "--fail-on", "critical",
        )
        payload = json_payload(out)
        found = {v["component"]: v for v in payload["version_findings"]}
        assert {c: (v["cve_count"], v["cvss_min"], v["cvss_max"]) for c, v in found.items()} == {
            "kubernetes": (23, 3.0, 8.8),
            "cni": (9, 7.5, 8.2),
            "docker": (31, 3.3, 9.8),
            "helm": (7, 4.3, 8.6),
        }
        assert code == 1  # docker advisory classifies Critical

    def test_catalog_given_twice_is_read_once(self, capsys, tmp_path, inventory_path):
        shipped = data_path("advisories", "builtin.yaml")
        copy, link = tmp_path / "copy.yaml", tmp_path / "link.yaml"
        copy.write_bytes(shipped.read_bytes())
        link.symlink_to(copy)
        counts = []
        for paths in ([], [shipped], [copy, copy], [copy, link]):
            catalogs = [word for path in paths for word in ("--catalog", str(path))]
            _, out, _ = run_cli(capsys, "versions", "--inventory", str(inventory_path),
                                *catalogs, "--format", "json")
            counts.append(len(json_payload(out)["version_findings"]))
        assert counts == [4, 4, 8, 8]

    def test_patched_inventory_exits_0(self, capsys, tmp_path):
        inv = tmp_path / "inv.yaml"
        inv.write_text("- component: kubernetes\n  version: 1.27.3\n")
        code, out, _ = run_cli(capsys, "versions", "--inventory", str(inv), "--format", "json")
        assert code == 0
        assert json_payload(out)["version_findings"] == []

    def test_malformed_entry_diagnosed_others_processed(self, capsys, tmp_path):
        inv = tmp_path / "inv.yaml"
        inv.write_text(
            "- component: kubernetes\n  version: latest\n"
            "- component: helm\n  version: 3.5.4\n"
        )
        code, out, err = run_cli(
            capsys, "versions", "--inventory", str(inv), "--format", "json",
            "--fail-on", "critical",
        )
        assert "kubernetes" in err and "latest" in err
        payload = json_payload(out)
        assert [v["component"] for v in payload["version_findings"]] == ["helm"]

    def test_build_metadata_is_dropped(self, capsys, tmp_path):
        # The versions `helm version --short` and k3s report.
        inv = tmp_path / "inv.yaml"
        inv.write_text("- component: helm\n  version: v3.5.4+g1b5edb6\n"
                       "- component: kubernetes\n  version: v1.16.0+k3s1\n")
        code, out, err = run_cli(capsys, "versions", "--inventory", str(inv), "--format", "json",
                                 "--fail-on", "high")
        found = {v["component"]: v for v in json_payload(out)["version_findings"]}
        assert (code, err) == (1, "")
        assert {c: (v["installed"], v["cve_count"]) for c, v in found.items()} == {
            "helm": ("3.5.4", 7), "kubernetes": ("1.16.0", 23)}

    def test_missing_inventory_flag_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "versions")
        assert code == 2


class TestReport:
    def _argv(self, vulnerable_manifests, scan_report_paths, inventory_path, fmt="json"):
        argv = [
            "report", str(vulnerable_manifests), "--namespace", "ricplt",
            "--inventory", str(inventory_path), "--format", fmt,
        ]
        for path in scan_report_paths:
            argv += ["--scan-report", str(path)]
        return argv

    def test_combined_report(
        self, capsys, vulnerable_manifests, scan_report_paths, inventory_path
    ):
        code, out, _ = run_cli(
            capsys, *self._argv(vulnerable_manifests, scan_report_paths, inventory_path)
        )
        payload = json_payload(out)
        assert len(payload["containers"]) == 8
        assert payload["totals"]["vulnerability_occurrences"] == 888
        assert len(payload["version_findings"]) == 4
        assert len(payload["framework_scores"]) == 3
        assert code == 1  # critical vulnerabilities at the default threshold

    def test_byte_identical_between_runs(
        self, capsys, monkeypatch, vulnerable_manifests, scan_report_paths, inventory_path
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        argv = self._argv(vulnerable_manifests, scan_report_paths, inventory_path)
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_fail_on_low_exits_1(
        self, capsys, vulnerable_manifests, scan_report_paths, inventory_path
    ):
        argv = self._argv(vulnerable_manifests, scan_report_paths, inventory_path)
        code, _, _ = run_cli(capsys, *argv, "--fail-on", "low")
        assert code == 1

    def test_requires_some_input(self, capsys):
        code, _, _ = run_cli(capsys, "report")
        assert code == 2

    def test_output_file(self, capsys, tmp_path, scan_report_paths):
        out_path = tmp_path / "report.json"
        argv = ["report", "--format", "json", "--output", str(out_path)]
        for path in scan_report_paths:
            argv += ["--scan-report", str(path)]
        code, out, _ = run_cli(capsys, *argv)
        assert out == ""
        payload = json.loads(out_path.read_text())
        assert payload["totals"]["vulnerability_occurrences"] == 888

    @pytest.mark.parametrize("fmt", ["table", "json", "both"])
    def test_output_file_holds_the_bytes_stdout_holds(
        self, capsys, monkeypatch, tmp_path, vulnerable_manifests, scan_report_paths,
        inventory_path, fmt,
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        argv = self._argv(vulnerable_manifests, scan_report_paths, inventory_path, fmt)
        code, out, err = run_cli(capsys, *argv)
        path = tmp_path / "payload"
        assert run_cli(capsys, *argv, "--output", str(path)) == (code, "", err)
        assert path.read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("target", ["missing/payload.json", "."])
    def test_unwritable_output_is_one_line_exit_2(
        self, capsys, tmp_path, vulnerable_manifests, scan_report_paths, inventory_path, target
    ):
        path = tmp_path / target
        argv = self._argv(vulnerable_manifests, scan_report_paths, inventory_path)
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert (code, out) == (2, "")
        quoted = re.escape(str(path))
        assert re.fullmatch(
            rf"ricaudit: cannot write output {quoted}: \[Errno \d+\] [^\n]*: '{quoted}'\n", err)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_output_that_opens_but_cannot_be_written_is_one_line_exit_2(
        self, capsys, vulnerable_manifests, scan_report_paths, inventory_path
    ):
        argv = self._argv(vulnerable_manifests, scan_report_paths, inventory_path)
        code, out, err = run_cli(capsys, *argv, "--output", "/dev/full")
        assert (code, out) == (2, "")
        assert err == ("ricaudit: cannot write output /dev/full: "
                       "[Errno 28] No space left on device\n")

    def test_closed_stdout_is_worded_like_an_unwritable_output(
        self, capsys, monkeypatch, vulnerable_manifests, scan_report_paths, inventory_path
    ):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        argv = self._argv(vulnerable_manifests, scan_report_paths, inventory_path, "both")
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (2, "ricaudit: cannot write output <stdout>: "
                                  "[Errno 32] Broken pipe\n")

    def test_render_failing_after_its_first_slice_is_exit_2(
        self, capsys, monkeypatch, vulnerable_manifests, scan_report_paths, inventory_path
    ):
        real_render_json = cli.render_json

        def render_one_slice(result, stream):
            class FailingAfterFirstSlice:
                sliced = False

                def write(self, text):
                    if self.sliced:
                        raise RuntimeError("stream lost")
                    self.sliced = '"rule_id":' in text
                    stream.write(text)

            real_render_json(result, FailingAfterFirstSlice())

        monkeypatch.setattr("ricaudit.cli.render_json", render_one_slice)
        argv = self._argv(vulnerable_manifests, scan_report_paths, inventory_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == "ricaudit: internal error: RuntimeError: 'stream lost'\n"
        assert '"rule_id":' in out and not out.endswith("}\n")  # part of a payload, not a report


class TestConfigFile:
    def test_flags_take_precedence(self, capsys, tmp_path, hardened_manifests):
        config = tmp_path / "ricaudit.yaml"
        config.write_text(
            f"inputs: [{hardened_manifests}]\nformat: json\nfail_on: low\n"
        )
        code, out, _ = run_cli(capsys, "scan", "--config", str(config))
        json_payload(out)
        assert code == 0

        code, out, _ = run_cli(
            capsys, "scan", "--config", str(config), "--format", "table"
        )
        assert "Container Name" in out

    def test_config_supplies_inputs(self, capsys, tmp_path, vulnerable_manifests):
        config = tmp_path / "cfg.yaml"
        config.write_text(
            f"inputs: [{vulnerable_manifests}]\nnamespace: ricplt\nfail_on: high\n"
        )
        code, _, _ = run_cli(capsys, "scan", "--config", str(config))
        assert code == 1

    @pytest.mark.parametrize("flag", ["--catalog", "--inventory", "--config"])
    def test_invalid_yaml_input_exits_2(self, capsys, tmp_path, hardened_manifests, flag):
        # Every YAML input reports invalid YAML as one line naming its kind and path.
        path = tmp_path / "bad.yaml"
        path.write_text("fail_on: [unclosed\n")
        code, out, err = run_cli(capsys, "report", str(hardened_manifests), flag, str(path))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert f"{flag[2:]} {path}: invalid YAML" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--catalog", "--inventory", "--config"])
    @pytest.mark.parametrize("text", ["fail_on: !!bool maybe\n", "- !!timestamp x\n",
                                      "{!!int '': x}\n"])
    def test_tag_that_does_not_convert_exits_2(self, capsys, tmp_path, hardened_manifests,
                                               flag, text):
        path = tmp_path / "tagged.yaml"
        path.write_text(text)
        code, out, err = run_cli(capsys, "report", str(hardened_manifests), flag, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"ricaudit: {flag[2:]} {path}: invalid YAML: cannot read ")
        assert len(err.splitlines()) == 1

    def test_misspelt_key_exits_2(self, capsys, tmp_path, planted_manifests):
        # Ignoring `fail-on: low` would pass the scan at the default threshold.
        config = tmp_path / "cfg.yaml"
        config.write_text("fail-on: low\n")
        code, out, err = run_cli(capsys, "scan", str(planted_manifests), "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"ricaudit: config {config}: unknown key 'fail-on' for scan\n"
        code, _, _ = run_cli(capsys, "scan", str(planted_manifests), "--fail-on", "low")
        assert code == 1

    @pytest.mark.parametrize("command, line", [
        ("vulns", "inventory: inv.yaml"),
        ("vulns", "inputs: [deploy]"),
        ("versions", "namespace: ricplt"),
        ("scan", "frameworks: [nsa-cisa]"),
        ("scan", "scan_reports: [r.json]"),
        ("report", "config: other.yaml"),
        ("scan", "endpoint: https://api.example"),
        ("scan", "token_env: RIC_TOKEN"),
        ("scan", "insecure: true"),
    ])
    def test_key_of_an_input_not_read_exits_2(self, capsys, tmp_path, command, line):
        config = tmp_path / "cfg.yaml"
        config.write_text(f"{line}\n")
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert (code, out) == (2, "")
        key = line.split(":")[0]
        assert err == f"ricaudit: config {config}: unknown key {key!r} for {command}\n"

    def test_aliased_invalid_value_is_quoted_bounded(self, capsys, tmp_path):
        # Six levels of ten aliases expand to a million strings (5 MB quoted
        # in full); reprlib quotes at most six items on each of six levels.
        levels = ["&a0 [x, x, x, x, x, x, x, x, x, x]"] + [
            f"&a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]" for i in range(1, 6)]
        config = tmp_path / "cfg.yaml"
        config.write_text(f"format: [{', '.join(levels)}]\n")
        code, out, err = run_cli(capsys, "scan", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith(f"ricaudit: config {config}: invalid value for format: [[")
        assert len(err.splitlines()) == 1 and len(err) < 500_000

    @pytest.mark.parametrize("line", ["fail_on: severe", "format: xml", "inputs: deploy"])
    def test_invalid_config_value_exits_2(self, capsys, tmp_path, line):
        # A bad value is a tool error, never a traceback, a silently empty
        # payload, or a string read as a list of one-character paths.
        config = tmp_path / "cfg.yaml"
        config.write_text(f"{line}\n")
        code, out, err = run_cli(capsys, "scan", "--config", str(config))
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        assert f"invalid value for {line.split(':')[0]}" in err


# An empty value for each setting that takes a string, given as the one-pass
# reader reads it and as only argparse reads it (`--flag=`, inputs after `--`).
EMPTY_SETTINGS = [
    (["scan", ""], ["scan", "--", ""], "inputs"),
    (["scan", "d", "--catalog", ""], ["scan", "d", "--catalog="], "--catalog"),
    (["scan", "d", "--config", ""], ["scan", "d", "--config="], "--config"),
    (["scan", "d", "--output", ""], ["scan", "d", "--output="], "--output"),
    (["versions", "--inventory", ""], ["versions", "--inventory="], "--inventory"),
    (["scan", "d", "--namespace", ""], ["scan", "d", "--namespace="], "--namespace"),
    (["vulns", "--scan-report", ""], ["vulns", "--scan-report="], "--scan-report"),
    (["score", "d", "--framework", "a", "--framework", ""],
     ["score", "d", "--framework", "a", "--framework="], "--framework"),
]


class TestEmptySettings:
    @pytest.mark.parametrize("plain, spelled, flag", EMPTY_SETTINGS,
                             ids=[flag for _, _, flag in EMPTY_SETTINGS])
    def test_empty_flag_value_exits_2_through_both_readers(self, capsys, plain, spelled, flag):
        # Read as given, `scan ''` would audit the current directory, and an
        # empty --namespace or --config would be taken for none.
        assert cli._read_argv(plain) is not None and cli._read_argv(spelled) is None
        for argv in (plain, spelled):
            assert run_cli(capsys, *argv) == (2, "", f"ricaudit: empty value for {flag}\n")

    @pytest.mark.parametrize("command, line", [
        ("scan", "inputs: ['']"), ("scan", "namespace: ''"), ("scan", "catalogs: ['a', '']"),
        ("scan", "output: ''"),
        ("versions", "inventory: ''"), ("vulns", "scan_reports: ['']"),
        ("score", "frameworks: ['']"),
    ])
    def test_empty_config_value_exits_2(self, capsys, tmp_path, command, line):
        config = tmp_path / "cfg.yaml"
        config.write_text(f"{line}\n")
        key, value = line.split(": ")
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"ricaudit: config {config}: invalid value for {key}: {value}\n"


# The flags each sub-command takes ("inputs" is the positional argument),
# written out here rather than read from the program.
SCAN_FLAGS = {"inputs", "--config", "--namespace", "--catalog", "--format", "--fail-on",
              "--output"}
FLAGS = {
    "scan": SCAN_FLAGS,
    "vulns": {"--config", "--scan-report", "--format", "--fail-on", "--output"},
    "score": SCAN_FLAGS | {"--framework"},
    "versions": {"--config", "--catalog", "--inventory", "--format", "--fail-on", "--output"},
    "report": SCAN_FLAGS | {"--framework", "--scan-report", "--inventory"},
    "verify-fixtures": set(),
}
# Flags of no sub-command: ricaudit reads a live cluster only from a
# `kubectl get -o yaml` file, so it takes no API endpoint, token or TLS override.
REMOVED_FLAGS = {"--endpoint", "--token-env", "--insecure"}


class TestFlags:
    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_exactly_the_flags_taken(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        listed = set(re.findall(r"^  (--[a-z-]+|inputs)\b", out, re.MULTILINE))
        assert listed == FLAGS[command]

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in sorted(FLAGS)
        for flag in sorted((FLAGS["report"] | REMOVED_FLAGS) - FLAGS[command])
    ])
    def test_any_other_flag_exits_2(self, capsys, command, flag):
        argv = [command, "x"] if flag == "inputs" else [command, flag, "x"]
        assert cli._read_argv(argv) is None  # left to argparse, which refuses it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_vulns_refuses_inventory(self, capsys, scan_report_paths, inventory_path):
        # Ignoring the flag would drop the version audit without a word.
        with pytest.raises(SystemExit) as exc:
            main(["vulns", "--scan-report", str(scan_report_paths[0]),
                  "--inventory", str(inventory_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --inventory {inventory_path}" in capsys.readouterr().err

    def test_verify_fixtures_refuses_namespace(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-fixtures", "--namespace", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --namespace x" in capsys.readouterr().err


def argparse_namespace(argv: list[str]) -> dict | None:
    """vars() of what argparse makes of argv, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def assert_fast_path_agrees(argv: list[str]) -> bool:
    """If the one-pass reader accepts argv, it reads it as argparse does,
    and argparse accepts it too. Whether it accepted argv."""
    fast = cli._read_argv(argv)
    if fast is not None:
        expected = argparse_namespace(argv)
        assert expected is not None, argv
        assert vars(fast) == expected, argv
    return fast is not None


COMMANDS = [*sorted(FLAGS), "verify-fixtures"]
ALL_FLAGS = sorted(FLAGS["report"] - {"inputs"})
# Words argparse reads in ways the one-pass reader leaves to it.
ODD_WORDS = ["", "-", "--", "-1", "-x", "-h", "--help", "--version", "--form", "--format=json",
             "--insecure=1", "xml", "severe"]
PLAIN_WORDS = ["a", "b", "x.yaml", "json", "table", "both", "low", "critical", "scan"]
# The values tried for each flag with choices, the last of them no choice.
CHOICE_WORDS = {"--format": ["table", "json", "both", "xml"],
                "--fail-on": ["critical", "low", "severe"]}


@st.composite
def argvs(draw):
    """A sub-command, then its flags with values, inputs, and now and then a
    flag of any sub-command, a flag with no value or an odd word."""
    head = draw(st.sampled_from([[command] for command in COMMANDS] * 2 + [[], ["--version"]]))
    own = st.sampled_from(sorted(FLAGS.get(head[0], set()) - {"inputs"}) or ALL_FLAGS
                          if head else ALL_FLAGS)
    plain, odd = st.sampled_from(PLAIN_WORDS), st.sampled_from(ODD_WORDS)
    pair = own.flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(CHOICE_WORDS.get(flag, PLAIN_WORDS))))
    kinds = [pair] * 4 + [st.tuples(plain)] * 2 + [
        st.tuples(st.sampled_from(ALL_FLAGS), plain | odd), st.tuples(own), st.tuples(odd)]
    items = draw(st.lists(st.sampled_from(kinds).flatmap(lambda kind: kind), max_size=6))
    return head + [word for item in items for word in item]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(argvs())
def test_fast_path_reads_argv_as_argparse_does(argv):
    assert_fast_path_agrees(argv)


# Each argv argparse reads, the one-pass reader leaves to it (argparse reads
# `scan a -- b` as one run of inputs, ["a", "b"]).
FALLS_BACK = [
    ["scan", "--form", "json"], ["scan", "--format=json"], ["scan", "--insecure=1"],
    ["scan", "a", "b", "--format", "json", "--insecure"], ["scan", "--insecure", "a", "b"],
    ["scan", "a", "--", "b"], ["scan", "-"], ["vulns", "--scan-report", "-1"],
    ["vulns", "--scan-report", "-x"], ["-h"], ["scan", "-h"], ["--version"],
    ["scan", "a", "--format", "json", "b"], ["scan", "--format", "xml"],
    ["vulns", "--inventory", "x"], ["verify-fixtures", "x"], ["verify-fixtures"], [],
    ["vulns", "a"], ["vulns", "--scan-report"], ["scan", "--help"],
]
# Each argv it reads itself.
READ_FAST = [
    ["vulns", "--scan-report", ""], ["scan", "--namespace", "a", "--namespace", "b"],
    ["scan", "a", "b", "--format", "json", "--namespace", "n"],
    ["scan", "--namespace", "n", "a", "b"],
    ["report", "--scan-report", "r1", "--config", "c", "--scan-report", "r2", "--fail-on", "low"],
    ["versions", "--inventory", "i", "--output", "o"], ["score", "--framework", "x", "d"],
    ["scan"], ["vulns"],
]


@pytest.mark.parametrize("argv", FALLS_BACK, ids=" ".join)
def test_fast_path_leaves_odd_argv_to_argparse(argv):
    assert not assert_fast_path_agrees(argv)


@pytest.mark.parametrize("argv", READ_FAST, ids=" ".join)
def test_fast_path_reads_plain_argv(argv):
    assert assert_fast_path_agrees(argv)


def test_fast_path_reads_1600_scan_reports_without_argparse(capsys, monkeypatch,
                                                             scan_report_paths):
    # The shape of a CI job that passes one --scan-report per image.
    argv = ["vulns"]
    for path in scan_report_paths * 200:
        argv += ["--scan-report", str(path)]
    argv += ["--format", "both"]
    assert len(argv) == 3203
    expected = argparse_namespace(argv)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_read_argv", lambda argv: None)
        expected_run = run_cli(capsys, *argv)

    def no_argparse():
        # Name the argv that reached the parser and the calls that brought it there.
        words = sys._getframe(1).f_locals.get("argv", ())
        raise AssertionError(f"argparse read a plain argv of {len(words)} words\n"
                             + "".join(traceback.format_stack()))

    monkeypatch.setattr(cli, "_build_parser", no_argparse)
    assert vars(cli._read_argv(argv)) == expected
    assert run_cli(capsys, *argv) == expected_run
    assert expected_run[0] == 1 and '"schema_version":"1"' in expected_run[1]


# Valid entries of every kind; tests replace one field of one.
CONTROL = {"id": "C-1", "title": "t", "rule_ids": ["X-1"]}
BASES = {
    "rule": {"id": "X-1", "title": "t", "description": "d", "severity": "low",
             "category": "supply-chain", "applies_to": ["Pod"],
             "check": {"path_exists": "spec"}, "control_refs": [], "remediation": "r"},
    "framework": {"id": "fw", "title": "t", "controls": [CONTROL]},
    "control": CONTROL,
    "advisory": {"component": "helm", "affected": "<= 3.1.0", "cve_count": 1,
                 "cvss_min": 1.0, "cvss_max": 2.0, "vulnerability_classes": ["x"],
                 "recommended_min_version": "3.2.0"},
    "inventory": {"component": "helm", "version": "3.1.0"},
}


def replaced(kind: str, **fields) -> dict:
    return {**BASES[kind], **fields}


# A version with more digits in one part than int() converts, and its diagnostic.
TOO_LONG_VERSION = "9" * 5000 + ".1.1"
TOO_LONG_MESSAGE = ("not a numeric version: '999999999999...999999999.1.1' "
                    "(a part has too many digits)")


class TestUserCatalogs:
    def test_extra_rule_catalog(self, capsys, tmp_path, hardened_manifests):
        catalog = tmp_path / "extra.yaml"
        catalog.write_text(
            """
rules:
  - id: ORG-REPLICAS
    title: Single replica deployment
    description: One replica means no failover.
    severity: low
    category: network-segmentation
    applies_to: [Deployment]
    check:
      path_equals: {path: spec.replicas, value: 1}
    control_refs: []
    remediation: Run at least two replicas.
"""
        )
        code, out, _ = run_cli(
            capsys, "scan", str(hardened_manifests), "--catalog", str(catalog),
            "--format", "json", "--fail-on", "low",
        )
        payload = json_payload(out)
        assert any(f["rule_id"] == "ORG-REPLICAS" for f in payload["findings"])
        assert code == 1

    def test_user_catalog_overrides_builtin_rule(self, capsys, tmp_path, vulnerable_workloads):
        # Redefining MISC-REGISTRY with a widened allow-list replaces the
        # builtin rule instead of colliding with it.
        catalog = tmp_path / "override.yaml"
        catalog.write_text(
            """
rules:
  - id: MISC-REGISTRY
    title: Image from unapproved registry
    description: Site-specific allow-list.
    severity: medium
    category: supply-chain
    applies_to: [Pod, Deployment, StatefulSet, DaemonSet, ReplicaSet, Job, CronJob]
    check:
      any_container:
        image_registry_not_in: [registry.k8s.io, nexus3.o-ran-sc.org:10002, docker.io]
    control_refs: [nsa-cisa/KHG-SC-01, mitre-attack/T1525, cis-v1.23-t1.0.1/5.5.1]
    remediation: Mirror images into an approved registry.
"""
        )
        code, out, _ = run_cli(
            capsys, "scan", str(vulnerable_workloads), "--catalog", str(catalog),
            "--format", "json", "--fail-on", "critical",
        )
        payload = json_payload(out)
        assert not any(f["rule_id"] == "MISC-REGISTRY" for f in payload["findings"])
        assert any(f["rule_id"] == "MISC-ROOT" for f in payload["findings"])

    @pytest.mark.parametrize("section", ["rules", "frameworks"])
    def test_id_defined_twice_in_one_file_exits_2(
        self, capsys, tmp_path, hardened_manifests, section
    ):
        # Within one file an id must be unique; only a builtin id may be
        # overridden.
        rule = """
  - id: X-ONE
    title: t
    severity: low
    category: supply-chain
    applies_to: [Deployment]
    check: {path_exists: spec}
"""
        framework = """
  - id: fw-one
    controls: [{id: C-1, rule_ids: []}]
"""
        entry = rule if section == "rules" else framework
        catalog = tmp_path / "twice.yaml"
        catalog.write_text(f"{section}:{entry}{entry}")
        code, out, err = run_cli(
            capsys, "scan", str(hardened_manifests), "--catalog", str(catalog)
        )
        assert (code, out) == (2, "")
        assert "duplicate" in err and ("X-ONE" in err or "fw-one" in err)

    def test_alias_deep_check_exits_2(self, capsys, tmp_path, hardened_manifests):
        # Each anchor nests 100 levels around the previous one: every level
        # of the file stays under the YAML depth cap, the check does not.
        anchors, inner = [], "{path_exists: spec}"
        for i in range(20):
            anchors.append(f"  - &a{i} " + "{not: " * 100 + inner + "}" * 100 + "\n")
            inner = f"*a{i}"
        catalog = tmp_path / "deep.yaml"
        catalog.write_text(
            "anchors:\n" + "".join(anchors)
            + "rules:\n  - id: X-DEEP\n    title: t\n    severity: low\n"
            "    category: supply-chain\n    applies_to: [Pod]\n    check: *a19\n"
        )
        code, out, err = run_cli(capsys, "scan", str(hardened_manifests), "--catalog", str(catalog))
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        assert "nested deeper than 256 levels" in err

    @pytest.mark.parametrize("check", [
        "{kind_is: [{a: 1}]}",
        "{kind_is: 5}",
        '{path_matches: {path: spec, pattern: "("}}',
        "{credential_data: {key_patterns: 5}}",
        "{credential_data: {min_value_length: [1]}}",
        "{credential_data: {key_patterns: [5]}}",
        "{path_exists: [a]}",
        "{any_item: {path: 5, check: {path_exists: a}}}",
        "{image_registry_not_in: [5]}",
    ])
    def test_malformed_combinator_argument_exits_2(
        self, capsys, tmp_path, hardened_manifests, check
    ):
        catalog = tmp_path / "bad-arg.yaml"
        catalog.write_text(
            "rules:\n  - id: X-BAD\n    title: t\n    severity: low\n"
            f"    category: supply-chain\n    applies_to: [Pod]\n    check: {check}\n"
        )
        code, out, err = run_cli(capsys, "scan", str(hardened_manifests), "--catalog", str(catalog))
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("ricaudit: rule 'X-BAD': ")

    @pytest.mark.parametrize("section, entry, message", [
        # Each of these crashed with a TypeError or AttributeError.
        ("rules", replaced("rule", applies_to=5),
         "rule 'X-1': applies_to must be a list of strings"),
        ("rules", 5, "rule must be a mapping, got 5"),
        ("rules", replaced("rule", severity=["low"]), "rule 'X-1': severity must be a string"),
        ("rules", replaced("rule", remediation=5), "rule 'X-1': remediation must be a string"),
        ("frameworks", replaced("framework", controls=5),
         "framework 'fw': controls must be a list"),
        ("frameworks", replaced("framework", controls=[5]),
         "framework 'fw' control must be a mapping, got 5"),
        ("frameworks", replaced("framework", controls=[replaced("control", rule_ids=5)]),
         "framework 'fw' control 'C-1': rule_ids must be a list of strings"),
        ("frameworks", 5, "framework must be a mapping, got 5"),
        ("advisories", replaced("advisory", vulnerability_classes=5),
         "advisory 'helm': vulnerability_classes must be a list of strings"),
        ("advisories", replaced("advisory", cve_count=[1]),
         "advisory 'helm': cve_count must be an integer"),
        ("advisories", replaced("advisory", cvss_min=[1]),
         "advisory 'helm': cvss_min must be a number"),
        ("advisories", 5, "advisory must be a mapping, got 5"),
        # Each of these was coerced and loaded with a different value.
        ("advisories", replaced("advisory", cve_count=1.9),
         "advisory 'helm': cve_count must be an integer"),
        ("advisories", replaced("advisory", cve_count=True),
         "advisory 'helm': cve_count must be an integer"),
        ("advisories", replaced("advisory", vulnerability_classes="abc"),
         "advisory 'helm': vulnerability_classes must be a list of strings"),
        ("rules", replaced("rule", title=["a"]), "rule 'X-1': title must be a string"),
        # A conversion error names the entry too.
        ("advisories", replaced("advisory", affected="3.x"),
         "advisory 'helm': not a numeric version: '3.x'"),
        # A CVSS outside [0, 10] was loaded; NaN and infinity then rendered as
        # non-JSON tokens in the payload.
        ("advisories", replaced("advisory", cvss_min=float("nan"), cvss_max=float("inf")),
         "advisory 'helm': cvss_min nan and cvss_max inf "
         "must satisfy 0 <= cvss_min <= cvss_max <= 10"),
        ("advisories", replaced("advisory", cvss_max=42),
         "advisory 'helm': cvss_min 1.0 and cvss_max 42.0 "
         "must satisfy 0 <= cvss_min <= cvss_max <= 10"),
        ("advisories", replaced("advisory", cvss_min=float("-inf")),
         "advisory 'helm': cvss_min -inf and cvss_max 2.0 "
         "must satisfy 0 <= cvss_min <= cvss_max <= 10"),
        ("advisories", replaced("advisory", cvss_min=3.0),
         "advisory 'helm': cvss_min 3.0 and cvss_max 2.0 "
         "must satisfy 0 <= cvss_min <= cvss_max <= 10"),
        ("advisories", replaced("advisory", cve_count=0),
         "advisory 'helm': cve_count must be >= 1"),
        # Each of these ended in an internal error: float() or int() refused the value.
        ("advisories", replaced("advisory", cvss_min=10**400),
         "advisory 'helm': cvss_min 100000000000000000...0000000000000000000 and cvss_max 2.0 "
         "must satisfy 0 <= cvss_min <= cvss_max <= 10"),
        ("advisories", replaced("advisory", affected=TOO_LONG_VERSION),
         f"advisory 'helm': {TOO_LONG_MESSAGE}"),
        ("advisories", replaced("advisory", recommended_min_version=TOO_LONG_VERSION),
         f"advisory 'helm': {TOO_LONG_MESSAGE}"),
    ])
    def test_entry_of_wrong_shape_exits_2(
        self, capsys, tmp_path, hardened_manifests, inventory_path, section, entry, message
    ):
        catalog = tmp_path / "entry.yaml"
        catalog.write_text(yaml.safe_dump({section: [entry]}))
        argv = {
            "rules": ["scan", str(hardened_manifests)],
            "frameworks": ["score", str(hardened_manifests)],
            "advisories": ["versions", "--inventory", str(inventory_path)],
        }[section]
        code, out, err = run_cli(capsys, *argv, "--catalog", str(catalog))
        assert (code, out, err) == (2, "", f"ricaudit: {message}\n")

    def test_unquoted_inventory_version_exits_2(self, capsys, tmp_path):
        # YAML reads 3.10 as the number 3.1, which matched this advisory.
        catalog = tmp_path / "adv.yaml"
        catalog.write_text(yaml.safe_dump({"advisories": [BASES["advisory"]]}))
        inv = tmp_path / "inv.yaml"
        inv.write_text("- component: helm\n  version: 3.10\n")
        code, out, err = run_cli(
            capsys, "versions", "--inventory", str(inv), "--catalog", str(catalog)
        )
        assert (code, out) == (2, "")
        assert err == f"ricaudit: {inv}: inventory entry 'helm': version must be a string\n"

    @pytest.mark.parametrize("command", ["scan", "score", "versions", "report"])
    def test_control_with_unknown_rule_exits_2_at_load(
        self, capsys, tmp_path, hardened_manifests, inventory_path, scan_report_paths, command
    ):
        # scan, versions and report without manifests load catalogs but score
        # no framework, so only the catalog load can catch a dangling control.
        catalog = tmp_path / "dangling.yaml"
        catalog.write_text(yaml.safe_dump({"frameworks": [replaced(
            "framework", id="extra", controls=[replaced("control", id="X-1",
                                                        rule_ids=["NO-SUCH-RULE"])])]}))
        argv = {
            "scan": ["scan", str(hardened_manifests)],
            "score": ["score", str(hardened_manifests)],
            "versions": ["versions", "--inventory", str(inventory_path)],
            "report": ["report", "--scan-report", str(scan_report_paths[0])],
        }[command]
        code, out, err = run_cli(capsys, *argv, "--catalog", str(catalog))
        assert (code, out) == (2, "")
        assert err == "ricaudit: control extra/X-1 references unknown rule 'NO-SUCH-RULE'\n"

    def test_rule_side_control_refs_are_ignored(self, capsys, tmp_path, vulnerable_manifests):
        # Only a control's rule_ids count a rule toward it. A `control_refs` key,
        # malformed or naming no control, is an unknown key of a rule entry.
        catalog = tmp_path / "refs.yaml"
        catalog.write_text(yaml.safe_dump({"rules": [
            replaced("rule", id="X-MALFORMED", applies_to=["Deployment"], control_refs=["no-slash"]),
            replaced("rule", id="X-DANGLING", applies_to=["Deployment"],
                     control_refs=["nsa-cisa/NOPE-1", "mitre-attack/T1611"]),
        ]}))
        argv = ["score", str(vulnerable_manifests), "--namespace", "ricplt", "--format", "json"]
        code, out, err = run_cli(capsys, *argv, "--catalog", str(catalog))
        assert (code, err) == (0, "")
        with_refs = json_payload(out)
        assert {"X-MALFORMED", "X-DANGLING"} <= {f["rule_id"] for f in with_refs["findings"]}
        without = json_payload(run_cli(capsys, *argv)[1])
        assert with_refs["framework_scores"] == without["framework_scores"]

    def test_broken_catalog_exits_2(self, capsys, tmp_path, hardened_manifests):
        catalog = tmp_path / "broken.yaml"
        catalog.write_text("rules:\n  - id: X\n")
        code, _, _ = run_cli(capsys, "scan", str(hardened_manifests), "--catalog", str(catalog))
        assert code == 2

    def test_user_advisories_via_catalog_flag(self, capsys, tmp_path):
        catalog = tmp_path / "adv.yaml"
        catalog.write_text(
            """
advisories:
  - component: nginx
    affected: "<= 1.20.0"
    cve_count: 3
    cvss_min: 5.0
    cvss_max: 7.5
    vulnerability_classes: [request smuggling]
"""
        )
        inv = tmp_path / "inv.yaml"
        inv.write_text("- component: nginx\n  version: 1.18.0\n")
        code, out, _ = run_cli(
            capsys, "versions", "--inventory", str(inv), "--catalog", str(catalog),
            "--format", "json", "--fail-on", "critical",
        )
        payload = json_payload(out)
        assert [v["component"] for v in payload["version_findings"]] == ["nginx"]


class TestOversizedNumbersInData:
    """Values that str.isdigit or the YAML loader accept but int() refuses get
    their input's one-line diagnostic, or match nothing."""

    def test_inventory_version_with_a_huge_part_is_one_entry_line(self, capsys, tmp_path):
        inv = tmp_path / "inv.yaml"
        inv.write_text(yaml.safe_dump([{"component": "helm", "version": TOO_LONG_VERSION},
                                       {"component": "helm", "version": "3.5.4"}]))
        code, out, err = run_cli(capsys, "versions", "--inventory", str(inv), "--format", "json",
                                 "--fail-on", "negligible")
        assert code == 1
        assert [v["component"] for v in json_payload(out)["version_findings"]] == ["helm"]
        assert err == f"ricaudit: inventory entry 'helm': {TOO_LONG_MESSAGE}\n"

    @pytest.mark.parametrize("segment", ["²", "0" * 5000], ids=["superscript", "5000-digits"])
    def test_rule_path_segment_int_refuses_matches_nothing(self, capsys, tmp_path, segment):
        manifest = tmp_path / "pod.yaml"
        manifest.write_text(yaml.safe_dump({
            "apiVersion": "v1", "kind": "Pod", "metadata": {"name": "p", "namespace": "ns"},
            "spec": {"containers": [{"name": "c", "image": "x:1"}]}}))
        catalog = tmp_path / "rule.yaml"
        catalog.write_text(yaml.safe_dump({"rules": [
            replaced("rule", id="X-ODD", check={"path_exists": f"spec.containers.{segment}"}),
            replaced("rule", id="X-FIRST", check={"path_exists": "spec.containers.0"}),
        ]}))
        code, out, err = run_cli(capsys, "scan", str(manifest), "--catalog", str(catalog),
                                 "--format", "json", "--fail-on", "critical")
        assert (code, err) == (0, "")
        fired = {f["rule_id"] for f in json_payload(out)["findings"]}
        assert "X-FIRST" in fired and "X-ODD" not in fired


def test_verify_fixtures_command(capsys):
    code, out, err = run_cli(capsys, "verify-fixtures")
    assert code == 0
    assert "checks passed" in err
    assert "fixtures verified: 138 checks passed" in err


@pytest.mark.parametrize("debug", [None, "", "1"])
def test_unexpected_exception_is_one_line_exit_2(capsys, monkeypatch, scan_report_paths, debug):
    def broken_audit(**given):
        raise KeyError("x" * 1000)

    monkeypatch.setattr("ricaudit.cli.audit", broken_audit)
    if debug is None:
        monkeypatch.delenv("RICAUDIT_DEBUG", raising=False)
    else:
        monkeypatch.setenv("RICAUDIT_DEBUG", debug)
    code, out, err = run_cli(capsys, "vulns", "--scan-report", str(scan_report_paths[0]))
    assert (code, out) == (2, "")
    *trace, line = err.splitlines()
    # The message is quoted bounded, so a huge one keeps the line short.
    assert line.startswith("ricaudit: internal error: KeyError: \"'xxx") and len(line) < 100
    if debug:
        assert trace[0] == "Traceback (most recent call last):"
        assert trace[-1].startswith("KeyError: 'xxx")
    else:
        assert trace == []


def test_severity_threshold_choices_match_classes():
    assert {c.name.lower() for c in SeverityClass} == {
        "critical", "high", "medium", "low", "negligible",
    }


yaml_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


class Tagged(NamedTuple):
    """A scalar written under an explicit tag, which yaml.safe_dump never writes."""

    tag: str
    value: str


class TaggingDumper(yaml.SafeDumper):
    """The safe dumper, writing each Tagged scalar under its tag."""


TaggingDumper.add_representer(Tagged, lambda dumper, s: dumper.represent_scalar(s.tag, s.value))

# Values PyYAML's constructors cannot read under some of these tags.
tagged_scalars = st.builds(
    Tagged,
    st.sampled_from(["bool", "int", "float", "timestamp", "binary", "null"])
    .map("tag:yaml.org,2002:".__add__),
    st.sampled_from(["maybe", "", "-", "_", "0x", "x", "1:x", "2001-13-01"]),
)


@st.composite
def tagged_texts(draw, trees):
    """The YAML text of a drawn tree, with any scalar or key put under an explicit tag."""

    def tag(tree):
        if isinstance(tree, dict):
            return {tag(key): tag(value) for key, value in tree.items()}
        if isinstance(tree, list):
            return [tag(item) for item in tree]
        return draw(st.just(tree) | tagged_scalars)

    return yaml.dump(tag(draw(trees)), Dumper=TaggingDumper).encode()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.sampled_from([(kind, name) for kind, base in BASES.items() for name in base]),
    yaml_values,
)
def test_entry_with_any_field_value_never_crashes(
    tmp_path_factory, hardened_manifests, target, value
):
    kind, name = target
    entries = {**BASES, kind: replaced(kind, **{name: value})}
    if kind == "control":
        entries["framework"] = replaced("framework", controls=[entries["control"]])
    root = tmp_path_factory.mktemp("fuzz")
    catalog, inventory = root / "catalog.yaml", root / "inventory.yaml"
    catalog.write_text(yaml.safe_dump({
        "rules": [entries["rule"]],
        "frameworks": [entries["framework"]],
        "advisories": [entries["advisory"]],
    }))
    inventory.write_text(yaml.safe_dump([entries["inventory"]]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([
            "report", str(hardened_manifests), "--inventory", str(inventory),
            "--catalog", str(catalog),
        ])
    assert code in (0, 1, 2)
    assert_no_crash(err.getvalue())
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


def run_report_bytes(tmp_path_factory, text: bytes) -> int:
    """Exit code of `vulns` on one scan report, in this process, held to the CI contract."""
    path = tmp_path_factory.mktemp("fuzz") / "report.json"
    path.write_bytes(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["vulns", "--scan-report", str(path)])
    assert code in (0, 1, 2)
    assert_no_crash(err.getvalue())
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    return code


REPORT_TARGETS = [("report", name) for name in REPORT] + [
    ("image", name) for name in REPORT["image"]] + [("entry", name) for name in REPORT_ENTRY]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.sampled_from(REPORT_TARGETS), yaml_values)
@example(("image", "repository"), ["r"])
@example(("image", "tag"), 1.10)
@example(("entry", "cvss"), 10**400)  # float() of it overflowed
def test_report_with_any_field_value_never_crashes(tmp_path_factory, target, value):
    kind, name = target
    report = {"report": {**REPORT, name: value}, "image": replaced_report(image={name: value}),
              "entry": replaced_report(entry={name: value})}[kind]
    code = run_report_bytes(tmp_path_factory, json.dumps(report).encode())
    if kind == "image":
        # Nothing is coerced: an image field is a string or the report is refused.
        assert code == (0 if isinstance(value, str) else 2)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    st.binary(max_size=64)
    | yaml_values.map(lambda v: json.dumps(v).encode())
    | st.dictionaries(st.sampled_from(sorted(REPORT)), yaml_values)
    .map(lambda v: json.dumps(v).encode())
)
@example(b'{"container": 1' + b"0" * 5000 + b"}")  # longer than int() converts
def test_any_report_bytes_never_crash(tmp_path_factory, text):
    run_report_bytes(tmp_path_factory, text)


def run_in(directory, argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of `main(argv)` run in `directory`, held to the CI contract."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    assert_no_crash(err.getvalue())
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    return code, err.getvalue()


# Config values hold no "/" or ".", so that no path they name leaves the
# example's own empty directory.
config_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(blacklist_characters="/."), max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
CONFIG_KEYS = ["inputs", "namespace", "catalogs", "frameworks", "scan_reports", "inventory",
               "format", "fail_on", "output"]
config_trees = config_values | st.dictionaries(st.sampled_from(CONFIG_KEYS), config_values,
                                              max_size=4)


def run_with_config(tmp_path_factory, command: str, config) -> int:
    """Exit code of `command --config`, `config` given as a tree or as the file's bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "work").mkdir()
    (root / "config.yaml").write_bytes(
        config if isinstance(config, bytes) else yaml.safe_dump(config).encode())
    return run_in(root / "work", [command, "--config", str(root / "config.yaml")])[0]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.sampled_from(sorted(set(FLAGS) - {"verify-fixtures"})),
    config_trees | tagged_texts(config_trees),
)
@example("scan", {"fail-on": "low"})
def test_any_config_never_crashes(tmp_path_factory, command, config):
    run_with_config(tmp_path_factory, command, config)


def valid_config(fixture_root) -> dict:
    """A config for `report` that sets every key to a working value."""
    return {
        "inputs": [str(fixture_root / "manifests" / "hardened")], "namespace": "ricplt",
        "catalogs": [], "frameworks": ["nsa-cisa"],
        "scan_reports": [str(sorted((fixture_root / "scan-reports").glob("*.json"))[0])],
        "inventory": str(fixture_root / "inventory.yaml"), "format": "json",
        "fail_on": "critical", "output": "payload",
    }


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(CONFIG_KEYS), config_values)
@example("fail_on", " LOW ")
@example("inputs", [""])
def test_config_with_any_value_never_crashes(tmp_path_factory, fixture_root, key, value):
    run_with_config(tmp_path_factory, "report", {**valid_config(fixture_root), key: value})


def test_valid_config_runs(tmp_path_factory, fixture_root):
    assert run_with_config(tmp_path_factory, "report", valid_config(fixture_root)) == 1


# Manifest-shaped trees, so that examples reach past the kind and name checks.
manifest_trees = st.fixed_dictionaries(
    {"kind": st.sampled_from(["Pod", "Deployment", "ConfigMap", "PodList", "List"]) | yaml_values},
    optional={
        "apiVersion": yaml_values,
        "metadata": st.fixed_dictionaries(
            {"name": st.just("m") | yaml_values},
            optional={"namespace": yaml_values, "labels": yaml_values}) | yaml_values,
        "spec": yaml_values,
        "items": yaml_values,
        "data": yaml_values,
    },
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.binary(max_size=64)
    | st.lists(yaml_values | manifest_trees, max_size=3)
    .map(lambda docs: yaml.safe_dump_all(docs).encode())
    | tagged_texts(manifest_trees)
)
@example(b"kind: Pod\nmetadata:\n  name: x\n  labels: {app: [x, y]}\n")
def test_any_manifest_never_crashes(tmp_path_factory, text):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "m.yaml").write_bytes(text)
    run_in(root, ["scan", "m.yaml", "--format", "json", "--fail-on", "low"])


# Whole catalog and inventory files: arbitrary bytes, arbitrary YAML trees,
# and trees of the right outline whose entries are valid or arbitrary.
catalog_trees = st.fixed_dictionaries({}, optional={
    section: st.lists(st.just(BASES[kind]) | yaml_values, max_size=2) | yaml_values
    for section, kind in (("rules", "rule"), ("frameworks", "framework"),
                          ("advisories", "advisory"))
})
inventory_trees = st.lists(
    st.just(BASES["inventory"])
    | st.fixed_dictionaries({"component": st.just("helm") | yaml_values,
                             "version": st.just("3.1.0") | yaml_values})
    | yaml_values,
    max_size=3,
)


def yaml_files(trees):
    return (st.binary(max_size=64) | (yaml_values | trees).map(lambda v: yaml.safe_dump(v).encode())
            | tagged_texts(yaml_values | trees))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(yaml_files(catalog_trees))
def test_any_catalog_file_never_crashes(tmp_path_factory, hardened_manifests, inventory_path, text):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "catalog.yaml").write_bytes(text)
    run_in(root, ["report", str(hardened_manifests), "--inventory", str(inventory_path),
                  "--catalog", "catalog.yaml"])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(yaml_files(inventory_trees))
def test_any_inventory_file_never_crashes(tmp_path_factory, text):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "inventory.yaml").write_bytes(text)
    run_in(root, ["versions", "--inventory", "inventory.yaml"])
