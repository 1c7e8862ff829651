from __future__ import annotations

import io
import json
import re
import shutil

import pytest
import yaml

from conftest import rendered_json
from ricaudit import fixtures
from ricaudit.catalogs import load_catalogs
from ricaudit.cli import main
from ricaudit.errors import AuditError
from ricaudit.fixtures import (
    AUDIT_NAMESPACE,
    fixture_audit_result,
    fixture_root,
    load_index,
    verify_fixtures,
)
from ricaudit.report import render_json
from ricaudit.rules import evaluate
from ricaudit.manifests import load_directory
from ricaudit.vulns import VulnTally, parse_scan_report


def test_pristine_corpus_verifies():
    checks = verify_fixtures()
    # 89 container cells, 5 totals, 17 version cells, 17 finding counts, 10 score cells.
    assert len(checks) == 138
    assert all(check.ok for check in checks)


def test_drift_in_the_written_json_is_reported_at_its_cell(monkeypatch):
    # The payload is read from the text `render_json` writes, not rebuilt beside it.
    def altered(result, stream):
        text = io.StringIO()
        render_json(result, text)
        stream.write(text.getvalue().replace('"percent":17', '"percent":18'))

    monkeypatch.setattr(fixtures, "render_json", altered)
    with pytest.raises(AuditError, match=r"^fixture drift at framework_scores\.mitre-attack"
                                         r"\.percent: expected 17, got 18$"):
        verify_fixtures()


def test_deleted_cve_entry_reported_as_drift(tmp_path):
    root = tmp_path / "fixtures"
    shutil.copytree(fixture_root(), root)
    report_path = root / "scan-reports" / "influxdb2.json"
    report = json.loads(report_path.read_text())
    removed = report["entries"].pop(0)
    report_path.write_text(json.dumps(report))

    with pytest.raises(AuditError, match=r"^fixture drift at influxdb2\."):
        verify_fixtures(root)


def test_edited_manifest_reported_as_drift(tmp_path):
    root = tmp_path / "fixtures"
    shutil.copytree(fixture_root(), root)
    manifest = root / "manifests" / "vulnerable" / "workloads" / "ricplt-e2term.yaml"
    doc = yaml.safe_load(manifest.read_text())
    container = doc["spec"]["template"]["spec"]["containers"][0]
    container["securityContext"] = {"allowPrivilegeEscalation": False}
    manifest.write_text(yaml.safe_dump(doc))

    with pytest.raises(AuditError, match=r"^fixture drift at ricplt-e2term\.misconfigurations\."):
        verify_fixtures(root)


def _delete_scan_report(root):
    (root / "scan-reports" / "influxdb2.json").unlink()


def _change_inventory_version(root):
    inventory = root / "inventory.yaml"
    inventory.write_text(inventory.read_text().replace("1.16.0", "1.30.0"))


def _edit_index_total(root):
    index = root / "index.yaml"
    index.write_text(
        index.read_text().replace("critical_rce_unique: 10", "critical_rce_unique: 11")
    )


def _copy_duplicate_configmap(root):
    cluster = root / "manifests" / "vulnerable" / "cluster"
    shutil.copy(cluster / "configmap-common-b.yaml", cluster / "configmap-common-c.yaml")


def _delete_duplicate_configmap(root):
    (root / "manifests" / "vulnerable" / "cluster" / "configmap-common-b.yaml").unlink()


def _edit_index_score(root):
    index = root / "index.yaml"
    index.write_text(index.read_text().replace(
        "nsa-cisa: {percent: 11, evaluated_controls: 14,",
        "nsa-cisa: {percent: 11, evaluated_controls: 15,"))


def _pin_unknown_framework(root):
    index = root / "index.yaml"
    index.write_text(index.read_text().replace("  framework_scores:\n", "  framework_scores:\n"
        "    extra: {percent: 1, evaluated_controls: 1, not_applicable_controls: 0}\n"))


@pytest.mark.parametrize("mutate, cell", [
    (_delete_scan_report, "influxdb2.image"),
    (_change_inventory_version, "version_findings.components"),
    (_edit_index_total, "totals.critical_rce_unique"),
    (_copy_duplicate_configmap, "findings.MISC-DUPREF"),
    (_delete_duplicate_configmap, "findings.rules"),
    (_edit_index_score, "framework_scores.nsa-cisa.evaluated_controls"),
    (_pin_unknown_framework, "framework_scores.frameworks"),
])
def test_drift_names_first_mismatching_cell(tmp_path, mutate, cell):
    root = tmp_path / "fixtures"
    shutil.copytree(fixture_root(), root)
    mutate(root)

    with pytest.raises(AuditError, match=rf"^fixture drift at {re.escape(cell)}: expected "):
        verify_fixtures(root)


def test_index_lists_every_asset():
    root = fixture_root()
    listed = {entry["path"] for entry in load_index(root)["assets"]}
    actual = {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}
    assert listed == actual


def test_index_entries_carry_provenance():
    index = load_index()
    for entry in index["assets"]:
        assert entry["source"] in {"reference-assessment", "constructed"}
        assert entry["reproduces"]


def test_critical_flags_in_scan_reports():
    # Exactly 10 distinct Critical ids carry the RCE flag and 13 carry a
    # fixed version across the whole corpus.
    tally = VulnTally()
    for path in (fixture_root() / "scan-reports").glob("*.json"):
        tally.merge(parse_scan_report(path.read_bytes()).records)
    assert len(tally.critical_rce) == 10
    assert len(tally.critical_actionable) == 13


def test_hardened_variants_fire_no_named_rules():
    load = load_directory(fixture_root() / "manifests" / "hardened")
    findings = evaluate(load_catalogs().rules, load.documents)
    named = {"MISC-LIMITS", "MISC-SECRETS-LIST", "MISC-PRIVESC", "MISC-ANON", "MISC-CREDS"}
    assert not [rule for rule, _ in findings.refs_by_rule if rule.id in named]


def test_recorded_occurrence_sum_and_reported_total_differ():
    totals = load_index()["expected"]["totals"]
    assert totals["vulnerability_occurrences"] == 888
    assert totals["reported_cumulative_total"] == 792
    assert totals["vulnerability_occurrences"] != totals["reported_cumulative_total"]
    assert totals["unique_cves"] not in (
        totals["vulnerability_occurrences"],
        totals["reported_cumulative_total"],
    )


def test_fixture_audit_equals_cli_report(capsys, monkeypatch):
    # verify-fixtures and `ricaudit report` run the same pipeline.
    root = fixture_root()
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    argv = ["report", str(root / "manifests" / "vulnerable"), "--namespace", AUDIT_NAMESPACE,
            "--inventory", str(root / "inventory.yaml"), "--format", "json"]
    for path in sorted((root / "scan-reports").glob("*.json")):
        argv += ["--scan-report", str(path)]
    main(argv)
    payload = capsys.readouterr().out
    assert '"generated_at":"2023-11-14T22:13:20Z"' in payload
    assert payload == rendered_json(fixture_audit_result()) + "\n"
