from __future__ import annotations

import io
import json

import pytest

from ricaudit.catalogs import data_path
from ricaudit.predicates import compile_check
from ricaudit.report import render_json
from ricaudit.rules import Findings, Rule
from ricaudit.severity import SeverityClass

_ANY_POD = compile_check({"path_exists": "spec"})


def rule_of(rule_id: str, severity: SeverityClass = SeverityClass.HIGH, title: str = "m",
            remediation: str = "r") -> Rule:
    """A rule made up for a test, to head a run of `Findings`: it fires on
    every Pod with a spec."""
    return Rule(rule_id, title, severity, frozenset({"Pod"}), remediation, _ANY_POD)


def flat(findings: Findings) -> list[tuple[Rule, str]]:
    """Each finding of `findings` as its (rule, ref), in order."""
    return [(rule, ref) for rule, refs in findings.refs_by_rule for ref in refs]


def rendered_json(result) -> str:
    """The text `render_json` writes for `result`."""
    stream = io.StringIO()
    render_json(result, stream)
    return stream.getvalue()


def payload_of(result) -> dict:
    """The whole payload of an AuditResult, built from its record fields
    alone: the oracle that `render_json`'s streamed text is checked against."""
    def histogram(counts):
        return {cls.name.lower(): counts.get(cls, 0) for cls in SeverityClass}

    def image(ref):
        return ref and {"registry": ref.registry, "repository": ref.repository, "tag": ref.tag}

    return {
        "schema_version": "1",
        "tool_version": result.tool_version,
        "generated_at": result.generated_at,
        "totals": {
            "vulnerability_occurrences": result.totals.occurrences,
            "unique_cves": result.totals.unique_cves,
            "critical_occurrences": sum(
                s.vuln_histogram.get(SeverityClass.CRITICAL, 0) for s in result.summaries),
            "critical_rce_unique": result.totals.critical_rce,
            "critical_actionable_unique": result.totals.critical_actionable,
        },
        "containers": [
            {"container": s.container, "image": image(s.image),
             "vulnerabilities": histogram(s.vuln_histogram),
             "misconfigurations": histogram(s.misconfig_histogram)}
            for s in result.summaries
        ],
        "findings": [
            {"rule_id": rule.id, "resource": ref, "severity": rule.severity.name.lower(),
             "message": rule.title, "remediation": rule.remediation}
            for rule, ref in flat(result.findings)
        ],
        "framework_scores": [
            {"framework_id": s.framework_id, "percent": s.percent,
             "evaluated_controls": s.evaluated_controls,
             "not_applicable_controls": s.not_applicable_controls}
            for s in result.framework_scores
        ],
        "version_findings": [
            {"component": v.component, "installed": str(v.installed),
             "severity": v.severity.name.lower(), "cve_count": v.matched_entry.cve_count,
             "cvss_min": v.matched_entry.cvss_min, "cvss_max": v.matched_entry.cvss_max,
             "affected": str(v.matched_entry.affected),
             "vulnerability_classes": list(v.matched_entry.vulnerability_classes),
             "recommended_min_version": v.matched_entry.recommended_min_version
             and str(v.matched_entry.recommended_min_version)}
            for v in result.version_findings
        ],
    }


def canonical_dumps(result) -> str:
    """`payload_of(result)` in the canonical form: one `json.dumps` call."""
    return json.dumps(payload_of(result), sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


@pytest.fixture(scope="session")
def fixture_root():
    return data_path("fixtures")


@pytest.fixture(scope="session")
def vulnerable_manifests(fixture_root):
    return fixture_root / "manifests" / "vulnerable"

@pytest.fixture(scope="session")
def vulnerable_workloads(fixture_root):
    return fixture_root / "manifests" / "vulnerable" / "workloads"


@pytest.fixture(scope="session")
def hardened_manifests(fixture_root):
    return fixture_root / "manifests" / "hardened"


@pytest.fixture(scope="session")
def planted_manifests(fixture_root):
    return fixture_root / "manifests" / "planted"


@pytest.fixture(scope="session")
def scan_report_paths(fixture_root):
    return sorted((fixture_root / "scan-reports").glob("*.json"))


@pytest.fixture(scope="session")
def inventory_path(fixture_root):
    return fixture_root / "inventory.yaml"

