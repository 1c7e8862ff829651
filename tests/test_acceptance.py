"""Acceptance gate: one test per release criterion, each printed on success.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
All comparisons are exact unless stated otherwise.
"""

from __future__ import annotations

import ast
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ricaudit
from conftest import flat, payload_of, rendered_json, rule_of
from ricaudit.catalogs import data_path, load_catalogs
from ricaudit.cli import main
from ricaudit.compliance import (
    Control,
    ControlResult,
    Framework,
    FrameworkScore,
    framework_score,
)
from ricaudit.manifests import ResourceDocument, load_directory
from ricaudit.report import AuditResult
from ricaudit.rules import Findings, evaluate, group_findings_by_app
from ricaudit.severity import SeverityClass, classify_severity
from ricaudit.vulns import (
    ContainerScanSummary,
    ImageRef,
    VulnTally,
    VulnTotals,
    occurrence_and_unique_totals,
    parse_scan_report,
)
from ricaudit.versions import AdvisoryEntry, VersionFinding, VersionPredicate, parse_version


def announce(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


REPO_ROOT = Path(__file__).resolve().parent.parent

# Every numeric cell of the reference container table: container ->
# (registry, repository:tag, vuln C/H/M/L/N, misconfig C/H/M/L/N).
TABLE_CELLS = {
    "ricplt-dbass-redis": ("nexus3.o-ran-sc.org:10002", "ric-plt-dbaas:0.6.2",
                           (6, 14, 26, 2, 0), (0, 1, 3, 9, 0)),
    "influxdb2": ("Docker.io", "influxdb:2.2.0-alpine",
                  (10, 44, 28, 2, 0), (0, 1, 3, 9, 0)),
    "ricplt-e2term": ("nexus3.o-ran-sc.org:10002", "ric-plt-e2:6.0.3",
                      (0, 0, 30, 31, 13), (0, 1, 3, 9, 0)),
    "ricplt-rtmgr": ("nexus3.o-ran-sc.org:10002", "ric-plt-rtmgr:0.9.4",
                     (0, 10, 119, 43, 19), (0, 1, 3, 9, 0)),
    "ricplt-e2mgr": ("nexus3.o-ran-sc.org:10002", "ric-plt-e2mgr:6.0.1",
                     (0, 4, 115, 43, 19), (0, 1, 3, 9, 0)),
    "ricplt-submgr": ("nexus3.o-ran-sc.org:10002", "ric-plt-submgr:0.9.5",
                      (0, 10, 119, 43, 19), (0, 1, 3, 9, 0)),
    "ricplt-appmgr": ("nexus3.o-ran-sc.org:10002", "ric-plt-appmgr:0.5.7",
                      (0, 8, 36, 24, 19), (0, 1, 3, 9, 0)),
    "ricplt-a1mediator": ("nexus3.o-ran-sc.org:10002", "ric-plt-a1:3.1.1",
                          (0, 9, 8, 8, 7), (0, 1, 3, 9, 0)),
}

SEVERITY_KEYS = ("critical", "high", "medium", "low", "negligible")


def report_argv(fmt: str = "json") -> list[str]:
    fixtures = data_path("fixtures")
    argv = [
        "report", str(fixtures / "manifests" / "vulnerable"),
        "--namespace", "ricplt",
        "--inventory", str(fixtures / "inventory.yaml"),
        "--format", fmt,
    ]
    for path in sorted((fixtures / "scan-reports").glob("*.json")):
        argv += ["--scan-report", str(path)]
    return argv


def fixture_tally():
    tally = VulnTally()
    for path in sorted((data_path("fixtures") / "scan-reports").glob("*.json")):
        tally.merge(parse_scan_report(path.read_bytes()).records)
    return tally


def test_criterion_1_table_reproduction(capsys):
    started = time.perf_counter()
    code = main(report_argv())
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    payload = json.loads(out.strip())

    containers = {c["container"]: c for c in payload["containers"]}
    assert sorted(containers) == sorted(TABLE_CELLS)
    checked = 0
    for name, (registry, image_tag, vulns, misconfigs) in TABLE_CELLS.items():
        row = containers[name]
        assert row["image"]["registry"] == registry
        assert f"{row['image']['repository']}:{row['image']['tag']}" == image_tag
        for key, expected in zip(SEVERITY_KEYS, vulns):
            assert row["vulnerabilities"][key] == expected, (name, key)
            checked += 1
        for key, expected in zip(SEVERITY_KEYS, misconfigs):
            assert row["misconfigurations"][key] == expected, (name, key)
            checked += 1
    assert checked == 80
    assert code == 1  # critical vulnerabilities are present by construction
    assert elapsed < 2.0, f"report took {elapsed:.2f}s"
    announce(1, f"all 80 table cells exact; report ran in {elapsed:.2f}s")


def test_criterion_2_critical_totals():
    tally = fixture_tally()
    per_container = {container: counts[SeverityClass.CRITICAL]
                     for container, (_, counts) in tally.containers.items()
                     if counts[SeverityClass.CRITICAL]}
    assert per_container == {"ricplt-dbass-redis": 6, "influxdb2": 10}
    totals = occurrence_and_unique_totals(tally)
    critical_occurrences = sum(per_container.values())
    assert critical_occurrences == 16
    assert totals.critical_rce == 10
    assert totals.critical_actionable == 13
    announce(2, "critical totals exact: 16 occurrences (6+10), 10 RCE, 13 actionable")


def test_criterion_3_version_audit(capsys):
    code = main([
        "versions", "--inventory", str(data_path("fixtures") / "inventory.yaml"),
        "--format", "json",
    ])
    payload = json.loads(capsys.readouterr().out.strip())
    found = {
        v["component"]: (v["cve_count"], v["cvss_min"], v["cvss_max"])
        for v in payload["version_findings"]
    }
    assert found == {
        "kubernetes": (23, 3.0, 8.8),
        "cni": (9, 7.5, 8.2),
        "docker": (31, 3.3, 9.8),
        "helm": (7, 4.3, 8.6),
    }
    assert len(payload["version_findings"]) == 4
    assert code == 1
    announce(3, "four version findings with exact CVE counts and CVSS ranges")


def oracle_percent(pairs: list[tuple[int, int]]) -> int | None:
    """Brute-force mean + half-up rounding in plain integer arithmetic."""
    pairs = [(p, a) for p, a in pairs if a > 0]
    if not pairs:
        return None
    denominator = 1
    for _, applicable in pairs:
        denominator *= applicable
    numerator = sum(p * (denominator // a) for p, a in pairs)
    total_den = denominator * len(pairs)
    return (200 * numerator + total_den) // (2 * total_den)


def test_criterion_4_compliance_scoring(capsys):
    # (a) implementation vs independent oracle, 1000 randomized result sets.
    rng = random.Random(20240101)
    for case in range(1000):
        count = rng.randint(1, 10)
        controls = []
        results = []
        pairs = []
        for i in range(count):
            rule_ids = ("MISC-LIMITS",) if rng.random() > 0.15 else ()
            control = Control(f"C{i}", rule_ids)
            controls.append(control)
            if rule_ids and rng.random() > 0.1:
                applicable = rng.randint(1, 8)
                passing = rng.randint(0, applicable)
            else:
                applicable = passing = 0
            results.append(ControlResult(control, applicable, passing))
            if rule_ids:
                pairs.append((passing, applicable))
            else:
                pairs.append((0, 0))
        framework = Framework("nsa-cisa", tuple(controls))
        score = framework_score(framework, results)
        assert score.percent == oracle_percent(pairs), f"case {case}"

    # (b) the fully hardened fixture scores 100 everywhere.
    code = main(["score", str(data_path("fixtures") / "manifests" / "hardened"),
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out.strip())
    assert {s["framework_id"]: s["percent"] for s in payload["framework_scores"]} == {
        "nsa-cisa": 100, "mitre-attack": 100, "cis-v1.23-t1.0.1": 100,
    }
    assert code == 0

    # (c) the planted-failure fixture matches the hand-computed control
    # table: nsa-cisa 6.5/12 -> 54, mitre-attack 4.5/8 -> 56, cis 6/11 -> 55.
    main(["score", str(data_path("fixtures") / "manifests" / "planted"),
          "--format", "json"])
    payload = json.loads(capsys.readouterr().out.strip())
    assert {s["framework_id"]: s["percent"] for s in payload["framework_scores"]} == {
        "nsa-cisa": 54, "mitre-attack": 56, "cis-v1.23-t1.0.1": 55,
    }
    announce(4, "scoring matches oracle on 1000 random sets; hardened=100; planted=54/56/55")


# --- criterion 5: property suites ------------------------------------------


def test_criterion_5a_classify_monotone_exhaustive():
    grid = [i / 10 for i in range(101)] + [4.0, 7.0, 9.0]
    grid.sort()
    classes = [classify_severity(score) for score in grid]
    for earlier, later in zip(classes, classes[1:]):
        assert later >= earlier
    assert classify_severity(4.0) is SeverityClass.MEDIUM
    assert classify_severity(7.0) is SeverityClass.HIGH
    assert classify_severity(9.0) is SeverityClass.CRITICAL
    announce(5, "classify_severity monotone over the 0.1 grid and boundary values")


def test_criterion_5b_evaluate_order_independent():
    load = load_directory(data_path("fixtures") / "manifests" / "vulnerable")
    catalog = load_catalogs().rules
    baseline = flat(evaluate(catalog, load.documents))
    rng = random.Random(42)
    for _ in range(100):
        shuffled = list(load.documents)
        rng.shuffle(shuffled)
        assert flat(evaluate(catalog, shuffled)) == baseline
    announce(5, "evaluate is order-independent across 100 permutations")


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.sampled_from(list(SeverityClass)), st.integers(0, 10**6)),
        max_size=80,
    )
)
def test_criterion_5c_histogram_conservation(raw):
    # One rule per severity, each run holding the refs drawn with it.
    findings = Findings((rule_of(f"R{sev}", sev), [f"ns/Pod/p{n}" for s, n in raw if s is sev])
                        for sev in SeverityClass)
    # Every fourth resource has no app label; the rest spread over three apps.
    resources = [ResourceDocument("Pod", "ns", f"app{n % 3}" if n % 4 else None, f"ns/Pod/p{n}",
                                  None) for n in {n for _, n in raw}]
    grouped = group_findings_by_app(findings, resources)
    assert all(set(counts) == set(SeverityClass) for counts in grouped.values())
    assert (sum(sum(counts.values()) for counts in grouped.values())
            == sum(1 for _, n in raw if n % 4))


triples = st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(0, 99))


@given(triples, triples, triples)
def test_criterion_5d_version_total_order(a, b, c):
    def v(t):
        return parse_version(".".join(map(str, t)))

    va, vb, vc = v(a), v(b), v(c)
    assert (va < vb) or (vb < va) or (va == vb)          # totality
    assert not (va < vb and vb < va)                     # antisymmetry
    if va <= vb and vb <= vc:                            # transitivity
        assert va <= vc
    assert (va < vb) == (a < b)


# The language [a-z][a-z0-9-]{0,11}, built without st.from_regex, which is slow to draw.
slug = st.builds(
    str.__add__,
    st.sampled_from("abcdefghijklmnopqrstuvwxyz"),
    st.text("abcdefghijklmnopqrstuvwxyz0123456789-", max_size=11),
)
histograms = st.fixed_dictionaries({cls: st.integers(0, 30) for cls in SeverityClass})
image_refs = st.builds(ImageRef, registry=slug, repository=slug, tag=slug)
version_texts = st.builds(
    lambda a, b, c: f"{a}.{b}.{c}",
    st.integers(0, 30), st.integers(0, 30), st.integers(0, 30),
)
severities = st.sampled_from(list(SeverityClass))

summaries_st = st.builds(
    ContainerScanSummary,
    container=slug,
    image=st.one_of(st.none(), image_refs),
    vuln_histogram=histograms,
    misconfig_histogram=histograms,
)

findings_st = st.lists(
    st.tuples(
        st.builds(rule_of, rule_id=slug, severity=severities, title=st.text(max_size=20),
                  remediation=st.text(max_size=20)),
        st.lists(slug, max_size=3),
    ),
    max_size=3,
).map(Findings)

version_findings_st = st.builds(
    lambda component, installed, count, lo_hi, classes, severity: VersionFinding(
        component=component,
        installed=parse_version(installed),
        matched_entry=AdvisoryEntry(
            component=component,
            affected=VersionPredicate.parse(f"== {installed}"),
            cve_count=count,
            cvss_min=min(lo_hi),
            cvss_max=max(lo_hi),
            vulnerability_classes=tuple(classes),
        ),
        severity=severity,
    ),
    component=slug,
    installed=version_texts,
    count=st.integers(1, 99),
    lo_hi=st.tuples(st.integers(0, 100), st.integers(0, 100)).map(
        lambda t: (t[0] / 10, t[1] / 10)
    ),
    classes=st.lists(slug, max_size=3),
    severity=severities,
)


@st.composite
def audit_results(draw):
    summaries = tuple(
        draw(st.lists(summaries_st, max_size=4, unique_by=lambda s: s.container))
    )
    occurrences = sum(sum(s.vuln_histogram.values()) for s in summaries)
    scores = tuple(
        FrameworkScore(fid, draw(st.one_of(st.none(), st.integers(0, 100))),
                       draw(st.integers(0, 20)), draw(st.integers(0, 20)))
        for fid in draw(st.lists(slug, max_size=3, unique=True))
    )
    return AuditResult(
        summaries=summaries,
        findings=draw(findings_st),
        framework_scores=scores,
        version_findings=tuple(draw(st.lists(version_findings_st, max_size=3))),
        totals=VulnTotals(
            occurrences=occurrences,
            unique_cves=draw(st.integers(0, occurrences)),
            critical_rce=draw(st.integers(0, 50)),
            critical_actionable=draw(st.integers(0, 50)),
        ),
        generated_at="2026-01-01T00:00:00Z",
        tool_version="0.1.0",
    )


@settings(max_examples=150)
@given(audit_results())
def test_criterion_5e_render_json_canonical_round_trip(result):
    # The rendered document is its own canonical form, and it holds the payload.
    rendered = rendered_json(result)
    parsed = json.loads(rendered)
    canonical = json.dumps(parsed, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert canonical == rendered
    assert parsed == json.loads(json.dumps(payload_of(result)))


def test_criterion_5_summary():
    announce(5, "histogram conservation, version total order, and canonical "
                "round-trip hold on randomized inputs")


def test_criterion_6_documented_discrepancy(capsys):
    code = main(report_argv(fmt="table"))
    out = capsys.readouterr().out
    assert "Vulnerability occurrences : 888" in out
    assert "Unique CVEs               : 355" in out

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "792" in readme
    assert "888" in readme

    index_text = (data_path("fixtures") / "index.yaml").read_text(encoding="utf-8")
    assert "792" in index_text
    announce(6, "occurrence sum and unique count carry distinct labels; "
                "the 792 discrepancy is documented")


def test_criterion_7_exit_code_contract():
    fixtures = data_path("fixtures")
    hardened = str(fixtures / "manifests" / "hardened")
    vulnerable = str(fixtures / "manifests" / "vulnerable")
    cases = [
        (["scan", hardened, "--fail-on", "high"], 0),
        (["scan", hardened, "--fail-on", "negligible"], 0),
        (["scan", vulnerable, "--fail-on", "low"], 1),
        (["scan", vulnerable, "--fail-on", "critical"], 1),  # anonymous API access
        (["scan", "/definitely/not/there"], 2),
        (["vulns"], 2),
        (["versions", "--inventory", str(fixtures / "inventory.yaml")], 1),
        (["verify-fixtures"], 0),
        (["--no-such-flag"], 2),
    ]
    for argv, expected in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "ricaudit", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == expected, (argv, proc.returncode, proc.stderr[-300:])
        assert proc.returncode in (0, 1, 2)

    # Side-effect free by construction: no module of the package imports a
    # network module, so no code path can reach a cluster, let alone change
    # it, and PyYAML is the one module it imports from outside the stdlib.
    imported = set()
    for path in sorted(Path(ricaudit.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert {name.partition(".")[0] for name in imported} - set(sys.stdlib_module_names) == {"yaml"}
    network = ("socket", "ssl", "http", "urllib.request", "requests")
    assert not [name for name in imported
                if any(name == net or name.startswith(f"{net}.") for net in network)]
    announce(7, "exit codes are {0,1,2} end to end; the package imports no network "
                "module and nothing outside the stdlib but PyYAML")
