"""Tests of the benchmark's own code: generator, oracle, checker and span arithmetic.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

import pytest
import yaml

import corpus
import oracle
import run
import tracing


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("generate", [corpus.manifest_scan, corpus.vuln_ingest])
def test_same_seed_gives_byte_identical_corpora(generate, repo_root, tmp_path):
    first = generate(repo_root, 7, tmp_path / "a", copies=3)
    second = generate(repo_root, 7, tmp_path / "b", copies=3)
    other = generate(repo_root, 8, tmp_path / "c", copies=3)
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert [a.replace(str(tmp_path / "a"), "") for a in first.argv] == \
        [b.replace(str(tmp_path / "b"), "") for b in second.argv]
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert first.sizes == second.sizes == other.sizes


def test_fixture_ci_argument_order_follows_the_seed(repo_root):
    assert corpus.fixture_ci(repo_root, 1).argv == corpus.fixture_ci(repo_root, 1).argv
    orders = {tuple(corpus.fixture_ci(repo_root, seed).argv) for seed in range(5)}
    assert len(orders) > 1


def test_copies_keep_the_base_resource_identities_apart():
    doc = {"kind": "Deployment",
           "metadata": {"name": "e2term", "namespace": "ricplt", "labels": {"app": "e2term"}},
           "spec": {"selector": {"matchLabels": {"app": "e2term"}},
                    "template": {"metadata": {"labels": {"app": "e2term"}}}}}
    copied = corpus.rename_resource(doc, "ricplt-004", "004beef")
    assert copied["metadata"] == {"name": "e2term-004beef", "namespace": "ricplt-004",
                                  "labels": {"app": "e2term-004beef"}}
    assert copied["spec"]["selector"]["matchLabels"]["app"] == "e2term-004beef"
    assert copied["spec"]["template"]["metadata"]["labels"]["app"] == "e2term-004beef"
    assert doc["metadata"]["name"] == "e2term"
    namespace = corpus.rename_resource({"kind": "Namespace", "metadata": {"name": "ricplt"}},
                                       "ricplt-004", "x")
    assert namespace["metadata"]["name"] == "ricplt-004"


def test_copy_files_hold_the_renamed_resources(repo_root, tmp_path):
    workload = corpus.manifest_scan(repo_root, 5, tmp_path, copies=2)
    sources = dict(corpus._manifest_sources(repo_root))
    copies = sorted(p for p in (tmp_path / "manifests").iterdir())
    assert len(copies) == 2 and workload.sizes["files"] == 2 * len(sources)
    for copy_dir in copies:
        k = int(copy_dir.name.rpartition("-")[2])
        suffix = next(name.rpartition("-")[2] for name in workload.expect.rows
                      if name.rpartition("-")[2].startswith(f"{k:03d}"))
        for rel, doc in sources.items():
            written = yaml.safe_load((copy_dir / rel).read_text(encoding="utf-8"))
            assert written == corpus.rename_resource(doc, f"ricplt-{k:03d}", suffix)


@pytest.fixture(scope="module")
def vuln_run(repo_root, tmp_path_factory):
    """A real CLI run over a two-copy vuln-ingest corpus."""
    workload = corpus.vuln_ingest(repo_root, 3, tmp_path_factory.mktemp("corpus"), copies=2)
    env = dict(os.environ, PYTHONPATH=str(repo_root / "src"),
               SOURCE_DATE_EPOCH=corpus.SOURCE_DATE_EPOCH)
    inv = run.invoke([sys.executable, "-m", "ricaudit", *workload.argv], env)
    return workload, inv


def _tampered(inv: run.Invocation, old: bytes, new: bytes) -> run.Invocation:
    assert old in inv.stdout
    return run.Invocation(inv.returncode, inv.wall_s, inv.cpu_s, inv.maxrss_kb,
                          inv.stdout.replace(old, new, 1), inv.stderr)


def test_valid_payload_passes_and_repeats(vuln_run):
    workload, inv = vuln_run
    checker = run.Checker(workload.expect)
    assert checker.check(inv), checker.errors
    assert checker.check(inv)
    assert (checker.attempted, checker.failed) == (2, 0)


@pytest.mark.parametrize("old,new", [
    (b'"vulnerability_occurrences":1776', b'"vulnerability_occurrences":1775'),
    (b'"critical":10,', b'"critical":11,'),
    (b"Unique CVEs               : 355", b"Unique CVEs               : 354"),
])
def test_tampered_payload_is_counted_as_a_failure(vuln_run, old, new):
    workload, inv = vuln_run
    fresh = run.Checker(workload.expect)
    assert not fresh.check(_tampered(inv, old, new))
    assert (fresh.attempted, fresh.failed) == (1, 1)

    after_reference = run.Checker(workload.expect)
    assert after_reference.check(inv)
    assert not after_reference.check(_tampered(inv, old, new))
    assert (after_reference.attempted, after_reference.failed) == (2, 1)


def test_wrong_exit_code_and_traceback_fail(vuln_run):
    workload, inv = vuln_run
    checker = run.Checker(workload.expect)
    assert not checker.check(run.Invocation(0, 0.1, 0.1, 1, inv.stdout, b""))
    assert not checker.check(run.Invocation(1, 0.1, 0.1, 1, inv.stdout, b"Traceback (most"))
    assert checker.failed == 2


def test_scale_reference_sets_the_metamorphic_expectations():
    expect = corpus.Expectation(rows={"demo-001abcd": None}, base_of={"demo-001abcd": "demo"},
                                totals={}, copies=3)
    row = {"critical": 0, "high": 1, "medium": 3, "low": 9, "negligible": 0}
    one_copy = {"findings": [{}] * 5,
                "framework_scores": [{"framework_id": "nsa", "percent": 12}],
                "containers": [{"container": "demo-000abcd", "vulnerabilities": corpus.ZERO_ROW,
                                "misconfigurations": row}]}
    oracle.scale_reference(expect, one_copy)
    assert expect.findings == 15
    assert expect.framework_percents == {"nsa": 12}
    assert expect.rows["demo-001abcd"]["misconfigurations"] == row
    with pytest.raises(ValueError):
        oracle.scale_reference(corpus.Expectation(rows={"x-1": None}, base_of={"x-1": "x"},
                                                  totals={}), one_copy)


def _span(name, start, end, parent):
    return [name, start, end, parent, False, "run"]


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("catalogs.load", 1.0, 4.0, 0),
        _span("predicates.compile_check", 2.0, 3.0, 1),
        _span("predicates.compile_check", 2.2, 2.7, 2),  # recursive call
        _span("report.render_json", 5.0, 6.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 0.5, 0.5, 1.0])
    totals = tracing.layer_totals(spans)
    assert totals["predicates.compile_check"] == pytest.approx(1.0)
    assert totals["cli.main"] == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 4.0, 0), _span("c", 3.0, 5.0, 0),
             _span("d", 9.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_metrics_from_a_dump():
    spans = [_span("cli.main", 0.0, 0.5, -1), _span("pipeline.build", 0.1, 0.3, 0),
             _span("vulns.totals", 0.15, 0.2, 1), _span("vulns.parse", 0.3, 0.4, 0)]
    counts = dict.fromkeys(tracing.COUNT_NAMES, 0)
    counts["vulns.records"] = 50
    m = tracing.layer_metrics({"import_ms": 100.0, "spans": spans, "counts": counts},
                              traced_wall_s=0.7, untraced_wall_s=0.6)
    assert set(m) == set(tracing.METRIC_UNITS)
    assert m["trace.unaccounted_ms"] == pytest.approx(200.0)
    assert m["pipeline.build_ms"] == pytest.approx(150.0)
    assert m["trace.overhead_ms"] == pytest.approx(100.0)
    assert m["vulns.records_per_s"] == pytest.approx(500.0)
    assert m["vulns.reports"] == 1 and m["rules.fire_ratio"] == 0.0


def test_tracer_rebinds_every_alias_and_reports_missing(monkeypatch):
    def parse(text):
        return [text]

    home = types.ModuleType("ricaudit.fakehome")
    home.parse = parse
    user = types.ModuleType("ricaudit.fakeuser")
    user.parse_alias = parse
    monkeypatch.setitem(sys.modules, "ricaudit.fakehome", home)
    monkeypatch.setitem(sys.modules, "ricaudit.fakeuser", user)
    tracer = tracing.Tracer("r1")
    missing = tracer.install({"fake.parse": ("ricaudit.gone.parse", "ricaudit.fakehome.parse"),
                              "fake.absent": ("ricaudit.fakehome.absent",)})
    assert missing == ["fake.absent"]
    assert user.parse_alias("x") == ["x"] and home.parse("y") == ["y"]
    assert [(s[tracing.NAME], s[tracing.PARENT], s[tracing.RUN]) for s in tracer.spans] == \
        [("fake.parse", -1, "r1"), ("fake.parse", -1, "r1")]


def test_a_counter_that_fails_is_reported_not_raised(monkeypatch):
    def parse_manifest_stream(raw_text, where):  # parameters renamed
        return ["doc"]

    module = types.ModuleType("ricaudit.fakemanifests")
    module.parse_manifest_stream = parse_manifest_stream
    monkeypatch.setitem(sys.modules, "ricaudit.fakemanifests", module)
    tracer = tracing.Tracer("r2")
    tracer.install({"manifests.parse": ("ricaudit.fakemanifests.parse_manifest_stream",)})
    assert module.parse_manifest_stream(raw_text="x", where="f") == ["doc"]
    assert tracer.count_errors == {"manifests.parse"}
    assert [s[tracing.NAME] for s in tracer.spans] == ["manifests.parse", "trace.count"]


def test_invoke_reports_the_child_and_not_the_benchmark():
    ballast = bytearray(150 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])  # make the pages resident
    inv = run.invoke([sys.executable, "-c", "import sys; print('out'); sys.exit(3)"],
                     dict(os.environ))
    assert (inv.returncode, inv.stdout) == (3, b"out\n")
    assert 0 < inv.maxrss_kb < 100 * 1024
    assert 0 < inv.cpu_s and 0 < inv.wall_s
    del ballast


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(40)])[0] == "p75"
    assert run.tail([float(i) for i in range(100)]) == ("p90", 89.0)
    assert run.tail([float(i) for i in range(1000)]) == ("p99", 989.0)
