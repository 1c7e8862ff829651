"""The benchmark's tracer binds program functions by name; pin those names.

`bench/tracing.py` reports a layer whose function it cannot find as missing
and its metrics as 0, so a rename would otherwise pass unnoticed.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import sys
from pathlib import Path

from ricaudit import manifests, pipeline, vulns
from ricaudit.catalogs import load_catalogs
from ricaudit.manifests import load_directory
from ricaudit.vulns import parse_scan_report

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
# Their functions are gone; the benchmark keeps the layers until it reads
# stage timings from the pipeline itself. Aggregation is now part of
# `vulns.parse`: each entry is counted as it is read.
RETIRED_LAYERS = {"catalogs.builtin_rules", "catalogs.builtin_frameworks", "vulns.aggregate"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("ricaudit_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted: str):
    module_name, _, attr = dotted.rpartition(".")
    return getattr(importlib.import_module(module_name), attr, None)


def test_every_live_layer_resolves_to_a_callable():
    tracing = load_tracing()
    unresolved = [
        layer for layer, candidates in tracing.LAYERS.items()
        if layer not in RETIRED_LAYERS and not any(callable(resolve(c)) for c in candidates)
    ]
    assert unresolved == []


def test_scan_report_counter_counts_records(scan_report_paths):
    tracing = load_tracing()
    tracer = tracing.Tracer("test")
    traced = tracer.wrap("vulns.parse", parse_scan_report)
    path = next(p for p in scan_report_paths if p.name == "influxdb2.json")
    traced(path.read_bytes(), origin=str(path))
    assert tracer.count_errors == set()
    assert (tracer.counts["vulns.records"], tracer.counts["vulns.rejected"]) == (84, 0)


@contextlib.contextmanager
def installed(tracer, layers):
    """`tracer` wrapped around `layers` in every loaded ricaudit module, until exit."""
    saved = [(module, dict(vars(module))) for name, module in list(sys.modules.items())
             if (name == "ricaudit" or name.startswith("ricaudit.")) and module is not None]
    try:
        tracer.install(layers)
        yield
    finally:
        for module, namespace in saved:
            for attr, value in namespace.items():
                if getattr(module, attr) is not value:
                    setattr(module, attr, value)


def span_calls(tracing, tracer) -> dict[str, int]:
    calls: dict[str, int] = {}
    for span in tracer.spans:
        calls[span[tracing.NAME]] = calls.get(span[tracing.NAME], 0) + 1
    return calls


def test_traced_audit_times_every_vulns_layer(scan_report_paths):
    # A layer whose function audit() no longer calls would report 0 ms.
    tracing = load_tracing()
    tracer = tracing.Tracer("test")
    with installed(tracer, tracing.LAYERS):
        result = pipeline.audit(scan_reports=scan_report_paths)
    assert vulns.parse_scan_report is parse_scan_report
    calls = span_calls(tracing, tracer)
    assert (calls.get("vulns.parse"), calls.get("vulns.aggregate")) == (8, None)
    assert calls.get("vulns.totals") == 1
    assert tracer.count_errors == set()
    assert tracer.counts["vulns.records"] == result.totals.occurrences == 888


def test_traced_audit_times_every_manifest_layer(vulnerable_manifests):
    # The manifest stage evaluates each file as it is parsed, so the
    # `manifests.load` span now holds the per-file `rules.evaluate` spans.
    tracing = load_tracing()
    tracer = tracing.Tracer("test")
    with installed(tracer, tracing.LAYERS):
        result = pipeline.audit(manifests=[vulnerable_manifests], frameworks=[])
    assert manifests.load_directory is load_directory
    calls = span_calls(tracing, tracer)
    for layer in ("manifests.load", "manifests.parse", "rules.evaluate", "compliance.score"):
        assert calls.get(layer), layer
    assert tracer.count_errors == set()
    documents = load_directory(vulnerable_manifests).documents
    catalog = load_catalogs().rules
    assert tracer.counts["manifests.documents"] == len(documents)
    assert tracer.counts["rules.findings"] == len(result.findings) > 0
    assert tracer.counts["rules.pairs"] == sum(
        1 for rule in catalog for doc in documents if rule.applies_to_kind(doc.kind))
