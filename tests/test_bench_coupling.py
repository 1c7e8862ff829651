"""The benchmark's tracer binds program functions by name; pin those names.

`bench/tracing.py` reports a layer whose function it cannot find as missing
and its metrics as 0, so a rename would otherwise pass unnoticed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from ricaudit.vulns import parse_scan_report

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
# Their functions are gone; the benchmark keeps the layers until it reads
# stage timings from the pipeline itself.
RETIRED_LAYERS = {"catalogs.builtin_rules", "catalogs.builtin_frameworks"}


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
