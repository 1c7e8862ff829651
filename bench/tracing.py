"""Traced CLI run and span arithmetic.

Run as a script, this is the traced child process::

    python3 bench/tracing.py SPANS_OUT RUN_ID -- <ricaudit arguments>

It times ``import ricaudit.cli``, then wraps each public function listed in
LAYERS wherever any ``ricaudit.*`` module binds it, calls ``ricaudit.cli.main``
and, once the payload is written, dumps the spans kept in memory to SPANS_OUT.
A function that no longer exists is reported as missing and skipped.

Imported as a module, it turns a span dump into per-layer metrics. The module
imports only the standard library, so loading it does not warm any of the
program's imports before ``cli.import_ms`` is measured.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer name -> candidate "module.function" locations, first found wins, so a
# function that moves between modules keeps its layer name.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli.main": ("ricaudit.cli.main",),
    "catalogs.load": ("ricaudit.catalogs.load_catalogs", "ricaudit.pipeline.load_catalogs"),
    "catalogs.builtin_rules": ("ricaudit.catalogs.load_builtin_rules",),
    "catalogs.builtin_frameworks": ("ricaudit.catalogs.load_builtin_frameworks",),
    "catalogs.inventory": ("ricaudit.catalogs.load_inventory",),
    "predicates.compile_check": ("ricaudit.predicates.compile_check",),
    "rules.validate_catalog": ("ricaudit.rules.validate_catalog",),
    "manifests.load": ("ricaudit.manifests.load_directory",),
    "manifests.parse": ("ricaudit.manifests.parse_manifest_stream",),
    "rules.evaluate": ("ricaudit.rules.evaluate",),
    "rules.group_findings": ("ricaudit.rules.group_findings_by_app",),
    "compliance.score": ("ricaudit.compliance.score_framework",),
    "compliance.control_compliance": ("ricaudit.compliance.control_compliance",),
    "vulns.parse": ("ricaudit.vulns.parse_scan_report",),
    "vulns.aggregate": ("ricaudit.vulns.aggregate_by_container",),
    "vulns.totals": ("ricaudit.vulns.occurrence_and_unique_totals",),
    "pipeline.build": ("ricaudit.pipeline.build_result",),
    "report.render_json": ("ricaudit.report.render_json",),
    "report.render_table": ("ricaudit.report.render_table",),
    "versions.audit": ("ricaudit.versions.audit_components",),
}

# Per-layer metric name -> unit, in the order they are reported.
METRIC_UNITS: dict[str, str] = {
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.unaccounted_ms": "ms",
    "trace.overhead_ms": "ms",
    "catalogs.load_ms": "ms",
    "catalogs.builtin_rules_ms": "ms",
    "catalogs.builtin_frameworks_ms": "ms",
    "catalogs.inventory_ms": "ms",
    "predicates.compile_check.calls": "count",
    "rules.validate_catalog.calls": "count",
    "manifests.load_ms": "ms",
    "manifests.parse_ms": "ms",
    "manifests.files": "count",
    "manifests.documents": "count",
    "manifests.bytes": "bytes",
    "manifests.parse_errors": "count",
    "manifests.docs_per_s": "docs/s",
    "rules.evaluate_ms": "ms",
    "rules.pairs": "count",
    "rules.findings": "count",
    "rules.fire_ratio": "ratio",
    "rules.group_findings_ms": "ms",
    "compliance.score_ms": "ms",
    "compliance.control_compliance_ms": "ms",
    "compliance.control_compliance.calls": "count",
    "compliance.controls_na": "count",
    "vulns.parse_ms": "ms",
    "vulns.reports": "count",
    "vulns.records": "count",
    "vulns.rejected": "count",
    "vulns.records_per_s": "records/s",
    "vulns.aggregate_ms": "ms",
    "vulns.totals_ms": "ms",
    "pipeline.build_ms": "ms",
    "report.render_json_ms": "ms",
    "report.json_bytes": "bytes",
    "report.render_table_ms": "ms",
    "versions.audit_ms": "ms",
}

# Layer metric -> the span whose total time it reports.
TOTAL_TIME_METRICS = {
    "cli.main_ms": "cli.main",
    "catalogs.load_ms": "catalogs.load",
    "catalogs.builtin_rules_ms": "catalogs.builtin_rules",
    "catalogs.builtin_frameworks_ms": "catalogs.builtin_frameworks",
    "catalogs.inventory_ms": "catalogs.inventory",
    "manifests.load_ms": "manifests.load",
    "manifests.parse_ms": "manifests.parse",
    "rules.evaluate_ms": "rules.evaluate",
    "rules.group_findings_ms": "rules.group_findings",
    "compliance.score_ms": "compliance.score",
    "compliance.control_compliance_ms": "compliance.control_compliance",
    "vulns.parse_ms": "vulns.parse",
    "vulns.aggregate_ms": "vulns.aggregate",
    "vulns.totals_ms": "vulns.totals",
    "report.render_json_ms": "report.render_json",
    "report.render_table_ms": "report.render_table",
    "versions.audit_ms": "versions.audit",
}

# Span fields, as dumped: [name, start_s, end_s, parent_index, failed, run_id].
NAME, START, END, PARENT, FAILED, RUN = range(6)


# Work counts taken at the layer boundaries.
COUNT_NAMES = ("manifests.files", "manifests.documents", "manifests.bytes", "rules.pairs",
               "rules.findings", "compliance.controls_na", "vulns.records", "vulns.rejected",
               "report.json_bytes")


class Tracer:
    """Wraps layer functions and keeps their spans and counts in memory.

    Counts are taken when a call returns, inside a "trace.count" span of the
    caller, so that counting is tracing overhead and not the caller's self
    time. The tracer keeps no reference to arguments or results: holding
    them until exit made the traced process much slower to end.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNT_NAMES, 0)
        self.count_errors: set[str] = set()

    def wrap(self, name: str, fn):
        spans, stack, clock, run_id = self.spans, self.stack, time.perf_counter, self.run_id
        counted = name in _COUNTERS

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False, run_id]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if counted:
                    try:
                        _COUNTERS[name](self.counts, args, kwargs, result, span[FAILED])
                    except Exception:  # e.g. a changed signature: report, keep running
                        self.count_errors.add(name)
                    spans.append(["trace.count", span[END], clock(),
                                  stack[-1] if stack else -1, False, run_id])

        return functools.update_wrapper(traced, fn)

    def install(self, layers: dict[str, tuple[str, ...]]) -> list[str]:
        """Rebind every listed function in every loaded ricaudit module.

        Returns the layer names none of whose candidate locations exist.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "ricaudit" or n.startswith("ricaudit.")) and m is not None]
        missing = []
        for layer, candidates in layers.items():
            original = None
            for dotted in candidates:
                module_name, _, attr = dotted.rpartition(".")
                module = sys.modules.get(module_name)
                original = getattr(module, attr, None) if module is not None else None
                if callable(original):
                    break
                original = None
            if original is None:
                missing.append(layer)
                continue
            wrapper = self.wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        return missing


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_manifest_parse(counts, args, kwargs, result, failed) -> None:
    text = _arg(args, kwargs, 0, "text")
    counts["manifests.files"] += 1
    counts["manifests.bytes"] += len(text.encode("utf-8") if isinstance(text, str) else text)
    if not failed:
        counts["manifests.documents"] += len(result)


def _count_evaluate(counts, args, kwargs, result, failed) -> None:
    if not failed:
        catalog = _arg(args, kwargs, 0, "catalog")
        resources = _arg(args, kwargs, 1, "resources")
        counts["rules.pairs"] += sum(
            1 for rule in catalog for doc in resources if rule.applies_to_kind(doc.kind))
        counts["rules.findings"] += len(result)


def _count_control(counts, args, kwargs, result, failed) -> None:
    if not failed:
        counts["compliance.controls_na"] += int(bool(result.not_applicable))


def _count_scan_report(counts, args, kwargs, result, failed) -> None:
    if not failed:
        counts["vulns.records"] += len(result.records)
        counts["vulns.rejected"] += len(result.rejected)


def _count_render_json(counts, args, kwargs, result, failed) -> None:
    if not failed:
        counts["report.json_bytes"] += len(result.encode("utf-8"))


_COUNTERS = {
    "manifests.parse": _count_manifest_parse,
    "rules.evaluate": _count_evaluate,
    "compliance.control_compliance": _count_control,
    "vulns.parse": _count_scan_report,
    "report.render_json": _count_render_json,
}


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the part of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered(children.get(i, []), span[START], span[END])
        for i, span in enumerate(spans)
    ]


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Seconds spent in each layer, counting a recursive call once."""
    totals: dict[str, float] = {}
    for span in spans:
        ancestor = span[PARENT]
        while ancestor >= 0 and spans[ancestor][NAME] != span[NAME]:
            ancestor = spans[ancestor][PARENT]
        if ancestor < 0:
            totals[span[NAME]] = totals.get(span[NAME], 0.0) + span[END] - span[START]
    return totals


def layer_metrics(dump: dict, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, keyed as in METRIC_UNITS."""
    spans = dump["spans"]
    totals = layer_totals(spans)
    own = self_times(spans)
    calls: dict[str, int] = {}
    for span in spans:
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1

    def self_ms(name: str) -> float:
        return 1000 * sum(t for span, t in zip(spans, own) if span[NAME] == name)

    counts = dump["counts"]
    metrics = {metric: 1000 * totals.get(layer, 0.0) for metric, layer in TOTAL_TIME_METRICS.items()}
    metrics.update(counts)
    metrics["cli.import_ms"] = dump["import_ms"]
    metrics["trace.wall_ms"] = 1000 * traced_wall_s
    metrics["trace.overhead_ms"] = 1000 * (traced_wall_s - untraced_wall_s)
    metrics["trace.unaccounted_ms"] = self_ms("cli.main")
    metrics["pipeline.build_ms"] = self_ms("pipeline.build")
    metrics["predicates.compile_check.calls"] = calls.get("predicates.compile_check", 0)
    metrics["rules.validate_catalog.calls"] = calls.get("rules.validate_catalog", 0)
    metrics["compliance.control_compliance.calls"] = calls.get("compliance.control_compliance", 0)
    metrics["manifests.parse_errors"] = sum(
        1 for span in spans if span[NAME] == "manifests.parse" and span[FAILED])
    parse_s, vulns_s = totals.get("manifests.parse", 0.0), totals.get("vulns.parse", 0.0)
    metrics["manifests.docs_per_s"] = counts["manifests.documents"] / parse_s if parse_s else 0.0
    metrics["vulns.records_per_s"] = counts["vulns.records"] / vulns_s if vulns_s else 0.0
    metrics["vulns.reports"] = calls.get("vulns.parse", 0)
    metrics["rules.fire_ratio"] = (
        counts["rules.findings"] / counts["rules.pairs"] if counts["rules.pairs"] else 0.0)
    return {name: metrics[name] for name in METRIC_UNITS}


def _main(argv: list[str]) -> int:
    spans_out, run_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: tracing.py SPANS_OUT RUN_ID -- <ricaudit arguments>")
    started = time.perf_counter()
    import ricaudit.cli

    import_ms = 1000 * (time.perf_counter() - started)
    tracer = Tracer(run_id)
    missing = tracer.install(LAYERS)
    try:
        code = ricaudit.cli.main(cli_args)
    finally:
        sys.stdout.flush()
    import json

    dump = {"import_ms": import_ms, "missing": missing, "count_errors": sorted(tracer.count_errors),
            "spans": tracer.spans, "counts": tracer.counts}
    with open(spans_out, "w", encoding="utf-8") as handle:
        json.dump(dump, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
