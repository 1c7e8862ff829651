"""ricaudit benchmark: times whole CLI invocations and, traced, each layer.

    python3 bench/run.py --workload fixture-ci|manifest-scan|vuln-ingest \\
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it works in the checkout root. Each
timed invocation spawns `python -m ricaudit` as a fresh process, because a CI
job pays interpreter start, imports and catalog loading on every run. One
client runs one CLI process at a time (a closed loop). Wall time runs from
spawn to exit, CPU time and peak RSS come from `os.wait4` in a small spawner
process, and the payload is drained from the stdout pipe. One discarded
warm-up invocation first fills the OS page cache and `__pycache__`. After
each timed invocation a set-up probe times a fresh process that imports
`ricaudit.cli` and loads the catalogs (`setup_s`). Every payload is checked
by the oracle.

With `--trace 0` the run measures for S seconds and reports the end-to-end
metrics. With `--trace 1` it measures untraced for S/2 seconds, then runs
traced invocations (see tracing.py) for S/2 seconds and reports the median of
each per-layer metric. Human-readable lines come first; the last line of
stdout is one JSON object. The exit code is 0 only if every payload passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

import corpus
import oracle
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = Path(".bench_work")
INVOCATION_TIMEOUT_S = 120.0
CORPUS_MAX_AGE_S = 20.0
EXPECTED_EXIT = 1  # every workload has critical vulnerabilities or findings

# A fresh process that finishes `import ricaudit.cli` plus the catalog load.
SETUP_PROBE = """
import importlib, ricaudit.cli
for dotted in {candidates!r}:
    module, _, attr = dotted.rpartition(".")
    try:
        load = getattr(importlib.import_module(module), attr, None)
    except ImportError:
        continue
    if load is not None:
        load()
        break
else:
    raise SystemExit("no catalog loader found")
""".format(candidates=tracing.LAYERS["catalogs.load"])

# A small process that spawns argv, reaps it with wait4 and writes its exit
# code, wall time (spawn to exit), CPU time and peak RSS to fd 3. The CLI must
# not be spawned by the benchmark itself: Linux counts the RSS of the process
# that calls exec in the child's ru_maxrss, and the benchmark holds payloads
# and corpora far larger than this spawner.
SPAWNER = """
import os, sys, time
os.set_inheritable(3, False)
started = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - started
os.write(3, b"%d %r %r %d" % (os.waitstatus_to_exitcode(status), wall,
                              usage.ru_utime + usage.ru_stime, usage.ru_maxrss))
"""

WORKLOADS = ("fixture-ci", "manifest-scan", "vuln-ingest")


@dataclass
class Invocation:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def invoke(argv: list[str], env: dict[str, str]) -> Invocation:
    """Run `argv` through SPAWNER, draining its stdout and stderr pipes."""
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    res_r, res_w = os.pipe()
    chunks: dict[int, list[bytes]] = {out_r: [], err_r: [], res_r: []}
    try:
        try:
            pid = os.posix_spawn(
                sys.executable, [sys.executable, "-I", "-S", "-c", SPAWNER, *argv], env,
                file_actions=[(os.POSIX_SPAWN_DUP2, out_w, 1), (os.POSIX_SPAWN_DUP2, err_w, 2),
                              (os.POSIX_SPAWN_DUP2, res_w, 3)],
                setsid=True)
        finally:
            for fd in (out_w, err_w, res_w):
                os.close(fd)
        deadline = time.monotonic() + INVOCATION_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            for fd in chunks:
                selector.register(fd, selectors.EVENT_READ)
            while selector.get_map():
                ready = selector.select(timeout=max(0.0, deadline - time.monotonic()))
                if not ready:
                    os.killpg(pid, signal.SIGKILL)
                    break
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        selector.unregister(key.fd)
        _, status = os.waitpid(pid, 0)
    finally:
        for fd in chunks:
            os.close(fd)
    result = b"".join(chunks[res_r]).split()
    if os.waitstatus_to_exitcode(status) != 0 or len(result) != 4:
        result = [b"-1", b"nan", b"nan", b"0"]  # the spawner itself failed or was killed
    return Invocation(
        returncode=int(result[0]),
        wall_s=float(result[1]),
        cpu_s=float(result[2]),
        maxrss_kb=int(result[3]),
        stdout=b"".join(chunks[out_r]),
        stderr=b"".join(chunks[err_r]),
    )


class Checker:
    """Checks every payload of a run and counts the failures.

    The first payload is checked by the oracle in full. With
    SOURCE_DATE_EPOCH pinned, every later payload must be byte-identical to
    it; one that is not is checked in full and counted as failed.
    """

    def __init__(self, expect: corpus.Expectation) -> None:
        self.expect = expect
        self.reference: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, inv: Invocation) -> bool:
        self.attempted += 1
        errors = []
        if inv.returncode != EXPECTED_EXIT:
            errors.append(f"exit code {inv.returncode}, expected {EXPECTED_EXIT}")
        if b"Traceback" in inv.stderr:
            errors.append("traceback on stderr: " + inv.stderr.decode(errors="replace")[-300:])
        if inv.stdout != self.reference:
            if self.reference is not None:
                errors.append("payload differs from the first verified payload of the run")
            found = oracle.check(inv.stdout.decode("utf-8", errors="replace"), self.expect)
            errors += found
            if self.reference is None and not found:
                self.reference = inv.stdout
        if errors:
            self.fail(*errors)
        return not errors

    def fail(self, *errors: str) -> None:
        """Count one failed invocation."""
        self.failed += 1
        self.errors += errors

    def absorb(self, other: "Checker") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


def environment(seed: int) -> dict:
    """What a result depends on besides the code: interpreter, CPUs, libyaml, commit."""
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _commit() -> str:
    head = Path(".git", "HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = Path(".git", ref)
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git", "packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path("src", "ricaudit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest nearest-rank percentile of p99.9/p99/p95/p90/p75 with at
    least ten samples beyond it."""
    ordered = sorted(values)
    for label, per_mille in (("p99.9", 999), ("p99", 990), ("p95", 950), ("p90", 900),
                             ("p75", 750)):
        rank = -(-per_mille * len(ordered) // 1000)
        if len(ordered) - rank >= 10:
            return label, ordered[rank - 1]
    return None


class Inputs:
    """A workload's generated files, replaced before they are CORPUS_MAX_AGE_S old.

    Deleting files that the kernel has begun to write back (after its default
    30 s dirty expiry) blocked for 10-30 s on a 2-vCPU VM with a slow virtual
    disk. So the corpus is regenerated, byte-identical, before it gets that
    old, and is never written to disk at all.
    """

    def __init__(self, name: str, seed: int, out: Path) -> None:
        self.name, self.seed, self.out = name, seed, out
        self.workload = self._build()

    def _build(self) -> corpus.Workload:
        self.born = time.monotonic()
        if self.name == "fixture-ci":
            return corpus.fixture_ci(Path("."), self.seed)
        if self.name == "manifest-scan":
            return corpus.manifest_scan(Path("."), self.seed, self.out)
        return corpus.vuln_ingest(Path("."), self.seed, self.out)

    def argv(self) -> list[str]:
        if time.monotonic() - self.born > CORPUS_MAX_AGE_S:
            shutil.rmtree(self.out, ignore_errors=True)
            self._build()
        return self.workload.argv


def measure(run_cli, run_probe, checker: Checker, seconds: float
            ) -> tuple[list[Invocation], list[float]]:
    """Closed loop for `seconds`, at least once: a timed CLI invocation, then
    a set-up probe, so both sample the machine over the whole run."""
    invocations, setup = [], []
    started = time.perf_counter()
    while not invocations or time.perf_counter() - started < seconds:
        inv = run_cli()
        checker.check(inv)
        invocations.append(replace(inv, stdout=b"", stderr=b""))
        probe = run_probe()
        checker.attempted += 1
        if probe.returncode != 0:
            checker.fail("set-up probe failed: " + probe.stderr.decode(errors="replace"))
        setup.append(probe.wall_s)
    return invocations, setup


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    work = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()),
               SOURCE_DATE_EPOCH=corpus.SOURCE_DATE_EPOCH)
    try:
        inputs = Inputs(workload_name, seed, work / "corpus")
        workload = inputs.workload
        checker = Checker(workload.expect)
        python = sys.executable

        def run_cli() -> Invocation:
            return invoke([python, "-m", "ricaudit", *inputs.argv()], env)

        if workload_name == "manifest-scan":
            # Metamorphic reference: the one-copy corpus of the same seed.
            one = corpus.manifest_scan(Path("."), seed, work / "one-copy", copies=1)
            one_checker = Checker(one.expect)
            inv = invoke([python, "-m", "ricaudit", *one.argv], env)
            shutil.rmtree(work / "one-copy")
            if one_checker.check(inv):
                try:
                    oracle.scale_reference(workload.expect, oracle.payload_json(inv.stdout.decode()))
                except ValueError as exc:
                    one_checker.fail(str(exc))
            checker.absorb(one_checker)

        checker.check(run_cli())  # warm-up, not timed
        timed, setup = measure(run_cli, lambda: invoke([python, "-c", SETUP_PROBE], env),
                               checker, seconds / 2 if trace else seconds)
        dumps = []
        if trace:
            dumps = traced_runs(inputs, checker, env, work, seconds / 2,
                                statistics.median(i.wall_s for i in timed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print("env: " + json.dumps(environment(seed), sort_keys=True))
    print(f"workload: {workload_name} inputs: " + json.dumps(workload.sizes, sort_keys=True))
    if trace:
        metrics = report_layers(workload_name, dumps)
    else:
        metrics = report_end_to_end(workload, timed, setup)
    print(f"error_rate = {checker.failed / checker.attempted} ratio "
          f"({checker.failed} failed of {checker.attempted} attempted)")
    for error in checker.errors[:20]:
        print(f"  failure: {error}")
    correct = checker.failed == 0
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


def report_end_to_end(workload: corpus.Workload, timed: list[Invocation],
                      setup: list[float]) -> dict:
    n = len(timed)
    wall_ms = [1000 * i.wall_s for i in timed]
    wall_p50 = statistics.median(wall_ms)
    values = {
        "wall_ms_p50": (wall_p50, "ms", n),
        "cpu_ms_p50": (statistics.median(1000 * i.cpu_s for i in timed), "ms", n),
        "peak_rss_mb": (statistics.median(i.maxrss_kb / 1024 for i in timed), "MB", n),
        "items_per_s": (workload.items / (wall_p50 / 1000), "items/s", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }
    for name, (value, unit, count) in values.items():
        print(f"{name} = {value:.6g} {unit} (n={count})")
    high = tail(wall_ms)
    if high:
        print(f"wall_ms_{high[0]} = {high[1]:.6g} ms (n={n}, tail, not gated)")
    else:
        print(f"wall_ms tail: fewer than 11 samples (n={n}), not reported")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in values.items()}


def traced_runs(inputs: Inputs, checker: Checker, env: dict, work: Path,
                seconds: float, untraced_wall_s: float) -> list[tuple[dict, dict]]:
    """Traced invocations for `seconds`, at least one: (span dump, metrics) each."""
    results = []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        run_id = f"{inputs.name}-{len(results)}"
        spans_out = work / f"spans-{run_id}.json"
        inv = invoke([sys.executable, str(BENCH_DIR / "tracing.py"), str(spans_out), run_id,
                      "--", *inputs.argv()], env)
        if not checker.check(inv):
            break
        if not spans_out.is_file():
            checker.fail("traced run wrote no span dump")
            break
        dump = json.loads(spans_out.read_text(encoding="utf-8"))
        spans_out.unlink()
        results.append((dump, tracing.layer_metrics(dump, inv.wall_s, untraced_wall_s)))
    return results


def report_layers(workload_name: str, dumps: list[tuple[dict, dict]]) -> dict:
    if not dumps:
        return {name: {"value": 0, "unit": unit} for name, unit in tracing.METRIC_UNITS.items()}
    metrics = {name: statistics.median(m[name] for _, m in dumps)
               for name in tracing.METRIC_UNITS}
    for name, unit in tracing.METRIC_UNITS.items():
        print(f"{name} = {metrics[name]:.6g} {unit} (n={len(dumps)})")
    for key, label in (("missing", "missing layer functions"), ("count_errors", "failed counters")):
        names = sorted({name for dump, _ in dumps for name in dump[key]})
        print(f"{label}: " + (", ".join(names) if names else "none"))
    for line in design_checks(workload_name, dumps, metrics):
        print(line)
    return {name: {"value": value, "unit": tracing.METRIC_UNITS[name]}
            for name, value in metrics.items()}


def design_checks(workload_name: str, dumps: list[tuple[dict, dict]], m: dict) -> list[str]:
    """Whether the traced run still matches what the workload was chosen for."""
    wall = m["trace.wall_ms"]
    lines = []
    if workload_name == "fixture-ci":
        share = (m["cli.import_ms"] + m["catalogs.load_ms"]) / wall
        lines.append(f"design: import + catalogs share of traced wall = {share:.2f} (chosen for >= 0.5)")
    elif workload_name == "manifest-scan":
        share = m["manifests.parse_ms"] / wall
        lines.append(f"design: manifests.parse share of traced wall = {share:.2f} (chosen for >= 0.6)")
    else:
        share = m["vulns.parse_ms"] / wall
        lines.append(f"design: vulns.parse share of traced wall = {share:.2f} (chosen for >= 0.5)")
        # build_result always groups findings by app; here it gets none.
        stray = sorted({span[tracing.NAME] for dump, _ in dumps for span in dump["spans"]
                        if span[tracing.NAME].partition(".")[0] in
                        ("catalogs", "predicates", "manifests", "rules", "compliance")
                        and span[tracing.NAME] != "rules.group_findings"})
        lines.append("design: catalogs/manifests/rules/compliance spans besides "
                     "rules.group_findings: " + (", ".join(stray) if stray else "none (as chosen)"))
    counts = ("predicates.compile_check.calls", "rules.pairs", "manifests.documents",
              "vulns.records")
    repeat = all(len({metrics[c] for _, metrics in dumps}) == 1 for c in counts)
    lines.append(f"design: work counts repeat across {len(dumps)} traced invocations: "
                 + ("yes" if repeat else "no"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    for needed in (Path("src", "ricaudit", "cli.py"), corpus.FIXTURES / "index.yaml"):
        if not needed.is_file():
            print(f"bench: {needed} not found; run inside a ricaudit checkout", file=sys.stderr)
            return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
