"""Seeded benchmark inputs, copied from the shipped fixture corpus.

Nothing is downloaded: every generated file is a renamed copy of a shipped
fixture. The seed picks each copy's name suffix and the order of the input
files and arguments, so the same seed gives byte-identical inputs. Each
workload also gets its Expectation, which the oracle checks payloads
against; it is built from `fixtures/index.yaml` and the raw fixture files,
never from the program under test. Generated files go under `out`; the
CLI arguments name them by `out`, and name shipped fixtures relative to the
checkout root, which is the directory the CLI runs in.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

FIXTURES = Path("src", "ricaudit", "data", "fixtures")
SEVERITIES = ("critical", "high", "medium", "low", "negligible")
ZERO_ROW = {s: 0 for s in SEVERITIES}
BASE_NAMESPACE = "ricplt"
COPIES = 200
# Pinned so that payloads of one run are byte-identical.
SOURCE_DATE_EPOCH = "1700000000"
# Placeholders in the dumped copy templates; neither occurs in the fixtures.
_NAMESPACE_TOKEN = "namespaceplaceholder"
_SUFFIX_TOKEN = "suffixplaceholder"


@dataclass
class Expectation:
    """What a correct payload of one workload holds."""

    # container -> {"image": "registry/repo:tag" or None, "vulnerabilities": {...},
    # "misconfigurations": {...}}; a None row is known only from the one-copy run.
    rows: dict[str, dict | None]
    # container -> name of the shipped container it was copied from
    base_of: dict[str, str]
    totals: dict[str, int]
    version_findings: list[tuple] = field(default_factory=list)
    has_table: bool = False
    copies: int = 1
    findings: int | None = None
    framework_percents: dict[str, int | None] | None = None


@dataclass
class Workload:
    """One workload's CLI arguments, input size and expected payload."""

    name: str
    argv: list[str]
    sizes: dict[str, int]
    expect: Expectation

    @property
    def items(self) -> int:
        """Manifest documents + CVE records + inventory entries."""
        return self.sizes["documents"] + self.sizes["records"] + self.sizes["inventory"]


def _index(root: Path) -> dict:
    return yaml.safe_load((root / FIXTURES / "index.yaml").read_text(encoding="utf-8"))


def _expected_totals(index: dict, copies: int) -> dict[str, int]:
    """Occurrence totals scale with the copies; unique-CVE totals do not."""
    t = index["expected"]["totals"]
    unique = 1 if copies else 0
    return {
        "vulnerability_occurrences": t["vulnerability_occurrences"] * copies,
        "unique_cves": t["unique_cves"] * unique,
        "critical_occurrences": t["critical_occurrences"] * copies,
        "critical_rce_unique": t["critical_rce_unique"] * unique,
        "critical_actionable_unique": t["critical_actionable_unique"] * unique,
    }


def _suffixes(rng: random.Random, copies: int) -> list[str]:
    """Fixed-width per-copy suffixes: copy number plus a seeded token."""
    return [f"{k:03d}{rng.getrandbits(16):04x}" for k in range(copies)]


def _manifest_sources(root: Path) -> list[tuple[Path, dict]]:
    base = root / FIXTURES / "manifests" / "vulnerable"
    sources = []
    for path in sorted(base.rglob("*.yaml")):
        docs = [d for d in yaml.safe_load_all(path.read_text(encoding="utf-8")) if d]
        if len(docs) != 1:
            raise ValueError(f"{path}: expected one document, found {len(docs)}")
        sources.append((path.relative_to(base), docs[0]))
    return sources


def _report_sources(root: Path) -> list[tuple[Path, dict]]:
    paths = sorted((root / FIXTURES / "scan-reports").glob("*.json"))
    return [(p, json.loads(p.read_text(encoding="utf-8"))) for p in paths]


def rename_resource(doc: dict, namespace: str, suffix: str) -> dict:
    """A copy of `doc` moved to its copy's namespace, with suffixed names and app labels."""
    doc = copy.deepcopy(doc)
    meta = doc["metadata"]
    if doc["kind"] == "Namespace" and meta["name"] == BASE_NAMESPACE:
        meta["name"] = namespace
    else:
        meta["name"] = f"{meta['name']}-{suffix}"
    if meta.get("namespace") == BASE_NAMESPACE:
        meta["namespace"] = namespace
    spec = doc.get("spec") or {}
    for labels in (meta.get("labels"), (spec.get("selector") or {}).get("matchLabels"),
                   ((spec.get("template") or {}).get("metadata") or {}).get("labels")):
        if labels and "app" in labels:
            labels["app"] = f"{labels['app']}-{suffix}"
    return doc


def _app_label(doc: dict) -> str | None:
    return ((doc.get("metadata") or {}).get("labels") or {}).get("app")


def _index_row(index: dict, container: str, with_vulns: bool, with_misconfig: bool) -> dict | None:
    row = index["expected"]["containers"].get(container)
    if row is None:
        return None
    return {
        "image": row["image"] if with_vulns else None,
        "vulnerabilities": dict(row["vulnerabilities"]) if with_vulns else dict(ZERO_ROW),
        "misconfigurations": dict(row["misconfigurations"]) if with_misconfig else dict(ZERO_ROW),
    }


def fixture_ci(root: Path, seed: int) -> Workload:
    """`report` over the shipped corpus, exactly as one CI job runs it."""
    rng = random.Random(seed)
    index = _index(root)
    sources = _report_sources(root)
    reports = [str(FIXTURES / "scan-reports" / p.name) for p, _ in sources]
    rng.shuffle(reports)
    argv = ["report", str(FIXTURES / "manifests" / "vulnerable")]
    for path in reports:
        argv += ["--scan-report", path]
    argv += ["--inventory", str(FIXTURES / "inventory.yaml"),
             "--namespace", BASE_NAMESPACE, "--format", "both"]
    inventory = yaml.safe_load((root / FIXTURES / "inventory.yaml").read_text(encoding="utf-8"))
    rows = {name: _index_row(index, name, True, True) for name in index["expected"]["containers"]}
    expect = Expectation(
        rows=rows,
        base_of={name: name for name in rows},
        totals=_expected_totals(index, 1),
        version_findings=sorted(
            (v["component"], str(v["installed"]), v["cve_count"], v["cvss_min"], v["cvss_max"])
            for v in index["expected"]["version_findings"]),
        has_table=True,
    )
    documents = len(_manifest_sources(root))
    sizes = {
        "files": documents,
        "documents": documents,
        "reports": len(reports),
        "records": sum(len(r["entries"]) for _, r in sources),
        "inventory": len(inventory),
    }
    return Workload("fixture-ci", argv, sizes, expect)


def manifest_scan(root: Path, seed: int, out: Path, copies: int = COPIES) -> Workload:
    """`score` over `copies` renamed copies of the vulnerable manifest set."""
    rng = random.Random(seed)
    index = _index(root)
    sources = _manifest_sources(root)
    suffixes = _suffixes(rng, copies)
    rows: dict[str, dict | None] = {}
    base_of: dict[str, str] = {}
    # Each source is dumped once with placeholder names; a copy substitutes them.
    templates = [yaml.safe_dump(rename_resource(doc, _NAMESPACE_TOKEN, _SUFFIX_TOKEN),
                                sort_keys=False) for _, doc in sources]
    for k, suffix in enumerate(suffixes):
        copy_dir = out / "manifests" / f"{rng.getrandbits(16):04x}-{k:03d}"
        for (rel, doc), template in zip(sources, templates):
            target = copy_dir / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(template.replace(_NAMESPACE_TOKEN, f"{BASE_NAMESPACE}-{k:03d}")
                              .replace(_SUFFIX_TOKEN, suffix), encoding="utf-8")
            app = _app_label(doc)
            if app:
                rows[f"{app}-{suffix}"] = _index_row(index, app, False, True)
                base_of[f"{app}-{suffix}"] = app
    argv = [str(out / "manifests"), "--format", "json"]
    expect = Expectation(rows=rows, base_of=base_of, totals=_expected_totals(index, 0),
                         copies=copies)
    sizes = {"files": len(sources) * copies, "documents": len(sources) * copies,
             "reports": 0, "records": 0, "inventory": 0}
    return Workload("manifest-scan", ["score", *argv], sizes, expect)


def vuln_ingest(root: Path, seed: int, out: Path, copies: int = COPIES) -> Workload:
    """`vulns` over `copies` copies of the shipped scan reports, containers renamed."""
    rng = random.Random(seed)
    index = _index(root)
    sources = _report_sources(root)
    rows: dict[str, dict | None] = {}
    base_of: dict[str, str] = {}
    paths = []
    (out / "reports").mkdir(parents=True, exist_ok=True)
    templates = [json.dumps(dict(report, container=f"{report['container']}-{_SUFFIX_TOKEN}"),
                            indent=1) for _, report in sources]
    for suffix in _suffixes(rng, copies):
        for (_, report), template in zip(sources, templates):
            container = f"{report['container']}-{suffix}"
            target = out / "reports" / f"{container}.json"
            target.write_text(template.replace(_SUFFIX_TOKEN, suffix), encoding="utf-8")
            paths.append(str(target))
            rows[container] = _index_row(index, report["container"], True, False)
            base_of[container] = report["container"]
    rng.shuffle(paths)
    argv = ["vulns"]
    for path in paths:
        argv += ["--scan-report", path]
    argv += ["--format", "both"]
    expect = Expectation(rows=rows, base_of=base_of, totals=_expected_totals(index, copies),
                         has_table=True, copies=copies, findings=0)
    sizes = {"files": len(paths), "documents": 0, "reports": len(paths),
             "records": sum(len(r["entries"]) for _, r in sources) * copies, "inventory": 0}
    return Workload("vuln-ingest", argv, sizes, expect)
