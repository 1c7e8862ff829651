"""Fixture corpus access and drift verification.

The package ships a desk-scale reproduction corpus: eight container scan
reports, vulnerable/hardened/planted manifest sets, and a component
inventory. `verify_fixtures` reads the fixture audit's payload back from
the JSON text `render_json` writes, as every CLI run writes it, and
compares it with every recorded expectation, so any edit that changes an
audited number, in the pipeline or in the encoder, is caught as drift.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from collections.abc import Mapping
from pathlib import Path
from typing import Any, NamedTuple

from . import yamlio
from .catalogs import data_path
from .errors import AuditError
from .pipeline import audit
from .report import AuditResult, render_json
from .vulns import ImageRef

AUDIT_NAMESPACE = "ricplt"


def fixture_root() -> Path:
    return data_path("fixtures")


def load_index(root: str | Path | None = None) -> Mapping[str, Any]:
    return yamlio.load_file(Path(root or fixture_root()) / "index.yaml", "fixture index")


def fixture_audit_result(root: str | Path | None = None) -> AuditResult:
    """The combined audit of the fixture corpus, namespace-scoped to ricplt."""
    root = Path(root or fixture_root())
    return audit(
        manifests=[root / "manifests" / "vulnerable"],
        namespace=AUDIT_NAMESPACE,
        frameworks=(),
        scan_reports=sorted((root / "scan-reports").glob("*.json")),
        inventory=root / "inventory.yaml",
    )


class FixtureCheck(NamedTuple):
    cell: str
    expected: Any
    actual: Any

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def _rows(cell: str, prefix: str, want: Mapping[str, Mapping[str, Any]],
          have: Mapping[str, Mapping[str, Any]], fields: tuple[str, ...]) -> list[FixtureCheck]:
    """One check that the payload holds exactly the expected rows, then one per field of each."""
    checks = [FixtureCheck(cell, sorted(want), sorted(have))]
    for key, row in want.items():
        checks += (FixtureCheck(f"{prefix}{key}.{fld}", row[fld], have.get(key, {}).get(fld))
                   for fld in fields)
    return checks


def verify_fixtures(root: str | Path | None = None) -> list[FixtureCheck]:
    """Compare every recorded fixture expectation with the report payload.

    The expectations in `index.yaml` use the keys of the canonical JSON
    payload, recomputed here from the raw fixture files and parsed from the
    text `render_json` writes. Returns the full check list on success;
    otherwise raises AuditError naming the first mismatching cell with its
    expected and actual values.
    """
    root = Path(root or fixture_root())
    expected = load_index(root)["expected"]
    stream = io.StringIO()
    render_json(fixture_audit_result(root), stream)
    payload = json.loads(stream.getvalue())

    containers = {c["container"]: c for c in payload["containers"]}
    checks = [FixtureCheck("containers", sorted(expected["containers"]), sorted(containers))]
    for name in sorted(expected["containers"]):
        want, have = expected["containers"][name], containers.get(name, {})
        image = have.get("image")
        checks.append(
            FixtureCheck(f"{name}.image", want.get("image"), image and ImageRef(**image).render())
        )
        for group in ("vulnerabilities", "misconfigurations"):
            checks.extend(
                FixtureCheck(f"{name}.{group}.{label}", want[group][label], count)
                for label, count in have.get(group, {}).items()
            )

    checks.extend(
        FixtureCheck(f"totals.{key}", expected["totals"][key], actual)
        for key, actual in payload["totals"].items()
    )

    checks += _rows("version_findings.components", "versions.",
                    {v["component"]: v for v in expected["version_findings"]},
                    {v["component"]: v for v in payload["version_findings"]},
                    ("installed", "cve_count", "cvss_min", "cvss_max"))

    counts = Counter(f["rule_id"] for f in payload["findings"])
    checks.append(FixtureCheck("findings.rules", sorted(expected["findings"]), sorted(counts)))
    checks += (FixtureCheck(f"findings.{rule_id}", count, counts[rule_id])
               for rule_id, count in expected["findings"].items())

    checks += _rows("framework_scores.frameworks", "framework_scores.",
                    expected["framework_scores"],
                    {s["framework_id"]: s for s in payload["framework_scores"]},
                    ("percent", "evaluated_controls", "not_applicable_controls"))

    for check in checks:
        if not check.ok:
            raise AuditError(f"fixture drift at {check.cell}: "
                             f"expected {check.expected!r}, got {check.actual!r}")
    return checks
