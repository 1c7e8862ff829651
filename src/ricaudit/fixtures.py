"""Fixture corpus access and drift verification.

The package ships a desk-scale reproduction corpus: eight container scan
reports, vulnerable/hardened/planted manifest sets, and a component
inventory. `verify_fixtures` recomputes every recorded expectation from
the raw fixture files through the real pipeline, so any edit that changes
an audited number is caught as drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from . import yamlio
from .catalogs import data_path
from .errors import FixtureDrift
from .pipeline import audit
from .report import AuditResult
from .severity import TABLE_ORDER

AUDIT_NAMESPACE = "ricplt"


def fixture_root() -> Path:
    return data_path("fixtures")


def load_index(root: str | Path | None = None) -> Mapping[str, Any]:
    return yamlio.load_file(Path(root or fixture_root()) / "index.yaml", "fixture index")


def fixture_audit_result(
    root: str | Path | None = None, generated_at: str | None = None
) -> AuditResult:
    """The combined audit of the fixture corpus, namespace-scoped to ricplt."""
    root = Path(root or fixture_root())
    return audit(
        manifests=[root / "manifests" / "vulnerable"],
        namespace=AUDIT_NAMESPACE,
        frameworks=(),
        scan_reports=sorted((root / "scan-reports").glob("*.json")),
        inventory=root / "inventory.yaml",
        generated_at=generated_at,
    )


@dataclass(frozen=True)
class FixtureCheck:
    cell: str
    expected: Any
    actual: Any

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def verify_fixtures(root: str | Path | None = None) -> list[FixtureCheck]:
    """Recompute every recorded fixture expectation and compare.

    Returns the full check list on success; raises FixtureDrift naming the
    first mismatching cell otherwise.
    """
    root = Path(root or fixture_root())
    index = load_index(root)
    expected = index["expected"]
    result = fixture_audit_result(root)

    checks: list[FixtureCheck] = []
    summaries = {s.container: s for s in result.summaries}

    expected_containers = expected["containers"]
    checks.append(
        FixtureCheck("containers", sorted(expected_containers), sorted(summaries))
    )
    for name in sorted(expected_containers):
        want = expected_containers[name]
        have = summaries.get(name)
        image = have.image.render() if have and have.image else None
        checks.append(FixtureCheck(f"{name}.image", want.get("image"), image))
        for group, histogram in (
            ("vulnerabilities", have.vuln_histogram if have else {}),
            ("misconfigurations", have.misconfig_histogram if have else {}),
        ):
            for cls in TABLE_ORDER:
                label = cls.name.lower()
                checks.append(
                    FixtureCheck(
                        f"{name}.{group}.{label}",
                        want[group][label],
                        histogram.get(cls),
                    )
                )

    totals = expected["totals"]
    checks.append(
        FixtureCheck(
            "totals.vulnerability_occurrences",
            totals["vulnerability_occurrences"],
            result.totals.occurrences,
        )
    )
    checks.append(FixtureCheck("totals.unique_cves", totals["unique_cves"], result.totals.unique_cves))
    checks.append(
        FixtureCheck(
            "totals.critical_occurrences",
            totals["critical_occurrences"],
            result.critical_occurrences(),
        )
    )
    checks.append(
        FixtureCheck(
            "totals.critical_rce_unique", totals["critical_rce_unique"], result.totals.critical_rce
        )
    )
    checks.append(
        FixtureCheck(
            "totals.critical_actionable_unique",
            totals["critical_actionable_unique"],
            result.totals.critical_actionable,
        )
    )

    expected_versions = expected["version_findings"]
    actual_versions = {
        v.component: v for v in result.version_findings
    }
    checks.append(
        FixtureCheck(
            "version_findings.components",
            sorted(e["component"] for e in expected_versions),
            sorted(actual_versions),
        )
    )
    for want in expected_versions:
        component = want["component"]
        have = actual_versions.get(component)
        for fld, actual in (
            ("installed", str(have.installed) if have else None),
            ("cve_count", have.matched_entry.cve_count if have else None),
            ("cvss_min", have.matched_entry.cvss_min if have else None),
            ("cvss_max", have.matched_entry.cvss_max if have else None),
        ):
            checks.append(FixtureCheck(f"versions.{component}.{fld}", want[fld], actual))

    for check in checks:
        if not check.ok:
            raise FixtureDrift(check.cell, check.expected, check.actual)
    return checks
