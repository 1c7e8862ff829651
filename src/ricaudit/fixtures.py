"""Fixture corpus access and drift verification.

The package ships a desk-scale reproduction corpus: eight container scan
reports, vulnerable/hardened/planted manifest sets, and a component
inventory. `verify_fixtures` recomputes the report payload from the raw
fixture files through the real pipeline and compares it with every
recorded expectation, so any edit that changes an audited number is
caught as drift.
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path
from typing import Any, NamedTuple

from . import yamlio
from .catalogs import data_path
from .errors import AuditError
from .pipeline import audit
from .report import AuditResult, to_payload
from .vulns import ImageRef

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


class FixtureCheck(NamedTuple):
    cell: str
    expected: Any
    actual: Any

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def verify_fixtures(root: str | Path | None = None) -> list[FixtureCheck]:
    """Compare every recorded fixture expectation with the report payload.

    The expectations in `index.yaml` use the keys of the canonical JSON
    payload, recomputed here from the raw fixture files. Returns the full
    check list on success; otherwise raises AuditError naming the first
    mismatching cell with its expected and actual values.
    """
    root = Path(root or fixture_root())
    expected = load_index(root)["expected"]
    payload = to_payload(fixture_audit_result(root))

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

    versions = {v["component"]: v for v in payload["version_findings"]}
    checks.append(
        FixtureCheck(
            "version_findings.components",
            sorted(e["component"] for e in expected["version_findings"]),
            sorted(versions),
        )
    )
    for want in expected["version_findings"]:
        component = want["component"]
        have = versions.get(component, {})
        checks.extend(
            FixtureCheck(f"versions.{component}.{fld}", want[fld], have.get(fld))
            for fld in ("installed", "cve_count", "cvss_min", "cvss_max")
        )

    for check in checks:
        if not check.ok:
            raise AuditError(f"fixture drift at {check.cell}: "
                             f"expected {check.expected!r}, got {check.actual!r}")
    return checks
