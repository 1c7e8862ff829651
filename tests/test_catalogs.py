from __future__ import annotations

import re
from importlib import resources
from pathlib import Path

import pytest

from ricaudit.catalogs import (
    data_path, load_catalog_file, load_catalogs, load_inventory, parse_catalog)
from ricaudit.errors import AuditError, CatalogError
from ricaudit.severity import SeverityClass


def test_data_path_is_the_package_resource_path():
    # Diagnostics print these paths, so they stay the very strings they were.
    data = Path(resources.files("ricaudit")) / "data"
    assert str(data_path()) == str(data)
    assert str(data_path("fixtures", "index.yaml")) == str(data / "fixtures" / "index.yaml")
    assert data_path("fixtures", "index.yaml").is_file()


def test_mixed_catalog_file(tmp_path):
    path = tmp_path / "mixed.yaml"
    path.write_text(
        """
rules:
  - id: X-1
    title: t
    severity: low
    category: supply-chain
    applies_to: [Pod]
    check: {path_exists: spec}
frameworks:
  - id: org-baseline
    title: Org baseline
    controls:
      - id: B-1
        title: t
        rule_ids: [X-1]
advisories:
  - component: nginx
    affected: "<= 1.20.0"
    cve_count: 2
    cvss_min: 4.0
    cvss_max: 6.0
"""
    )
    bundle = load_catalog_file(path)
    assert [r.id for r in bundle.rules] == ["X-1"]
    assert [f.id for f in bundle.frameworks] == ["org-baseline"]
    assert [a.component for a in bundle.advisories] == ["nginx"]


def test_catalog_without_known_sections_rejected(tmp_path):
    path = tmp_path / "odd.yaml"
    path.write_text("settings: {}\n")
    with pytest.raises(CatalogError):
        load_catalog_file(path)


def test_missing_catalog_file(tmp_path):
    with pytest.raises(AuditError, match=r"^cannot read catalog .*none\.yaml: \[Errno 2\]"):
        load_catalog_file(tmp_path / "none.yaml")


def test_framework_duplicate_control_rejected(tmp_path):
    path = tmp_path / "dup.yaml"
    path.write_text(
        """
frameworks:
  - id: f
    title: t
    controls:
      - {id: A, title: a, rule_ids: []}
      - {id: A, title: b, rule_ids: []}
"""
    )
    with pytest.raises(CatalogError):
        load_catalog_file(path)


def test_advisory_invariants_enforced(tmp_path):
    path = tmp_path / "adv.yaml"
    path.write_text(
        """
advisories:
  - component: x
    affected: "== 1.0.0"
    cve_count: 0
    cvss_min: 1.0
    cvss_max: 2.0
"""
    )
    with pytest.raises(CatalogError):
        load_catalog_file(path)


ADVISORY = {"component": "helm", "affected": "== 3.1.0", "cve_count": 2,
            "cvss_min": 4.0, "cvss_max": 7.5}
CVSS_RANGE = "must satisfy 0 <= cvss_min <= cvss_max <= 10"


@pytest.mark.parametrize("changes, reason", [
    pytest.param(changes, reason, id=repr(changes)) for changes, reason in [
        ({"cvss_max": float("nan")}, f"cvss_min 4.0 and cvss_max nan {CVSS_RANGE}"),
        ({"cvss_max": 10.5}, f"cvss_min 4.0 and cvss_max 10.5 {CVSS_RANGE}"),
        ({"cvss_min": -0.5}, f"cvss_min -0.5 and cvss_max 7.5 {CVSS_RANGE}"),
        # The version fields are parsed before the numbers are checked.
        ({"affected": "banana", "cve_count": 0}, "not a numeric version: 'banana'"),
    ]
])
def test_advisory_numbers_checked_when_parsed(changes, reason):
    with pytest.raises(CatalogError) as info:
        parse_catalog({"advisories": [{**ADVISORY, **changes}]})
    assert str(info.value) == f"advisory 'helm': {reason}"


def test_inventory_shape_enforced(tmp_path):
    path = tmp_path / "inv.yaml"
    path.write_text("kubernetes: 1.16.0\n")
    with pytest.raises(AuditError, match=r"inv\.yaml: inventory must be a list of "
                                         r"\{component, version\} entries$"):
        load_inventory(path)


def test_inventory_roundtrip(tmp_path):
    path = tmp_path / "inv.yaml"
    path.write_text("- component: helm\n  version: 3.5.4\n")
    assert load_inventory(path) == [("helm", "3.5.4")]


def test_frameworks_in_fixed_order_then_user_files(tmp_path):
    # Framework scores are reported in this order.
    builtin = ["nsa-cisa", "mitre-attack", "cis-v1.23-t1.0.1"]
    assert [fw.id for fw in load_catalogs().frameworks] == builtin
    path = tmp_path / "fw.yaml"
    path.write_text("frameworks:\n  - {id: org-baseline, controls: [{id: B-1, rule_ids: []}]}\n")
    assert [fw.id for fw in load_catalogs([path]).frameworks] == [*builtin, "org-baseline"]


def test_self_referencing_alias_rejected(tmp_path):
    path = tmp_path / "cycle.yaml"
    path.write_text(
        "rules:\n  - &r {id: X, title: t, severity: low, category: supply-chain,"
        " applies_to: [Pod], check: {not: *r}}\n"
    )
    with pytest.raises(CatalogError, match="nested deeper than 256 levels"):
        load_catalog_file(path)


def test_catalog_given_again_keeps_its_first_position(tmp_path):
    def rule_file(name: str, severity: str) -> Path:
        path = tmp_path / name
        path.write_text(
            "rules:\n  - {id: X-1, title: t, severity: %s, category: supply-chain,"
            " applies_to: [Pod], check: {path_exists: spec}}\n" % severity
        )
        return path

    a, b = rule_file("a.yaml", "low"), rule_file("b.yaml", "high")
    [rule] = [r for r in load_catalogs([a, b, a]).rules if r.id == "X-1"]
    assert rule.severity is SeverityClass.HIGH


@pytest.mark.parametrize("name", ["none.yaml", "."])
def test_unreadable_catalog_given_twice_names_it(tmp_path, name):
    path = tmp_path / name
    with pytest.raises(AuditError, match=rf"^cannot read catalog {re.escape(str(path))}: \[Errno"):
        load_catalogs([path, path])
