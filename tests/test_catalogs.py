from __future__ import annotations

from importlib import resources
from pathlib import Path

import pytest

from ricaudit.catalogs import data_path, load_catalog_file, load_catalogs, load_inventory
from ricaudit.errors import CatalogError, IoError


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
    with pytest.raises(IoError):
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


def test_inventory_shape_enforced(tmp_path):
    path = tmp_path / "inv.yaml"
    path.write_text("kubernetes: 1.16.0\n")
    with pytest.raises(IoError):
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
