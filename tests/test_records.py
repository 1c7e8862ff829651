"""What the program relies on in its record types, beyond plain tuple behaviour.

Public records are named tuples. A version compares and hashes as its three
numbers, and every record that collects results holds lists, sets and dicts
of its own.
"""

from __future__ import annotations

import importlib
import json
import operator
import pkgutil

import pytest

import ricaudit
from ricaudit.catalogs import parse_catalog
from ricaudit.manifests import load_directory
from ricaudit.versions import VersionPredicate, audit_components, parse_version
from ricaudit.vulns import ImageRef, VulnTally, parse_scan_report

OPERATORS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


@pytest.mark.parametrize("op", OPERATORS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("left, right", [
    ("v1.2", "1.2.0"),  # one triple, spelled two ways
    ("1.2.0", "v1.2"),
    ("v1.2", "1.10"),  # 2 < 10, though "v1.2" > "1.10" as text
    ("v2.0.0", "1.99"),
])
def test_version_compares_by_triple_under_every_operator(op, left, right):
    a, b = parse_version(left), parse_version(right)
    assert op(a, b) is op(tuple(a), tuple(b))
    assert op(b, a) is op(tuple(b), tuple(a))


def test_one_triple_in_any_spelling_hashes_alike():
    versions = [parse_version(text) for text in ("1.2", "v1.2", "1.2.0", "v1.2.0", " 1.2 ")]
    assert len(set(versions)) == 1
    assert {versions[0]: "found"}[versions[-1]] == "found"
    assert versions[0] == (1, 2, 0) and hash(versions[0]) == hash((1, 2, 0))


def test_upper_bound_matches_its_own_version_in_another_spelling():
    predicate = VersionPredicate.parse("<= 1.2")
    assert predicate.matches(parse_version("v1.2.0"))
    assert predicate.matches(parse_version("1.1.9"))
    assert not predicate.matches(parse_version("1.2.1"))
    assert VersionPredicate.parse("v1.2") == VersionPredicate.parse("== 1.2.0")


REPORT = json.dumps({
    "container": "e2term", "image": {"registry": "r.example", "repository": "ric/e2term",
                                     "tag": "5.0"},
    "entries": [{"cve_id": "CVE-1", "package": "p", "installed_version": "1"}],
})


# Each record that collects results, built by its producer.
@pytest.mark.parametrize("make, held", [
    (lambda empty: parse_scan_report(REPORT),
     ("rejected", "records.containers", "records.unique", "records.critical_rce",
      "records.critical_actionable")),
    (load_directory, ("documents", "errors")),
    (lambda empty: parse_catalog({"rules": []}), ("rules", "frameworks", "advisories")),
    (lambda empty: audit_components([], []), ("findings", "errors")),
    (lambda empty: VulnTally(), ("containers", "unique", "critical_rce", "critical_actionable")),
], ids=["ScanReport", "DirectoryLoad", "CatalogBundle", "VersionAudit", "VulnTally"])
def test_fresh_records_share_no_list_set_or_dict(tmp_path, make, held):
    first, second = make(tmp_path), make(tmp_path)
    for name in held:
        mine, theirs = operator.attrgetter(name)(first), operator.attrgetter(name)(second)
        assert type(mine) in (list, set, dict) and mine == theirs
        assert mine is not theirs, name


def test_no_record_defaults_to_a_list_set_or_dict():
    # A named tuple's default is one object, shared by every record built without it.
    modules = [importlib.import_module(f"ricaudit.{info.name}")
               for info in pkgutil.iter_modules(ricaudit.__path__) if info.name != "__main__"]
    records = [value for module in modules for value in vars(module).values()
               if isinstance(value, type) and hasattr(value, "_field_defaults")
               and value.__module__ == module.__name__]
    assert len(records) > 20
    for record in records:
        for name, default in record._field_defaults.items():
            assert not isinstance(default, (list, set, dict)), (record.__qualname__, name)


def test_public_records_are_tuples():
    image = ImageRef("r.example", "ric/e2term", "5.0")
    assert image == ("r.example", "ric/e2term", "5.0")
    registry, repository, tag = image
    assert image.render() == f"{registry}/{repository}:{tag}"
