"""Loading of rule, framework, and advisory data files.

All three catalog kinds share one file format: a YAML document whose
top-level keys discriminate the content (`rules:`, `frameworks:`,
`advisories:`). A single --catalog flag can therefore feed any of them.

A control's `rule_ids` are the one statement of which rules count toward
it: to add a rule to a built-in control, a user file redefines that framework.
"""

from __future__ import annotations

import reprlib
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import Any, NamedTuple

from . import yamlio
from .compliance import Control, Framework
from .errors import AuditError, CatalogError, MalformedVersion
from .manifests import distinct_files
from .predicates import INTEGER, LIST, NUMBER, STRING, STRINGS, entry_fields
from .rules import Rule, rule_from_mapping, validate_catalog
from .versions import AdvisoryEntry, VersionPredicate, parse_version


class CatalogBundle(NamedTuple):
    """Rules, frameworks and advisories from one catalog file or a whole run."""

    rules: list[Rule]
    frameworks: list[Framework]
    advisories: list[AdvisoryEntry]


# The fields of each catalog section and entry, and of an inventory entry. A
# framework's and a control's `title` are checked but not kept.
CATALOG_FIELDS = {"rules": (LIST, []), "frameworks": (LIST, []), "advisories": (LIST, [])}
FRAMEWORK_FIELDS = {"id": STRING, "title": (STRING, ""), "controls": LIST}
CONTROL_FIELDS = {"id": STRING, "title": (STRING, ""), "rule_ids": (STRINGS, [])}
ADVISORY_FIELDS = {
    "component": STRING, "affected": STRING, "cve_count": INTEGER, "cvss_min": NUMBER,
    "cvss_max": NUMBER, "vulnerability_classes": (STRINGS, []),
    "recommended_min_version": (STRING, None)}
INVENTORY_FIELDS = {"component": STRING, "version": STRING}


def reject_duplicates(ids: Iterable[str], message: str) -> None:
    """Raise CatalogError with `message` and the first id that repeats."""
    seen: set[str] = set()
    for item in ids:
        if item in seen:
            raise CatalogError(f"{message} {item}")
        seen.add(item)


def _framework_from_mapping(raw: Any) -> Framework:
    fw = entry_fields(raw, "framework", FRAMEWORK_FIELDS, key="id")
    controls = []
    for raw_control in fw["controls"]:
        c = entry_fields(raw_control, f"framework {fw['id']!r} control", CONTROL_FIELDS, key="id")
        controls.append(Control(c["id"], tuple(c["rule_ids"])))
    if not controls:
        raise CatalogError(f"framework {fw['id']}: controls must be non-empty")
    reject_duplicates((c.control_id for c in controls), f"framework {fw['id']}: duplicate control")
    return Framework(id=fw["id"], controls=tuple(controls))


def _advisory_from_mapping(raw: Any) -> AdvisoryEntry:
    adv = entry_fields(raw, "advisory", ADVISORY_FIELDS, key="component")
    what = f"advisory {adv['component']!r}"
    recommended = adv["recommended_min_version"]
    try:
        affected = VersionPredicate.parse(adv["affected"])
        recommended = parse_version(recommended) if recommended else None
    except MalformedVersion as exc:
        raise CatalogError(f"{what}: {exc}") from exc
    cvss_min, cvss_max = adv["cvss_min"], adv["cvss_max"]
    # Checked as given, since an integer too large for a float is out of range
    # too; written so that NaN fails: every comparison with NaN is false.
    if not 0 <= cvss_min <= cvss_max <= 10:
        # Each shown as a float, or abridged when no float holds it.
        low, high = (str(float(n)) if abs(n) < 1e308 else reprlib.repr(n)
                     for n in (cvss_min, cvss_max))
        raise CatalogError(f"{what}: cvss_min {low} and cvss_max {high} "
                           "must satisfy 0 <= cvss_min <= cvss_max <= 10")
    if adv["cve_count"] < 1:
        raise CatalogError(f"{what}: cve_count must be >= 1")
    return AdvisoryEntry(adv["component"].lower(), affected, adv["cve_count"], float(cvss_min),
                         float(cvss_max), tuple(adv["vulnerability_classes"]), recommended)


# Mappings and lists a catalog may hold once its YAML aliases are expanded.
# The shipped catalogs hold at most 161.
MAX_EXPANDED_NODES = 10_000


def _reject_alias_blowup(raw: Any, origin: str) -> None:
    """Reject a catalog that its YAML aliases make too deep or too large.

    The YAML loader caps nesting as written; aliases can nest deeper, deep
    enough to exhaust the recursion limit when a check is compiled, or
    repeat a shared node so often that compiling and evaluating its check
    takes exponential time. Walks one nesting level at a time, visiting a
    node shared by aliases once per level with the number of paths that
    reach it; a self-referencing alias nests without end.
    """
    depth = yamlio.MAX_DEPTH
    level = {id(raw): (raw, 1)} if isinstance(raw, (Mapping, list)) else {}
    expanded = 0
    for _ in range(depth):
        if not level:
            return
        expanded += sum(paths for _, paths in level.values())
        if expanded > MAX_EXPANDED_NODES:
            raise CatalogError(
                f"{origin}: expands to more than {MAX_EXPANDED_NODES} mappings and lists "
                "through aliases"
            )
        children: dict[int, tuple[Any, int]] = {}
        for parent, paths in level.values():
            for child in parent.values() if isinstance(parent, Mapping) else parent:
                if isinstance(child, (Mapping, list)):
                    _, reached = children.get(id(child), (child, 0))
                    children[id(child)] = (child, reached + paths)
        level = children
    if level:
        raise CatalogError(f"{origin}: nested deeper than {depth} levels through aliases")


def parse_catalog(raw: Any, origin: str = "<catalog>") -> CatalogBundle:
    sections = entry_fields(raw, f"catalog {origin}", CATALOG_FIELDS)
    _reject_alias_blowup(raw, origin)
    if not set(sections) & set(raw):
        raise CatalogError(f"{origin}: no rules/frameworks/advisories section found")
    bundle = CatalogBundle(
        rules=[rule_from_mapping(entry) for entry in sections["rules"]],
        frameworks=[_framework_from_mapping(entry) for entry in sections["frameworks"]],
        advisories=[_advisory_from_mapping(entry) for entry in sections["advisories"]],
    )
    reject_duplicates((rule.id for rule in bundle.rules), f"{origin}: duplicate rule id")
    reject_duplicates((fw.id for fw in bundle.frameworks), f"{origin}: duplicate framework id")
    return bundle


# The shipped catalog files, loaded before any user file and in this order,
# which is the order frameworks are scored and reported in.
BUILTIN_CATALOGS = (
    ("rules", "builtin.yaml"),
    ("frameworks", "nsa-cisa.yaml"),
    ("frameworks", "mitre-attack.yaml"),
    ("frameworks", "cis-v1.23-t1.0.1.yaml"),
    ("advisories", "builtin.yaml"),
)


def load_catalog_file(path: str | Path) -> CatalogBundle:
    path = Path(path)
    return parse_catalog(yamlio.load_file(path, "catalog"), origin=str(path))


def data_path(*parts: str) -> Path:
    """Path to a file inside the shipped package data.

    The package ships as plain files, so this is the path that
    `importlib.resources.files` gives, without importing that module.
    """
    return Path(__file__).parent.joinpath("data", *parts)


def load_catalogs(user_paths: Iterable[str | Path] = ()) -> CatalogBundle:
    """The shipped catalog files, then any user data files, merged.

    Later entries extend earlier ones; a rule or framework that reuses an
    earlier id replaces it (so e.g. the registry allow-list can be
    overridden without forking the whole catalog). Advisories only extend.
    A file reached twice (the same path, a symlink or a hard link) is read
    once, at its first position, as manifests and scan reports are.
    Every control's rule_ids must then name a merged rule (see
    `rules.validate_catalog`), before anything is evaluated.
    """
    rules_by_id: dict[str, Rule] = {}
    frameworks_by_id: dict[str, Framework] = {}
    advisories: list[AdvisoryEntry] = []
    builtin = (data_path(*parts) for parts in BUILTIN_CATALOGS)
    for path in distinct_files((*builtin, *user_paths)):
        bundle = load_catalog_file(path)
        rules_by_id.update((rule.id, rule) for rule in bundle.rules)
        frameworks_by_id.update((fw.id, fw) for fw in bundle.frameworks)
        advisories.extend(bundle.advisories)
    catalogs = CatalogBundle(
        rules=list(rules_by_id.values()),
        frameworks=list(frameworks_by_id.values()),
        advisories=advisories,
    )
    validate_catalog(catalogs.rules, catalogs.frameworks)
    return catalogs


def load_inventory(path: str | Path) -> list[tuple[str, str]]:
    """Read a component inventory file: a YAML list of {component, version}."""
    path = Path(path)
    raw = yamlio.load_file(path, "inventory")
    if not isinstance(raw, list):
        raise AuditError(f"{path}: inventory must be a list of {{component, version}} entries")
    return [tuple(entry_fields(entry, f"{path}: inventory entry", INVENTORY_FIELDS,
                               key="component").values())
            for entry in raw]
