"""Loading of rule, framework, and advisory data files.

All three catalog kinds share one file format: a YAML document whose
top-level keys discriminate the content (`rules:`, `frameworks:`,
`advisories:`). A single --catalog flag can therefore feed any of them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import Any, NamedTuple

from . import yamlio
from .compliance import Control, Framework
from .errors import CatalogError, IoError, MalformedVersion
from .predicates import INTEGER, LIST, NUMBER, STRING, STRINGS, entry_fields
from .rules import Rule, reject_duplicates, rule_from_mapping, validate_catalog
from .versions import AdvisoryEntry, VersionPredicate, parse_version


class _CatalogBundle(NamedTuple):
    rules: list[Rule]
    frameworks: list[Framework]
    advisories: list[AdvisoryEntry]


class CatalogBundle(_CatalogBundle):
    """Rules, frameworks and advisories from one catalog file or a whole run."""

    __slots__ = ()

    def __new__(cls, rules: list[Rule] | None = None, frameworks: list[Framework] | None = None,
                advisories: list[AdvisoryEntry] | None = None) -> CatalogBundle:
        # A NamedTuple default is one object shared by every instance.
        return super().__new__(cls, [] if rules is None else rules,
                               [] if frameworks is None else frameworks,
                               [] if advisories is None else advisories)


# The fields of each catalog section and entry, and of an inventory entry.
CATALOG_FIELDS = {"rules": (LIST, []), "frameworks": (LIST, []), "advisories": (LIST, [])}
FRAMEWORK_FIELDS = {"id": STRING, "title": (STRING, ""), "controls": LIST}
CONTROL_FIELDS = {"id": STRING, "title": (STRING, ""), "rule_ids": (STRINGS, [])}
ADVISORY_FIELDS = {
    "component": STRING, "affected": STRING, "cve_count": INTEGER, "cvss_min": NUMBER,
    "cvss_max": NUMBER, "vulnerability_classes": (STRINGS, []),
    "recommended_min_version": (STRING, None)}
INVENTORY_FIELDS = {"component": STRING, "version": STRING}


def _framework_from_mapping(raw: Any) -> Framework:
    fw = entry_fields(raw, "framework", FRAMEWORK_FIELDS, key="id")
    controls = []
    for raw_control in fw["controls"]:
        c = entry_fields(raw_control, f"framework {fw['id']!r} control", CONTROL_FIELDS, key="id")
        controls.append(Control(fw["id"], c["id"], c["title"], tuple(c["rule_ids"])))
    if not controls:
        raise CatalogError(f"framework {fw['id']}: controls must be non-empty")
    reject_duplicates((c.control_id for c in controls), f"framework {fw['id']}: duplicate control")
    return Framework(id=fw["id"], title=fw["title"], controls=tuple(controls))


def _advisory_from_mapping(raw: Any) -> AdvisoryEntry:
    adv = entry_fields(raw, "advisory", ADVISORY_FIELDS, key="component")
    recommended = adv["recommended_min_version"]
    try:
        return AdvisoryEntry(
            component=adv["component"].lower(),
            affected=VersionPredicate.parse(adv["affected"]),
            cve_count=adv["cve_count"],
            cvss_min=float(adv["cvss_min"]),
            cvss_max=float(adv["cvss_max"]),
            vulnerability_classes=tuple(adv["vulnerability_classes"]),
            recommended_min_version=parse_version(recommended) if recommended else None,
        )
    except (ValueError, MalformedVersion) as exc:
        raise CatalogError(f"advisory {adv['component']!r}: {exc}") from exc


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
    The merged rule catalog is validated before anything is evaluated.
    """
    rules_by_id: dict[str, Rule] = {}
    frameworks_by_id: dict[str, Framework] = {}
    advisories: list[AdvisoryEntry] = []
    for path in (*(data_path(*parts) for parts in BUILTIN_CATALOGS), *user_paths):
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
        raise IoError(f"{path}: inventory must be a list of {{component, version}} entries")
    return [tuple(entry_fields(entry, f"{path}: inventory entry", INVENTORY_FIELDS,
                               key="component").values())
            for entry in raw]
