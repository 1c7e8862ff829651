"""Loading of rule, framework, and advisory data files.

All three catalog kinds share one file format: a YAML document whose
top-level keys discriminate the content (`rules:`, `frameworks:`,
`advisories:`). A single --catalog flag can therefore feed any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Mapping

from . import yamlio
from .compliance import Control, Framework
from .errors import CatalogError, InvalidYaml, IoError
from .rules import Rule, reject_duplicates, rule_from_mapping, validate_catalog
from .versions import AdvisoryEntry, VersionPredicate, parse_version


@dataclass
class CatalogBundle:
    """Rules, frameworks and advisories from one catalog file or a whole run."""

    rules: list[Rule] = field(default_factory=list)
    frameworks: list[Framework] = field(default_factory=list)
    advisories: list[AdvisoryEntry] = field(default_factory=list)


def _framework_from_mapping(raw: Mapping[str, Any]) -> Framework:
    try:
        framework_id = str(raw["id"])
        controls = tuple(
            Control(
                framework_id=framework_id,
                control_id=str(c["id"]),
                title=str(c.get("title", "")),
                rule_ids=tuple(str(r) for r in (c.get("rule_ids") or [])),
            )
            for c in raw["controls"]
        )
    except KeyError as exc:
        raise CatalogError(f"framework {raw.get('id')!r}: missing field {exc}") from exc
    if not controls:
        raise CatalogError(f"framework {framework_id}: controls must be non-empty")
    reject_duplicates((c.control_id for c in controls), f"framework {framework_id}: duplicate control")
    return Framework(id=framework_id, title=str(raw.get("title", "")), controls=controls)


def _advisory_from_mapping(raw: Mapping[str, Any]) -> AdvisoryEntry:
    try:
        recommended = raw.get("recommended_min_version")
        return AdvisoryEntry(
            component=str(raw["component"]).lower(),
            affected=VersionPredicate.parse(str(raw["affected"])),
            cve_count=int(raw["cve_count"]),
            cvss_min=float(raw["cvss_min"]),
            cvss_max=float(raw["cvss_max"]),
            vulnerability_classes=tuple(str(c) for c in raw.get("vulnerability_classes", [])),
            recommended_min_version=parse_version(str(recommended)) if recommended else None,
        )
    except KeyError as exc:
        raise CatalogError(f"advisory {raw.get('component')!r}: missing field {exc}") from exc
    except ValueError as exc:
        raise CatalogError(f"advisory {raw.get('component')!r}: {exc}") from exc


def parse_catalog(raw: Mapping[str, Any], origin: str = "<catalog>") -> CatalogBundle:
    if not isinstance(raw, Mapping):
        raise CatalogError(f"{origin}: catalog must be a mapping")
    known = {"rules", "frameworks", "advisories"}
    if not known & set(raw):
        raise CatalogError(f"{origin}: no rules/frameworks/advisories section found")
    bundle = CatalogBundle()
    for section, parser, target in (
        ("rules", rule_from_mapping, bundle.rules),
        ("frameworks", _framework_from_mapping, bundle.frameworks),
        ("advisories", _advisory_from_mapping, bundle.advisories),
    ):
        entries = raw.get(section) or []
        if not isinstance(entries, list):
            raise CatalogError(f"{origin}: section {section!r} must be a list")
        for entry in entries:
            target.append(parser(entry))
    reject_duplicates((rule.id for rule in bundle.rules), f"{origin}: duplicate rule id")
    reject_duplicates((fw.id for fw in bundle.frameworks), f"{origin}: duplicate framework id")
    return bundle


def load_catalog_file(path: str | Path) -> CatalogBundle:
    path = Path(path)
    try:
        raw = yamlio.load(path.read_bytes())
    except OSError as exc:
        raise IoError(f"cannot read catalog {path}: {exc}") from exc
    except InvalidYaml as exc:
        raise CatalogError(f"{path}: invalid YAML: {exc}") from exc
    return parse_catalog(raw, origin=str(path))


def data_path(*parts: str) -> Path:
    """Path to a file inside the shipped package data."""
    return Path(resources.files("ricaudit").joinpath("data", *parts))


def _load_data_yaml(*parts: str) -> Any:
    return yamlio.load(data_path(*parts).read_bytes())


@lru_cache(maxsize=1)
def _builtin_rules() -> tuple[Rule, ...]:
    bundle = parse_catalog(_load_data_yaml("rules", "builtin.yaml"), origin="builtin rules")
    return tuple(bundle.rules)


def load_builtin_rules() -> list[Rule]:
    return list(_builtin_rules())


@lru_cache(maxsize=1)
def _builtin_frameworks() -> tuple[Framework, ...]:
    frameworks = []
    for name in ("nsa-cisa", "mitre-attack", "cis-v1.23-t1.0.1"):
        bundle = parse_catalog(_load_data_yaml("frameworks", f"{name}.yaml"), origin=name)
        frameworks.extend(bundle.frameworks)
    return tuple(frameworks)


def load_builtin_frameworks() -> list[Framework]:
    return list(_builtin_frameworks())


@lru_cache(maxsize=1)
def _builtin_advisories() -> tuple[AdvisoryEntry, ...]:
    bundle = parse_catalog(_load_data_yaml("advisories", "builtin.yaml"), origin="builtin advisories")
    return tuple(bundle.advisories)


def load_builtin_advisories() -> list[AdvisoryEntry]:
    return list(_builtin_advisories())


def load_catalogs(user_paths: Iterable[str | Path] = ()) -> CatalogBundle:
    """Builtin rules, frameworks, and advisories plus any user data files.

    User entries extend the builtins; a user rule or framework that reuses
    a builtin id replaces it (so e.g. the registry allow-list can be
    overridden without forking the whole catalog). Advisories only extend.
    The merged rule catalog is validated before anything is evaluated.
    """
    rules_by_id = {rule.id: rule for rule in load_builtin_rules()}
    frameworks_by_id = {fw.id: fw for fw in load_builtin_frameworks()}
    advisories = load_builtin_advisories()
    for path in user_paths:
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
    try:
        raw = yamlio.load(path.read_bytes())
    except OSError as exc:
        raise IoError(f"cannot read inventory {path}: {exc}") from exc
    except InvalidYaml as exc:
        raise IoError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(raw, list):
        raise IoError(f"{path}: inventory must be a list of {{component, version}} entries")
    inventory = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, Mapping) or "component" not in entry or "version" not in entry:
            raise IoError(f"{path}: entry {i} must have 'component' and 'version'")
        inventory.append((str(entry["component"]), str(entry["version"])))
    return inventory
