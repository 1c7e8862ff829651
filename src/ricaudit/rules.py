"""Misconfiguration rule catalog and evaluation engine.

Rules are data: each one pairs a declarative check (see `predicates`) with
a fixed severity, a threat category, and references into the compliance
framework catalogs. Evaluation is pure — it never mutates resources and
two evaluations of the same inputs produce identical findings.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any, NamedTuple

from .errors import CatalogError
from .manifests import ResourceDocument, resource_ref
from .predicates import ANY, STRING, STRINGS, Check, EvalContext, compile_check, entry_fields
from .severity import SeverityClass, ThreatCategory, empty_counts

WILDCARD_KIND = "*"


class Rule(NamedTuple):
    id: str
    title: str
    description: str
    severity: SeverityClass
    category: ThreatCategory
    applies_to: frozenset[str]
    check: Mapping[str, Any]
    control_refs: tuple[tuple[str, str], ...]
    remediation: str
    # `check` compiled once, when the rule is parsed. Equality and the hash
    # ignore it: two parses of one rule compile two equal checks.
    predicate: Check

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return self[:-1] == other[:-1]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:-1])

    def applies_to_kind(self, kind: str) -> bool:
        return WILDCARD_KIND in self.applies_to or kind in self.applies_to


class Finding(NamedTuple):
    """One rule firing against one resource."""

    rule_id: str
    resource: str
    severity: SeverityClass
    message: str
    remediation: str


def parse_control_ref(ref: str) -> tuple[str, str]:
    """Split "framework-id/control-id" on the first slash."""
    framework_id, _, control_id = ref.partition("/")
    if not framework_id or not control_id:
        raise CatalogError(f"control ref must look like 'framework/control': {ref!r}")
    return framework_id, control_id


# The fields of a rule entry.
RULE_FIELDS = {
    "id": STRING, "title": STRING, "description": (STRING, ""), "severity": STRING,
    "category": STRING, "applies_to": STRINGS, "check": ANY,
    "control_refs": (STRINGS, []), "remediation": (STRING, "")}


def rule_from_mapping(raw: Any) -> Rule:
    fields = entry_fields(raw, "rule", RULE_FIELDS, key="id")
    try:
        if not fields["applies_to"]:
            raise ValueError("applies_to must be non-empty")
        return Rule(**{
            **fields,
            "severity": SeverityClass.from_label(fields["severity"]),
            "category": ThreatCategory(fields["category"]),
            "applies_to": frozenset(fields["applies_to"]),
            "control_refs": tuple(parse_control_ref(r) for r in fields["control_refs"]),
            "predicate": compile_check(fields["check"]),
        })
    except (ValueError, CatalogError) as exc:
        raise CatalogError(f"rule {fields['id']!r}: {exc}") from exc


def reject_duplicates(ids: Iterable[str], message: str) -> None:
    """Raise CatalogError with `message` and the first id that repeats."""
    seen: set[str] = set()
    for item in ids:
        if item in seen:
            raise CatalogError(f"{message} {item}")
        seen.add(item)


def validate_catalog(catalog: Sequence[Rule], frameworks: Iterable[Any] | None = None) -> None:
    """Check catalog invariants; raises CatalogError before any evaluation.

    With `frameworks` given, also requires every control_ref to resolve
    against a loaded framework, and every control's rule_ids against a rule
    (`control <framework>/<control> references unknown rule <id>`).
    """
    reject_duplicates((rule.id for rule in catalog), "duplicate rule id:")
    if frameworks is not None:
        rule_ids = {rule.id for rule in catalog}
        known = set()
        for fw in frameworks:
            for control in fw.controls:
                known.add((fw.id, control.control_id))
                for rule_id in control.rule_ids:
                    if rule_id not in rule_ids:
                        raise CatalogError(f"control {fw.id}/{control.control_id} references "
                                            f"unknown rule {rule_id!r}")
        for rule in catalog:
            for ref in rule.control_refs:
                if ref not in known:
                    raise CatalogError(
                        f"rule {rule.id}: control ref {ref[0]}/{ref[1]} does not resolve"
                    )


def evaluate(catalog: Sequence[Rule], resources: Sequence[ResourceDocument]) -> list[Finding]:
    """Evaluate every rule against every applicable resource.

    One Finding per (rule, resource) pair whose check fires. Output is
    sorted by severity descending, then rule id, then resource ref, so the
    result is independent of input order. Each resource meets every rule in
    turn, so that its pod spec is walked and its ref rendered once (see
    `EvalContext.pod`).
    """
    validate_catalog(catalog)
    ctx = EvalContext.build(resources)
    findings = [
        Finding(
            rule_id=rule.id,
            resource=ref,
            severity=rule.severity,
            message=rule.title,
            remediation=rule.remediation,
        )
        for doc, ref in zip(resources, map(resource_ref, resources))
        for rule in catalog
        if rule.applies_to_kind(doc.kind) and rule.predicate(doc.body, doc, ctx)
    ]
    findings.sort(key=lambda f: (-f.severity, f.rule_id, f.resource))
    return findings


def severity_histogram(findings: Iterable[Finding]) -> dict[SeverityClass, int]:
    """Zero-filled counts per severity class; sums to the number of findings."""
    counts = empty_counts()
    for finding in findings:
        counts[finding.severity] += 1
    return counts


def group_findings_by_app(
    findings: Sequence[Finding], resources: Sequence[ResourceDocument]
) -> dict[str, list[Finding]]:
    """Group findings by the `app` label of the resource they fired on.

    Resources without an app label (cluster plumbing, RBAC objects, shared
    config) stay out of the per-container grouping; their findings are
    still reported, just not attributed to a container column.
    """
    label_by_ref: dict[str, str] = {}
    for doc in resources:
        app = doc.labels.get("app") or doc.labels.get("app.kubernetes.io/name")
        if app:
            label_by_ref[resource_ref(doc)] = app
    grouped: dict[str, list[Finding]] = {}
    for finding in findings:
        app = label_by_ref.get(finding.resource)
        if app:
            grouped.setdefault(app, []).append(finding)
    return grouped
