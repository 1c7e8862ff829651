"""Misconfiguration rule catalog and evaluation engine.

Rules are data: each one pairs a declarative check (see `predicates`) with
a fixed severity and a threat category. A rule counts toward a compliance
control only when that control's `rule_ids` lists it; the rule itself names
no control. Evaluation is pure — it never mutates resources and two
evaluations of the same inputs produce identical findings.

`evaluate` judges a whole set of documents at once. `Evaluation` judges
the same set one batch (one manifest file) at a time, keeping each
document without its body unless a rule that reads other documents
also reads that body, and gives the same findings. It keeps each finding
as its document's ref in its rule's list and hands them on as `Findings`:
each rule's `FindingHead`, the part that all its findings share, with its
refs. The consumers that aggregate findings read them head by head, so
their work per finding is one ref; `Findings.of` groups a plain list of
findings the same way.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import groupby
from typing import TYPE_CHECKING, Any, NamedTuple

from .errors import CatalogError, quoted
from .predicates import (
    ANY, BODY, CONTEXT, STRING, STRINGS, Check, EvalContext, compile_check, entry_fields)
from .severity import SeverityClass, ThreatCategory, empty_counts

if TYPE_CHECKING:
    from .manifests import ResourceDocument

WILDCARD_KIND = "*"


class Rule(NamedTuple):
    """A parsed rule entry. Its `description` and `category` are checked but
    not kept; its `check` is kept compiled, as `predicate`."""

    id: str
    title: str
    severity: SeverityClass
    applies_to: frozenset[str]
    remediation: str
    predicate: Check

    def applies_to_kind(self, kind: str) -> bool:
        return WILDCARD_KIND in self.applies_to or kind in self.applies_to


class Finding(NamedTuple):
    """One rule firing against one resource."""

    rule_id: str
    resource: str
    severity: SeverityClass
    message: str
    remediation: str


class FindingHead(NamedTuple):
    """All of a `Finding` but its resource: what every finding of one rule shares."""

    rule_id: str
    severity: SeverityClass
    message: str
    remediation: str

    @classmethod
    def of_rule(cls, rule: Rule) -> FindingHead:
        return cls(rule.id, rule.severity, rule.title, rule.remediation)

    @classmethod
    def of_finding(cls, finding: Finding) -> FindingHead:
        return cls(finding.rule_id, finding.severity, finding.message, finding.remediation)


# The fields of a rule entry; any other key is ignored.
RULE_FIELDS = {
    "id": STRING, "title": STRING, "description": (STRING, ""), "severity": STRING,
    "category": STRING, "applies_to": STRINGS, "check": ANY, "remediation": (STRING, "")}


def rule_from_mapping(raw: Any) -> Rule:
    fields = entry_fields(raw, "rule", RULE_FIELDS, key="id")
    try:
        if not fields["applies_to"]:
            raise ValueError("applies_to must be non-empty")
        severity = SeverityClass.from_label(fields["severity"])
        ThreatCategory(fields["category"])  # checked, not kept: an unknown one is a ValueError
        return Rule(fields["id"], fields["title"], severity, frozenset(fields["applies_to"]),
                    fields["remediation"], compile_check(fields["check"]))
    except (ValueError, CatalogError) as exc:
        raise CatalogError(f"rule {quoted(fields['id'])}: {exc}") from exc


def validate_catalog(catalog: Sequence[Rule], frameworks: Iterable[Any]) -> None:
    """Require every control's rule_ids to name a rule of `catalog`.

    Raises CatalogError, before any evaluation, naming the first that does
    not (`control <framework>/<control> references unknown rule <id>`).
    """
    rule_ids = {rule.id for rule in catalog}
    for fw in frameworks:
        for control in fw.controls:
            for rule_id in control.rule_ids:
                if rule_id not in rule_ids:
                    raise CatalogError(f"control {quoted(fw.id)}/{quoted(control.control_id)} "
                                       f"references unknown rule {quoted(rule_id)}")


def report_order(finding: Finding) -> tuple:
    """Sort key of findings in a report: severity descending, then rule id, then resource ref."""
    return -finding.severity, finding.rule_id, finding.resource


def evaluate(
    catalog: Sequence[Rule],
    resources: Sequence[ResourceDocument],
    ctx: EvalContext | None = None,
) -> list[Finding]:
    """Evaluate every rule against every applicable resource.

    One Finding per (rule, resource) pair whose check fires. Without `ctx`,
    `resources` are the whole set: the context is built from them and the
    findings are sorted by `report_order`, so the result is independent of
    input order. With `ctx`, `resources` are one batch of a larger set whose
    facts `ctx` holds (see `Evaluation`): the findings come in batch order,
    for the caller to sort once. Each resource meets every rule in turn, so
    that its pod spec is walked once (see `EvalContext.pod`). A document
    with no body may be judged by rules whose checks read no BODY.
    """
    whole = ctx is None
    if whole:
        ctx = EvalContext.build(resources)
    findings = [
        Finding(
            rule_id=rule.id,
            resource=doc.ref,
            severity=rule.severity,
            message=rule.title,
            remediation=rule.remediation,
        )
        for doc in resources
        for rule in catalog
        if rule.applies_to_kind(doc.kind) and rule.predicate(doc.body, doc, ctx)
    ]
    if whole:
        findings.sort(key=report_order)
    return findings


class Findings:
    """Findings held as runs of one head each, read-only.

    Each run is a `FindingHead` with the list of refs it fired on.
    Iterating yields one `Finding` per ref, built when it is read, run by
    run in the order given; `len` counts them. A ref held twice (a
    duplicate document) is two findings. `Evaluation.finish` gives one run
    per rule that fired, by severity descending, then id, each with its
    refs sorted, which is `report_order`. The refs are the strings each
    document's record holds, so a finding costs one list slot, not one
    tuple.
    """

    def __init__(self, refs_by_rule: Iterable[tuple[FindingHead, list[str]]]) -> None:
        self.refs_by_rule = tuple(refs_by_rule)
        self.count = sum(len(refs) for _, refs in self.refs_by_rule)

    @classmethod
    def of(cls, findings: Iterable[Finding]) -> Findings:
        """`findings` in their order, each run of findings with one head held as one entry."""
        if isinstance(findings, Findings):
            return findings
        return cls((head, [f.resource for f in run])
                   for head, run in groupby(findings, FindingHead.of_finding))

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        """Equal to another `Findings` that yields the same findings in the same order."""
        if not isinstance(other, Findings):
            return NotImplemented
        return list(self) == list(other)

    def __iter__(self) -> Iterator[Finding]:
        for (rule_id, severity, message, remediation), refs in self.refs_by_rule:
            for ref in refs:
                yield Finding(rule_id, ref, severity, message, remediation)


class Evaluation:
    """The findings of a document set that arrives in batches, one manifest file each.

    `add` judges a batch with every rule whose check reads no CONTEXT, and
    keeps a record of each document: the document without its body, unless
    a rule whose check reads CONTEXT and BODY applies to it. `finish` judges
    every rule whose check reads CONTEXT, once, on the records, after the
    last batch. So no body outlives its batch unless the catalog has a rule
    that reads both. Each batch's findings are dropped once their refs are
    appended to their rule's list. The findings equal `evaluate`'s on the
    whole set. The rule ids of `catalog` are unique, as `catalogs` loads
    them. A plain class, because it accumulates.
    """

    def __init__(self, catalog: Sequence[Rule]) -> None:
        self.per_document = [r for r in catalog if CONTEXT not in r.predicate.reads]
        self.deferred = [r for r in catalog if CONTEXT in r.predicate.reads]
        self.body_readers = [r for r in self.deferred if BODY in r.predicate.reads]
        self.refs: dict[str, tuple[FindingHead, list[str]]] = {
            r.id: (FindingHead.of_rule(r), []) for r in catalog}
        self.records: list[ResourceDocument] = []

    def _keep(self, findings: list[Finding]) -> None:
        for finding in findings:
            self.refs[finding.rule_id][1].append(finding.resource)

    def add(self, documents: Sequence[ResourceDocument]) -> None:
        self._keep(evaluate(self.per_document, documents, EvalContext()))
        self.records += [doc if any(r.applies_to_kind(doc.kind) for r in self.body_readers)
                         else doc._replace(body=None) for doc in documents]

    def finish(self) -> tuple[Findings, list[ResourceDocument]]:
        """Every finding, in `report_order`, and the record of every document."""
        self._keep(evaluate(self.deferred, self.records, EvalContext.build(self.records)))
        fired = sorted((entry for entry in self.refs.values() if entry[1]),
                       key=lambda entry: (-entry[0].severity, entry[0].rule_id))
        for _, refs in fired:
            refs.sort()
        return Findings(fired), self.records


def group_findings_by_app(
    findings: Findings, resources: Iterable[ResourceDocument]
) -> dict[str, dict[SeverityClass, int]]:
    """Count findings per severity class (all five) by the `app` label of the
    resource they fired on, for each app with a finding.

    Resources without an app label (cluster plumbing, RBAC objects, shared
    config) stay out of the per-container counts; their findings are still
    reported, just not attributed to a container column. The refs of each
    head are counted by app at once.
    """
    label_by_ref = {res.ref: res.app for res in resources if res.app}
    counts: dict[str, dict[SeverityClass, int]] = {}
    for head, refs in findings.refs_by_rule:
        for app, fired in Counter(map(label_by_ref.get, refs)).items():
            if app:
                if app not in counts:
                    counts[app] = empty_counts()
                counts[app][head.severity] += fired
    return counts
