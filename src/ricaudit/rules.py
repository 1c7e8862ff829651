"""Misconfiguration rule catalog and evaluation engine.

Rules are data: each one pairs a declarative check (see `predicates`) with
a fixed severity and a threat category. A rule counts toward a compliance
control only when that control's `rule_ids` lists it; the rule itself names
no control. Evaluation is pure — it never mutates resources and two
evaluations of the same inputs produce identical findings.

Findings have one shape, `Findings`, from evaluation to the report: runs
of the `Rule` that fired with the list of refs of the documents it fired
on. A finding is one ref in its rule's run; the rule holds all that its
findings share. `evaluate` judges a whole set of documents at once.
`Evaluation` judges the same set one batch (one manifest file) at a
time, keeping each document without its body unless a rule that reads
other documents also reads that body, and gives the same findings. Every
reader of findings reads them run by run, so its work per finding is at
most one ref.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
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
        # The category is checked, not kept.
        if fields["category"] not in {category.value for category in ThreatCategory}:
            raise ValueError(f"unknown threat category: {quoted(fields['category'])}")
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


class Findings:
    """Findings held as runs, read-only.

    Each run is the `Rule` that fired with the list of refs it fired on;
    a run with no refs is dropped. `len` counts the findings, not the
    runs. A ref held twice (a duplicate document) is two findings. The
    refs are the strings each document's record holds, so a finding
    costs one list slot.
    """

    def __init__(self, runs: Iterable[tuple[Rule, list[str]]]) -> None:
        # A list, not a tuple: a freed tuple stays allocated on the
        # interpreter's free list of its size, and `Evaluation` drops one
        # `Findings` per batch.
        self.refs_by_rule = [run for run in runs if run[1]]

    def __len__(self) -> int:
        return sum(len(refs) for _, refs in self.refs_by_rule)


def sorted_runs(runs: Iterable[tuple[Rule, list[str]]]) -> Findings:
    """`runs` in the order of a report: severity descending, then rule id,
    each with its refs sorted (in place)."""
    ordered = sorted(runs, key=lambda run: (-run[0].severity, run[0].id))
    for _, refs in ordered:
        refs.sort()
    return Findings(ordered)


def evaluate(
    catalog: Sequence[Rule],
    resources: Sequence[ResourceDocument],
    ctx: EvalContext | None = None,
) -> Findings:
    """Evaluate every rule against every applicable resource.

    One finding per (rule, resource) pair whose check fires: the resource's
    ref in its rule's run. Without `ctx`, `resources` are the whole set: the
    context is built from them and the runs are ordered by `sorted_runs`,
    so the result is independent of input order. With `ctx`, `resources` are
    one batch of a larger set whose facts `ctx` holds (see `Evaluation`):
    the runs come in catalog order and their refs in batch order, for the
    caller to order once. Each resource meets every rule in turn, so that
    its pod spec is walked once (see `EvalContext.pod`). A document with no
    body may be judged by rules whose checks read no BODY.
    """
    whole = ctx is None
    if whole:
        ctx = EvalContext.build(resources)
    runs: list[tuple[Rule, list[str]]] = [(rule, []) for rule in catalog]
    for doc in resources:
        for rule, refs in runs:
            if rule.applies_to_kind(doc.kind) and rule.predicate(doc.body, doc, ctx):
                refs.append(doc.ref)
    return sorted_runs(runs) if whole else Findings(runs)


class Evaluation:
    """The findings of a document set that arrives in batches, one manifest file each.

    `add` judges a batch with every rule whose check reads no CONTEXT, and
    keeps a record of each document: the document without its body, unless
    a rule whose check reads CONTEXT and BODY applies to it. `finish` judges
    every rule whose check reads CONTEXT, once, on the records, after the
    last batch. So no body outlives its batch unless the catalog has a rule
    that reads both. Each batch's runs are dropped once their refs extend
    their rule's list. The findings equal `evaluate`'s on the whole set.
    The rule ids of `catalog` are unique, as `catalogs` loads them. A plain
    class, because it accumulates.
    """

    def __init__(self, catalog: Sequence[Rule]) -> None:
        self.per_document = [r for r in catalog if CONTEXT not in r.predicate.reads]
        self.deferred = [r for r in catalog if CONTEXT in r.predicate.reads]
        self.body_readers = [r for r in self.deferred if BODY in r.predicate.reads]
        self.runs: dict[str, tuple[Rule, list[str]]] = {r.id: (r, []) for r in catalog}
        self.records: list[ResourceDocument] = []

    def _keep(self, findings: Findings) -> None:
        for rule, refs in findings.refs_by_rule:
            self.runs[rule.id][1].extend(refs)

    def add(self, documents: Sequence[ResourceDocument]) -> None:
        self._keep(evaluate(self.per_document, documents, EvalContext()))
        self.records += [doc if any(r.applies_to_kind(doc.kind) for r in self.body_readers)
                         else doc._replace(body=None) for doc in documents]

    def finish(self) -> tuple[Findings, list[ResourceDocument]]:
        """Every finding, ordered by `sorted_runs`, and the record of every document."""
        self._keep(evaluate(self.deferred, self.records, EvalContext.build(self.records)))
        return sorted_runs(self.runs.values()), self.records


def group_findings_by_app(
    findings: Findings, resources: Iterable[ResourceDocument]
) -> dict[str, dict[SeverityClass, int]]:
    """Count findings per severity class (all five) by the `app` label of the
    resource they fired on, for each app with a finding.

    Resources without an app label (cluster plumbing, RBAC objects, shared
    config) stay out of the per-container counts; their findings are still
    reported, just not attributed to a container column. The refs of each
    run are counted by app at once.
    """
    label_by_ref = {res.ref: res.app for res in resources if res.app}
    counts: dict[str, dict[SeverityClass, int]] = {}
    for rule, refs in findings.refs_by_rule:
        for app, fired in Counter(map(label_by_ref.get, refs)).items():
            if app:
                if app not in counts:
                    counts[app] = empty_counts()
                counts[app][rule.severity] += fired
    return counts
