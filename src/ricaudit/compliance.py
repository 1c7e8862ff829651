"""Framework compliance scoring.

A control is evidenced by one or more rules; a resource is applicable to a
control when its kind is covered by any referenced rule, and passes when
none of those rules fired against it. The framework score is the mean of
the applicable control scores, rounded half-up to an integer percent.
Controls without rules or without applicable resources are NotApplicable
and excluded from the mean: scoring what cannot be checked would fabricate
compliance. Scoring re-checks nothing that holds by construction:
`rules.validate_catalog` refuses a control that names an unknown rule, and
`score_framework` scores each control of a framework once.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from math import lcm
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .manifests import ResourceDocument
    from .rules import Finding, Rule


class Control(NamedTuple):
    control_id: str
    rule_ids: tuple[str, ...]


class Framework(NamedTuple):
    id: str
    controls: tuple[Control, ...]


class ControlResult(NamedTuple):
    control: Control
    applicable_resources: int
    passing_resources: int

    @property
    def not_applicable(self) -> bool:
        return self.applicable_resources == 0 or not self.control.rule_ids


class FrameworkScore(NamedTuple):
    framework_id: str
    percent: int | None
    evaluated_controls: int
    not_applicable_controls: int


class Evidence(NamedTuple):
    """One evaluated run, indexed for scoring: built once and shared by every framework."""

    rules_by_id: Mapping[str, Rule]
    refs_by_kind: Mapping[str, list[str]]
    failing_refs: Mapping[str, set[str]]

    @classmethod
    def build(
        cls,
        findings: Sequence[Finding],
        resources: Iterable[ResourceDocument],
        catalog: Sequence[Rule],
    ) -> "Evidence":
        """`resources` are the evaluated documents, with or without their bodies."""
        refs_by_kind: dict[str, list[str]] = {}
        for res in resources:
            refs_by_kind.setdefault(res.kind, []).append(res.ref)
        failing_refs: dict[str, set[str]] = {}
        for finding in findings:
            failing_refs.setdefault(finding.rule_id, set()).add(finding.resource)
        return cls({rule.id: rule for rule in catalog}, refs_by_kind, failing_refs)


def control_compliance(control: Control, evidence: Evidence) -> ControlResult:
    """Score one control against an evaluated resource set.

    Pass semantics are per-resource boolean: a resource with several
    findings from the same control still fails exactly once. A referenced
    rule missing from `evidence` raises KeyError.
    """
    referenced = [evidence.rules_by_id[rule_id] for rule_id in control.rule_ids]
    applicable = [
        ref
        for kind, refs in evidence.refs_by_kind.items()
        if any(rule.applies_to_kind(kind) for rule in referenced)
        for ref in refs
    ]
    failing_refs = set().union(*(evidence.failing_refs.get(r, ()) for r in control.rule_ids))
    passing = sum(1 for ref in applicable if ref not in failing_refs)
    return ControlResult(
        control=control,
        applicable_resources=len(applicable),
        passing_resources=passing,
    )


def framework_score(framework: Framework, results: Sequence[ControlResult]) -> FrameworkScore:
    """Average the applicable control scores into an integer percent.

    `results` hold one result per control of `framework`, as
    `score_framework` builds them.
    """
    # Each applicable control's (passing, applicable) counts.
    scores = [(r.passing_resources, r.applicable_resources)
              for r in results if not r.not_applicable]
    percent = None
    if scores:
        # The mean of passing/applicable is numerator/denominator, exactly:
        # every score is scaled to the least common multiple of the counts.
        common = lcm(*(applicable for _, applicable in scores))
        numerator = sum(passing * (common // applicable) for passing, applicable in scores)
        denominator = common * len(scores)
        # 100*mean rounded half up: floor((200*numerator + denominator) / (2*denominator)).
        percent = (200 * numerator + denominator) // (2 * denominator)
    return FrameworkScore(
        framework_id=framework.id,
        percent=percent,
        evaluated_controls=len(scores),
        not_applicable_controls=len(results) - len(scores),
    )


def score_framework(
    framework: Framework, evidence: Evidence
) -> tuple[FrameworkScore, list[ControlResult]]:
    """Convenience: score every control of a framework, then the framework."""
    results = [control_compliance(control, evidence) for control in framework.controls]
    return framework_score(framework, results), results
