"""Framework compliance scoring.

A control is evidenced by one or more rules; a resource is applicable to a
control when its kind is covered by any referenced rule, and passes when
none of those rules fired against it. The framework score is the mean of
the applicable control scores, rounded half-up to an integer percent.
Controls without rules or without applicable resources are NotApplicable
and excluded from the mean: scoring what cannot be checked would fabricate
compliance.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import IncompleteResults, UnknownRuleId
from .manifests import ResourceDocument, resource_ref
from .rules import Finding, Rule


@dataclass(frozen=True)
class Control:
    framework_id: str
    control_id: str
    title: str
    rule_ids: tuple[str, ...]


@dataclass(frozen=True)
class Framework:
    id: str
    title: str
    controls: tuple[Control, ...]


@dataclass(frozen=True)
class ControlResult:
    control: Control
    applicable_resources: int
    passing_resources: int

    @property
    def not_applicable(self) -> bool:
        return self.applicable_resources == 0 or not self.control.rule_ids

    @property
    def score(self) -> Fraction | None:
        if self.not_applicable:
            return None
        return Fraction(self.passing_resources, self.applicable_resources)


@dataclass(frozen=True)
class FrameworkScore:
    framework_id: str
    percent: int | None
    evaluated_controls: int
    not_applicable_controls: int


@dataclass(frozen=True)
class Evidence:
    """One evaluated run, indexed for scoring: built once and shared by every framework."""

    rules_by_id: Mapping[str, Rule]
    refs_by_kind: Mapping[str, list[str]]
    failing_refs: Mapping[str, set[str]]

    @classmethod
    def build(
        cls,
        findings: Sequence[Finding],
        resources: Sequence[ResourceDocument],
        catalog: Sequence[Rule],
    ) -> "Evidence":
        refs_by_kind: dict[str, list[str]] = {}
        for doc in resources:
            refs_by_kind.setdefault(doc.kind, []).append(resource_ref(doc))
        failing_refs: dict[str, set[str]] = {}
        for finding in findings:
            failing_refs.setdefault(finding.rule_id, set()).add(finding.resource)
        return cls({rule.id: rule for rule in catalog}, refs_by_kind, failing_refs)


def control_compliance(control: Control, evidence: Evidence) -> ControlResult:
    """Score one control against an evaluated resource set.

    Pass semantics are per-resource boolean: a resource with several
    findings from the same control still fails exactly once.
    """
    referenced = []
    for rule_id in control.rule_ids:
        if rule_id not in evidence.rules_by_id:
            raise UnknownRuleId(
                f"control {control.framework_id}/{control.control_id} references "
                f"unknown rule {rule_id!r}"
            )
        referenced.append(evidence.rules_by_id[rule_id])
    if not referenced:
        return ControlResult(control=control, applicable_resources=0, passing_resources=0)

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


def _percent_half_up(mean: Fraction) -> int:
    # round-half-up of 100*mean: floor((200*num + den) / (2*den))
    scaled = 100 * mean
    return (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)


def framework_score(framework: Framework, results: Sequence[ControlResult]) -> FrameworkScore:
    """Average the applicable control scores into an integer percent.

    `results` must cover every control of the framework exactly once;
    anything else raises IncompleteResults.
    """
    expected = {c.control_id for c in framework.controls}
    seen = [r.control.control_id for r in results]
    if sorted(seen) != sorted(expected):
        missing = expected - set(seen)
        duplicated = {c for c in seen if seen.count(c) > 1}
        extra = set(seen) - expected
        raise IncompleteResults(
            f"framework {framework.id}: results do not cover controls exactly once"
            + (f"; missing {sorted(missing)}" if missing else "")
            + (f"; duplicated {sorted(duplicated)}" if duplicated else "")
            + (f"; unknown {sorted(extra)}" if extra else "")
        )

    scores = [r.score for r in results if r.score is not None]
    not_applicable = len(results) - len(scores)
    if not scores:
        percent = None
    else:
        percent = _percent_half_up(sum(scores, Fraction(0)) / len(scores))
    return FrameworkScore(
        framework_id=framework.id,
        percent=percent,
        evaluated_controls=len(scores),
        not_applicable_controls=not_applicable,
    )


def score_framework(
    framework: Framework, evidence: Evidence
) -> tuple[FrameworkScore, list[ControlResult]]:
    """Convenience: score every control of a framework, then the framework."""
    results = [control_compliance(control, evidence) for control in framework.controls]
    return framework_score(framework, results), results
