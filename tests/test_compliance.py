from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ricaudit.catalogs import load_catalogs
from ricaudit.compliance import (
    Control,
    ControlResult,
    Evidence,
    Framework,
    control_compliance,
    framework_score,
)
from ricaudit.manifests import parse_manifest_stream
from ricaudit.pipeline import audit
from ricaudit.rules import Finding, evaluate
from ricaudit.severity import SeverityClass


def pods(count: int):
    text = "\n---\n".join(
        f"apiVersion: v1\nkind: Pod\nmetadata: {{name: p{i}, namespace: ns}}\n"
        f"spec: {{containers: [{{name: c, image: x:1}}]}}"
        for i in range(count)
    )
    return parse_manifest_stream(text, "pods.yaml")


def control_for(*rule_ids, control_id="X-1"):
    return Control(control_id=control_id, rule_ids=rule_ids)


class TestControlCompliance:
    def test_three_quarters(self):
        resources = pods(4)
        catalog = load_catalogs().rules
        control = control_for("MISC-LIMITS")
        findings = [Finding("MISC-LIMITS", "ns/Pod/p0", SeverityClass.LOW, "m", "r")]
        result = control_compliance(control, Evidence.build(findings, resources, catalog))
        assert (result.passing_resources, result.applicable_resources) == (3, 4)

    def test_empty_rule_ids_not_applicable(self):
        result = control_compliance(control_for(), Evidence.build([], pods(3), load_catalogs().rules))
        assert result.not_applicable
        assert (result.passing_resources, result.applicable_resources) == (0, 0)

    def test_no_applicable_resources_not_applicable(self):
        configmap_control = control_for("MISC-CREDS")
        result = control_compliance(
            configmap_control, Evidence.build([], pods(2), load_catalogs().rules)
        )
        assert result.not_applicable

    def test_resource_with_two_findings_fails_once(self):
        resources = pods(2)
        control = control_for("MISC-LIMITS", "MISC-REQUESTS")
        findings = [
            Finding("MISC-LIMITS", "ns/Pod/p0", SeverityClass.LOW, "m", "r"),
            Finding("MISC-REQUESTS", "ns/Pod/p0", SeverityClass.LOW, "m", "r"),
        ]
        result = control_compliance(control, Evidence.build(findings, resources, load_catalogs().rules))
        assert (result.passing_resources, result.applicable_resources) == (1, 2)

    def test_fixture_hand_count(self, vulnerable_workloads):
        # 8 vulnerable workloads in ricplt plus one in another namespace; the
        # limits rule fires on all nine, counted by hand from the fixtures.
        from ricaudit.manifests import load_directory

        load = load_directory(vulnerable_workloads)
        findings = evaluate(load_catalogs().rules, load.documents)
        result = control_compliance(
            control_for("MISC-LIMITS"), Evidence.build(findings, load.documents, load_catalogs().rules)
        )
        assert (result.passing_resources, result.applicable_resources) == (0, 9)


def result_for(passing: int, applicable: int, control_id: str):
    return ControlResult(
        control=control_for("MISC-LIMITS", control_id=control_id),
        applicable_resources=applicable,
        passing_resources=passing,
    )


def framework_of(*control_ids):
    return Framework(
        id="nsa-cisa",
        controls=tuple(control_for("MISC-LIMITS", control_id=c) for c in control_ids),
    )


class TestFrameworkScore:
    def test_all_passing_is_100(self):
        fw = framework_of("A", "B")
        score = framework_score(fw, [result_for(2, 2, "A"), result_for(5, 5, "B")])
        assert score.percent == 100

    def test_mean_excludes_not_applicable(self):
        fw = Framework(
            id="nsa-cisa",
            controls=(
                control_for("MISC-LIMITS", control_id="A"),
                control_for("MISC-LIMITS", control_id="B"),
                control_for(control_id="C"),  # no rules: NotApplicable
            ),
        )
        results = [
            result_for(1, 2, "A"),
            result_for(3, 3, "B"),
            ControlResult(control=fw.controls[2], applicable_resources=0, passing_resources=0),
        ]
        score = framework_score(fw, results)
        assert score.percent == 75
        assert score.evaluated_controls == 2
        assert score.not_applicable_controls == 1

    def test_round_half_up(self):
        # one control at 1/8: mean 12.5% rounds up to 13.
        fw = framework_of("A")
        assert framework_score(fw, [result_for(1, 8, "A")]).percent == 13

    @pytest.mark.parametrize("counts, percent", [
        ([(1, 4), (0, 1)], 13),  # a mean of 1/8 over unequal counts
        ([(3, 8), (0, 1), (0, 1)], 13),
        ([(1, 16), (3, 16)], 13),
        ([(5, 8), (5, 8)], 63),  # 62.5
        ([(1, 40)], 3),  # 2.5
        ([(1, 200)], 1),  # 0.5
        ([(199, 200)], 100),  # 99.5
        ([(1, 3), (1, 6)], 25),  # exactly 25 through the common multiple 6
        ([(1, 3)], 33),
        ([(2, 3)], 67),
    ])
    def test_round_half_up_on_exact_halves(self, counts, percent):
        ids = [f"C{i}" for i in range(len(counts))]
        results = [result_for(passing, applicable, c) for (passing, applicable), c in zip(counts, ids)]
        assert framework_score(framework_of(*ids), results).percent == percent

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.lists(
        st.tuples(st.integers(0, 400), st.booleans()).flatmap(
            lambda a: st.tuples(st.integers(0, a[0]), st.just(a[0]), st.just(a[1]))),
        min_size=1, max_size=8))
    def test_percent_is_the_exact_mean_rounded_half_up(self, counts):
        """(passing, applicable, has rules) per control; a control with no
        applicable resource or no rule is NotApplicable."""
        ids = [f"C{i}" for i in range(len(counts))]
        fw = Framework(id="nsa-cisa", controls=tuple(
            control_for(*(["MISC-LIMITS"] if rules else []), control_id=c)
            for (_, _, rules), c in zip(counts, ids)))
        results = [ControlResult(control, applicable, passing)
                   for control, (passing, applicable, _) in zip(fw.controls, counts)]
        scores = [Fraction(p, a) for p, a, rules in counts if a and rules]
        expected = (math.floor(100 * sum(scores, Fraction(0)) / len(scores) + Fraction(1, 2))
                    if scores else None)
        score = framework_score(fw, results)
        assert score.percent == expected
        assert score.evaluated_controls == len(scores)
        assert score.not_applicable_controls == len(counts) - len(scores)

    def test_all_not_applicable_reports_none(self):
        fw = framework_of("A")
        results = [ControlResult(control=fw.controls[0], applicable_resources=0,
                                 passing_resources=0)]
        assert framework_score(fw, results).percent is None

    def test_percent_bounds_and_100_iff_all_pass(self):
        rng = random.Random(13)
        for _ in range(200):
            count = rng.randint(1, 8)
            results = []
            for i in range(count):
                applicable = rng.randint(1, 6)
                passing = rng.randint(0, applicable)
                results.append(result_for(passing, applicable, f"C{i}"))
            fw = framework_of(*(f"C{i}" for i in range(count)))
            score = framework_score(fw, results)
            assert 0 <= score.percent <= 100
            all_pass = all(r.passing_resources == r.applicable_resources for r in results)
            assert (score.percent == 100) == all_pass

    def test_adding_not_applicable_control_keeps_percent(self):
        fw = framework_of("A", "B")
        base = framework_score(fw, [result_for(1, 2, "A"), result_for(1, 4, "B")])
        grown = Framework(
            id="nsa-cisa",
            controls=fw.controls + (control_for(control_id="C"),),
        )
        extra = ControlResult(control=grown.controls[2], applicable_resources=0,
                              passing_resources=0)
        assert framework_score(
            grown, [result_for(1, 2, "A"), result_for(1, 4, "B"), extra]
        ).percent == base.percent

    def test_monotone_in_passing_resources(self):
        rng = random.Random(99)
        for _ in range(100):
            applicable = rng.randint(2, 6)
            passing = rng.randint(0, applicable - 1)
            fw = framework_of("A", "B")
            other = result_for(rng.randint(0, 3), 3, "B")
            before = framework_score(fw, [result_for(passing, applicable, "A"), other])
            after = framework_score(fw, [result_for(passing + 1, applicable, "A"), other])
            assert after.percent >= before.percent


class TestBundledFrameworks:
    def test_exact_ids(self):
        assert [fw.id for fw in load_catalogs().frameworks] == [
            "nsa-cisa",
            "mitre-attack",
            "cis-v1.23-t1.0.1",
        ]

    def test_control_counts_recorded_in_data_files(self):
        counts = {fw.id: len(fw.controls) for fw in load_catalogs().frameworks}
        assert counts == {"nsa-cisa": 17, "mitre-attack": 12, "cis-v1.23-t1.0.1": 16}

    def test_at_least_ten_controls_each(self):
        assert all(len(fw.controls) >= 10 for fw in load_catalogs().frameworks)

    def test_rule_ids_resolve(self):
        known = {rule.id for rule in load_catalogs().rules}
        for fw in load_catalogs().frameworks:
            for control in fw.controls:
                assert set(control.rule_ids) <= known

    def test_control_ids_unique_within_framework(self):
        for fw in load_catalogs().frameworks:
            ids = [c.control_id for c in fw.controls]
            assert len(ids) == len(set(ids))

    def test_each_framework_has_unautomatable_controls(self):
        for fw in load_catalogs().frameworks:
            assert any(not c.rule_ids for c in fw.controls)


def test_evidence_built_once_per_run(monkeypatch, vulnerable_workloads):
    builds = []
    build = Evidence.build.__func__
    monkeypatch.setattr(
        Evidence, "build", classmethod(lambda cls, *args: builds.append(args) or build(cls, *args))
    )
    result = audit(manifests=[vulnerable_workloads], frameworks=())
    assert len(result.framework_scores) == 3
    assert len(builds) == 1
