from __future__ import annotations

import gc
import random
import tracemalloc

import pytest
import yaml
from hypothesis import given, strategies as st

from conftest import flat, rule_of
from ricaudit.catalogs import load_catalogs
from ricaudit.errors import CatalogError
from ricaudit.manifests import ResourceDocument, load_directory, parse_manifest_stream
from ricaudit.predicates import EvalContext
from ricaudit.rules import (
    Evaluation,
    Findings,
    evaluate,
    group_findings_by_app,
    rule_from_mapping,
    validate_catalog,
)
from ricaudit.severity import SeverityClass, empty_counts

NAMED_RULE_SEVERITIES = {
    "MISC-LIMITS": SeverityClass.LOW,
    "MISC-SECRETS-LIST": SeverityClass.HIGH,
    "MISC-PRIVESC": SeverityClass.HIGH,
    "MISC-ANON": SeverityClass.CRITICAL,
    "MISC-CREDS": SeverityClass.HIGH,
    "MISC-NETPOL": SeverityClass.MEDIUM,
    "MISC-REGISTRY": SeverityClass.MEDIUM,
    "MISC-ROOT": SeverityClass.MEDIUM,
    "MISC-DUPREF": SeverityClass.LOW,
}

CORE_RULE_IDS = {"MISC-LIMITS", "MISC-SECRETS-LIST", "MISC-PRIVESC", "MISC-ANON", "MISC-CREDS"}


def docs(text: str):
    return parse_manifest_stream(text, "inline.yaml")


UNBOUNDED_POD = """\
apiVersion: v1
kind: Pod
metadata: {name: loose, namespace: ns}
spec:
  containers:
    - name: main
      image: registry.k8s.io/app@sha256:%s
      imagePullPolicy: Always
""" % ("0" * 64)

SECRET_ROLE = """\
apiVersion: rbac.authorization.k8s.io/v1
kind: Role
metadata: {name: reader, namespace: ns}
rules:
  - apiGroups: [""]
    resources: [secrets]
    verbs: [list]
"""


class TestBuiltinCatalog:
    def test_core_rule_ids_present(self):
        ids = {rule.id for rule in load_catalogs().rules}
        assert CORE_RULE_IDS <= ids

    def test_pinned_severities(self):
        by_id = {rule.id: rule for rule in load_catalogs().rules}
        for rule_id, severity in NAMED_RULE_SEVERITIES.items():
            assert by_id[rule_id].severity is severity, rule_id

    def test_ids_unique(self):
        ids = [rule.id for rule in load_catalogs().rules]
        assert len(ids) == len(set(ids))

    def test_applies_to_non_empty(self):
        assert all(rule.applies_to for rule in load_catalogs().rules)

    def test_every_rule_has_refs_into_each_bundled_framework(self):
        # Cross-check over the data files: some control of each bundled
        # framework lists every built-in rule in its rule_ids.
        bundle = load_catalogs()
        rule_ids = {rule.id for rule in bundle.rules}
        for fw in bundle.frameworks:
            listed = {rule_id for control in fw.controls for rule_id in control.rule_ids}
            assert listed == rule_ids, fw.id

    def test_control_refs_resolve(self):
        validate_catalog(load_catalogs().rules, load_catalogs().frameworks)


class TestEvaluate:
    def test_pod_without_limits_fires_limits_rule(self):
        findings = evaluate(load_catalogs().rules, docs(UNBOUNDED_POD))
        assert any(rule.id == "MISC-LIMITS" for rule, _ in findings.refs_by_rule)

    def test_role_listing_secrets_fires(self):
        findings = evaluate(load_catalogs().rules, docs(SECRET_ROLE))
        fired = [(rule, ref) for rule, ref in flat(findings) if rule.id == "MISC-SECRETS-LIST"]
        assert len(fired) == 1
        rule, ref = fired[0]
        assert ref == "ns/Role/reader"
        assert rule.severity is SeverityClass.HIGH

    def test_hardened_deployment_is_clean(self, hardened_manifests):
        load = load_directory(hardened_manifests)
        findings = evaluate(load_catalogs().rules, load.documents)
        assert findings.refs_by_rule == [] and len(findings) == 0

    def test_hardened_pod_avoids_core_rules(self, hardened_manifests):
        load = load_directory(hardened_manifests)
        findings = evaluate(load_catalogs().rules, load.documents)
        assert not [rule for rule, _ in findings.refs_by_rule if rule.id in CORE_RULE_IDS]

    def test_vulnerable_deployment_profile(self, vulnerable_workloads):
        load = load_directory(vulnerable_workloads / "ricplt-e2term.yaml")
        findings = evaluate(load_catalogs().rules, load.documents)
        # Every finding lands on a resource labelled with the container's app.
        assert group_findings_by_app(findings, load.documents) == {"ricplt-e2term": {
            SeverityClass.CRITICAL: 0,
            SeverityClass.HIGH: 1,
            SeverityClass.MEDIUM: 3,
            SeverityClass.LOW: 9,
            SeverityClass.NEGLIGIBLE: 0,
        }}

    def test_anonymous_auth_both_surfaces(self, vulnerable_manifests):
        load = load_directory(vulnerable_manifests / "cluster")
        findings = evaluate(load_catalogs().rules, load.documents)
        anon = {ref for rule, ref in flat(findings) if rule.id == "MISC-ANON"}
        assert anon == {
            "kube-system/Pod/kube-apiserver",
            "_cluster/KubeletConfiguration/worker-kubelet",
        }

    def test_duplicate_ref_fires_on_both_copies(self, vulnerable_manifests):
        load = load_directory(vulnerable_manifests / "cluster")
        findings = evaluate(load_catalogs().rules, load.documents)
        dup = [ref for rule, ref in flat(findings) if rule.id == "MISC-DUPREF"]
        assert dup == ["ricplt/ConfigMap/ric-common"] * 2

    def test_checks_compiled_once_at_parse(self, monkeypatch, vulnerable_manifests):
        import ricaudit.predicates
        import ricaudit.rules

        catalog, frameworks = load_catalogs().rules, load_catalogs().frameworks
        resources = load_directory(vulnerable_manifests).documents

        def no_compile(spec):
            raise AssertionError("check compiled again")

        monkeypatch.setattr(ricaudit.predicates, "compile_check", no_compile)
        monkeypatch.setattr(ricaudit.rules, "compile_check", no_compile)
        validate_catalog(catalog, frameworks)
        assert len(evaluate(catalog, resources))

    def test_duplicate_rule_id_rejected_before_evaluation(self, tmp_path):
        # `evaluate` trusts its catalog: loading it rejects the repeat.
        rule = load_catalogs().rules[0]
        user = tmp_path / "user.yaml"
        raw = {"id": rule.id, "title": "t", "severity": "low", "category": "supply-chain",
               "applies_to": ["Pod"], "check": {"path_exists": "spec"}}
        user.write_text(yaml.safe_dump({"rules": [raw, raw]}))
        with pytest.raises(CatalogError, match=f"duplicate rule id.* '{rule.id}'$"):
            load_catalogs([user])

    def test_output_sorted(self, vulnerable_manifests):
        load = load_directory(vulnerable_manifests)
        findings = evaluate(load_catalogs().rules, load.documents)
        keys = [(-rule.severity, rule.id, ref) for rule, ref in flat(findings)]
        assert keys == sorted(keys)

    def test_order_independent(self, vulnerable_manifests):
        load = load_directory(vulnerable_manifests)
        catalog = load_catalogs().rules
        baseline = evaluate(catalog, load.documents)
        shuffled = list(load.documents)
        random.Random(7).shuffle(shuffled)
        assert flat(evaluate(catalog, shuffled)) == flat(baseline)

    def test_pure_repeated_evaluation(self, vulnerable_manifests):
        load = load_directory(vulnerable_manifests)
        catalog = load_catalogs().rules
        first = evaluate(catalog, load.documents)
        second = evaluate(catalog, load.documents)
        assert flat(first) == flat(second)

    def test_adding_resource_never_removes_findings(self, vulnerable_workloads):
        # Holds whenever the added resource does not itself change namespace
        # context (a new NetworkPolicy is supposed to clear MISC-NETPOL).
        documents = [d for d in load_directory(vulnerable_workloads).documents
                     if d.namespace == "ricplt"]
        base: set[tuple[str, str]] = set()
        for count in range(1, len(documents) + 1):
            findings = {
                (rule.id, ref)
                for rule, ref in flat(evaluate(load_catalogs().rules, documents[:count]))
            }
            assert base <= findings
            base = findings



# The one severity no builtin rule has, on a kind the fixtures hold.
NEGLIGIBLE_RULE = rule_from_mapping({
    "id": "USER-POD-NOTE", "title": "Pod noted", "severity": "negligible",
    "category": "supply-chain", "applies_to": ["Pod"], "check": {"path_exists": "spec"}})

# A Pod that fires 13 builtin rules; `%d` names it.
LOOSE_POD = """\
apiVersion: v1
kind: Pod
metadata: {name: p%d, namespace: ns, labels: {app: a}}
spec:
  containers:
    - name: c
      image: docker.io/x:latest
      securityContext: {allowPrivilegeEscalation: true}
      ports: [{containerPort: 80, hostPort: 80}]
"""


class TestEvaluation:
    """The findings of a set judged one batch at a time."""

    @pytest.mark.parametrize("batch", [1, 3, 1000])
    def test_finish_equals_whole_set_evaluation(self, vulnerable_manifests, batch):
        catalog = [*load_catalogs().rules, NEGLIGIBLE_RULE]
        documents = load_directory(vulnerable_manifests).documents
        evaluation = Evaluation(catalog)
        for start in range(0, len(documents), batch):
            evaluation.add(documents[start:start + batch])
        findings = evaluation.finish()[0]
        whole = evaluate(catalog, documents)
        assert flat(findings) == flat(whole)
        assert len(findings) == len(whole) == len(flat(whole))
        assert {rule.severity for rule, _ in whole.refs_by_rule} == set(SeverityClass)
        # A ref held twice (MISC-DUPREF's two copies) is two findings.
        pairs = [(rule.id, ref) for rule, ref in flat(whole)]
        assert len(set(pairs)) < len(pairs)

    def test_finished_findings_hold_under_16_bytes_each(self):
        # One list slot per finding; a tuple per finding would take 80 bytes.
        documents = parse_manifest_stream("---\n".join(LOOSE_POD % i for i in range(500)), "p.yaml")
        catalog = load_catalogs().rules
        gc.collect()
        tracemalloc.start()
        try:
            evaluation = Evaluation(catalog)
            for start in range(0, len(documents), 50):
                evaluation.add(documents[start:start + 50])
            findings, records = evaluation.finish()
            count = len(findings)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            # The records stay: the refs are theirs, so only what holds the findings is freed.
            del evaluation, findings
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(records) == 500
        assert count >= 10 * 500
        assert freed < 16 * count, f"{freed / count:.1f} bytes per finding"


    def test_one_batch_peaks_under_48_bytes_per_finding(self):
        # A batch's findings are refs in its rules' runs, which extend the
        # evaluation's lists: no object is built per finding, not even for a while.
        documents = parse_manifest_stream("---\n".join(LOOSE_POD % i for i in range(500)), "p.yaml")
        evaluation = Evaluation(load_catalogs().rules)
        gc.collect()
        tracemalloc.start()
        try:
            evaluation.add(documents)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = len(evaluate(evaluation.per_document, documents, EvalContext()))
        assert count == 12 * 500
        assert peak < 48 * count, f"{peak / count:.1f} bytes per finding"


def labelled(ref: str, app: str | None) -> ResourceDocument:
    return ResourceDocument("Pod", "ns", app, ref, None)


class TestSeverityHistogram:
    """The per-app severity counts that `group_findings_by_app` returns."""

    def test_empty(self):
        assert group_findings_by_app(Findings(()), [labelled("a", "x")]) == {}

    def test_counting(self):
        findings = Findings([(rule_of("R"), ["a", "b"]), (rule_of("S"), ["a"])])
        grouped = group_findings_by_app(findings, [labelled("a", "x"), labelled("b", "x")])
        assert grouped == {"x": {**empty_counts(), SeverityClass.HIGH: 3}}

    @given(
        st.lists(
            st.tuples(st.sampled_from(list(SeverityClass)), st.text(max_size=5)),
            max_size=60,
        ),
        st.dictionaries(st.text(max_size=5), st.sampled_from(["x", "y", None])),
    )
    def test_conservation(self, raw, app_of):
        # One rule per severity, each run holding the refs drawn with it.
        findings = Findings((rule_of(f"R{sev}", sev), [res for s, res in raw if s is sev])
                            for sev in SeverityClass)
        grouped = group_findings_by_app(findings, [labelled(r, a) for r, a in app_of.items()])
        assert all(set(counts) == set(SeverityClass) for counts in grouped.values())
        assert (sum(sum(counts.values()) for counts in grouped.values())
                == sum(1 for _, res in raw if app_of.get(res)))
        for app, counts in grouped.items():
            assert counts == {sev: sum(1 for s, res in raw if app_of.get(res) == app and s is sev)
                              for sev in SeverityClass}


class TestGrouping:
    def test_group_by_app_label(self, vulnerable_manifests):
        documents = [d for d in load_directory(vulnerable_manifests).documents
                     if d.namespace == "ricplt"]
        findings = evaluate(load_catalogs().rules, documents)
        grouped = group_findings_by_app(findings, documents)
        assert len(grouped) == 8
        assert all(set(counts) == set(SeverityClass) for counts in grouped.values())
        assert all(sum(counts.values()) == 13 for counts in grouped.values())
        # Cluster-scoped findings stay unattributed.
        attributed = sum(sum(counts.values()) for counts in grouped.values())
        assert attributed == len(findings) - 4


def pod_with(pod_context: dict, *container_contexts: dict) -> str:
    """A Pod whose pod-level and per-container securityContexts are the ones given."""
    return yaml.safe_dump({
        "apiVersion": "v1", "kind": "Pod", "metadata": {"name": "p", "namespace": "ns"},
        "spec": {"securityContext": pod_context, "containers": [
            {"name": f"c{i}", "image": "x:1", "securityContext": context}
            for i, context in enumerate(container_contexts)]}})


class TestEffectiveSecurityContext:
    """A container's own securityContext fields override its pod's."""

    @pytest.mark.parametrize("rule_id, pod_context, container_contexts, fires", [
        ("MISC-ROOT", {"runAsNonRoot": True}, [{"runAsNonRoot": True}, {"runAsNonRoot": False}],
         True),
        ("MISC-ROOT", {}, [{"runAsNonRoot": True}, {"runAsNonRoot": True}], False),
        ("MISC-ROOT", {"runAsNonRoot": True}, [{}, {"runAsNonRoot": None}], False),
        ("MISC-ROOT", {}, [{"runAsNonRoot": True}, {}], True),
        ("MISC-SECCOMP", {"seccompProfile": {"type": "RuntimeDefault"}},
         [{"seccompProfile": {"type": "Unconfined"}}], True),
        ("MISC-SECCOMP", {"seccompProfile": {"type": "Unconfined"}}, [{}], True),
        ("MISC-SECCOMP", {}, [{"seccompProfile": {"type": "Localhost",
                                                  "localhostProfile": "p.json"}}], False),
        ("MISC-SECCOMP", {"seccompProfile": {"type": "Localhost"}}, [{}, {}], False),
        ("MISC-SECCOMP", {}, [{"seccompProfile": {"type": "RuntimeDefault"}}, {}], True),
    ])
    def test_rule_reads_the_effective_context(self, rule_id, pod_context, container_contexts,
                                              fires):
        findings = evaluate(load_catalogs().rules, docs(pod_with(pod_context, *container_contexts)))
        assert any(rule.id == rule_id for rule, _ in findings.refs_by_rule) is fires


class TestRuleParsing:
    def test_missing_field(self):
        with pytest.raises(CatalogError):
            rule_from_mapping({"id": "X"})
