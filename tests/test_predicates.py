from __future__ import annotations

import math
from types import MappingProxyType

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from ricaudit import catalogs, rules, vulns
from ricaudit.catalogs import load_catalogs
from ricaudit.errors import AuditError, CatalogError
from ricaudit.manifests import parse_manifest_stream
from ricaudit.predicates import (
    ANY,
    BODY,
    BOOLEAN,
    CONTEXT,
    INTEGER,
    LIST,
    NONEMPTY,
    NUMBER,
    POD_SPEC_PATHS,
    STRING,
    STRINGS,
    EvalContext,
    compile_check,
    entry_fields,
    field_reader,
    image_registry,
    pod_of,
    resolve_path,
    shannon_entropy,
)
from ricaudit.rules import evaluate


def doc_of(mapping: dict):
    return parse_manifest_stream(yaml.safe_dump(mapping), "test.yaml")[0]


def run(check: dict, mapping: dict, context_docs=None) -> bool:
    doc = doc_of(mapping)
    ctx = EvalContext.build([doc] + [doc_of(m) for m in (context_docs or [])])
    return compile_check(check)(doc.body, doc, ctx)


POD = {
    "apiVersion": "v1",
    "kind": "Pod",
    "metadata": {"name": "p", "namespace": "ns"},
    "spec": {
        "containers": [
            {"name": "main", "image": "docker.io/app:1.0",
             "resources": {"limits": {"cpu": "1"}}},
        ],
        "initContainers": [{"name": "init", "image": "docker.io/init:1.0"}],
    },
}

DEPLOYMENT = {
    "apiVersion": "apps/v1",
    "kind": "Deployment",
    "metadata": {"name": "d", "namespace": "ns"},
    "spec": {
        "template": {
            "spec": {
                "containers": [{"name": "c", "image": "registry.k8s.io/app:2.0"}],
            }
        }
    },
}


class TestResolvePath:
    def test_plain_keys(self):
        assert resolve_path({"a": {"b": 3}}, "a.b") == [3]

    def test_missing_key_no_match(self):
        assert resolve_path({"a": {}}, "a.b") == []

    def test_wildcard_over_list(self):
        node = {"items": [{"x": 1}, {"x": 2}, {}]}
        assert resolve_path(node, "items.*.x") == [1, 2]

    def test_wildcard_over_mapping(self):
        assert sorted(resolve_path({"m": {"a": 1, "b": 2}}, "m.*")) == [1, 2]

    def test_numeric_index(self):
        assert resolve_path({"l": ["a", "b"]}, "l.1") == ["b"]
        assert resolve_path({"l": ["a"]}, "l.5") == []

    @pytest.mark.parametrize("segment", ["²", "0" * 5000], ids=["superscript", "5000-digits"])
    def test_digit_segment_int_refuses_matches_nothing(self, segment):
        # str.isdigit accepts both; int() refuses them, as an index out of range.
        assert resolve_path({"l": ["a", "b"]}, f"l.{segment}") == []

    def test_null_value_counts_as_present(self):
        assert resolve_path({"a": None}, "a") == [None]


class TestEntropy:
    def test_uniform_string_is_zero(self):
        assert shannon_entropy("aaaaaaaa") == 0.0

    def test_distinct_chars(self):
        # 32 distinct characters: exactly log2(32) bits per character.
        text = "abcdefghijklmnopqrstuvwxyz012345"
        assert math.isclose(shannon_entropy(text), 5.0)

    def test_empty(self):
        assert shannon_entropy("") == 0.0


class TestImageRegistry:
    @pytest.mark.parametrize(
        "image,expected",
        [
            ("nexus3.o-ran-sc.org:10002/ric-plt-e2:6.0.3", "nexus3.o-ran-sc.org:10002"),
            ("Docker.io/influxdb:2.2.0-alpine", "docker.io"),
            ("influxdb:2.2.0-alpine", "docker.io"),
            ("localhost/tool:1", "localhost"),
            ("registry.k8s.io/app@sha256:" + "0" * 64, "registry.k8s.io"),
            ("library/app:1", "docker.io"),
        ],
    )
    def test_registry_extraction(self, image, expected):
        assert image_registry(image) == expected


class TestEntryFields:
    FIELDS = {"id": NONEMPTY, "note": (STRING, "-"), "flag": (BOOLEAN, False)}

    def test_values_in_field_order_with_defaults(self):
        raw = {"flag": True, "id": "a", "note": None, "extra": 1}
        assert entry_fields(raw, "item", self.FIELDS) == {"id": "a", "note": "-", "flag": True}

    @pytest.mark.parametrize("raw, message", [
        ({}, "item: missing field 'id'"),
        ({"id": ""}, "item: id must be a non-empty string"),
        ({"id": None}, "item: id must be a non-empty string"),
        ({"id": "a", "flag": 0}, "item: flag must be a boolean"),
        ([], "item must be a mapping, got []"),
    ])
    def test_raises_the_given_error(self, raw, message):
        with pytest.raises(AuditError) as exc:
            entry_fields(raw, "item", self.FIELDS, error=AuditError)
        assert (exc.type, str(exc.value)) == (AuditError, message)


class Text(str):
    pass


class Count(int):
    pass


# Every field spec the code declares.
FIELD_SPECS = [
    vulns.REPORT_FIELDS, vulns.IMAGE_FIELDS, vulns.ENTRY_FIELDS, rules.RULE_FIELDS,
    catalogs.CATALOG_FIELDS, catalogs.FRAMEWORK_FIELDS, catalogs.CONTROL_FIELDS,
    catalogs.ADVISORY_FIELDS, catalogs.INVENTORY_FIELDS,
    # Names that are no identifiers, and a default that is a list: a reader's
    # source holds names only as quoted literals and defaults not at all.
    {"a-b": NONEMPTY, "it's": (STRINGS, ["d"]), "class": ANY, "x\ny": (NUMBER, 0)},
]
# Values at the edges of the shapes: a bool is no number, "" no non-empty
# string, and a subclass passes the shape test but not the exact-type test.
EDGE_VALUES = [
    True, False, "", "x", 1.5, None, math.nan, math.inf, -math.inf, 10**400, -(10**400), Text(""),
    Text("x"), Count(3), [], [Text("a")], [1], ["a", None], {}, {"a": 1}, (), b"x",
]
odd_values = (st.sampled_from(EDGE_VALUES) | st.none() | st.booleans() | st.integers()
              | st.floats() | st.text(max_size=3))
shaped_values = {
    STRING: st.text(max_size=3), NONEMPTY: st.text(min_size=1, max_size=3),
    INTEGER: st.integers(), NUMBER: st.integers() | st.floats(),
    BOOLEAN: st.booleans(), STRINGS: st.lists(st.text(max_size=2), max_size=2),
    LIST: st.lists(odd_values, max_size=2), ANY: odd_values,
}
ABSENT = object()
WRAPPERS = [dict, MappingProxyType, type("Entry", (dict,), {}), list, lambda raw: None]


def assert_reader_agrees(fields, raw, key=None, error=CatalogError, what="item"):
    """The reader of `fields` returns the very values of entry_fields, or
    raises an error of the same type and message."""
    read = field_reader(fields)
    try:
        expected = list(entry_fields(raw, "item", fields, key, error).values())
    except Exception as exc:
        with pytest.raises(Exception) as got:
            read(raw, what, key, error)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        values = read(raw, what, key, error)
        # The same objects, so that NaN and subclasses compare as well.
        assert len(values) == len(expected)
        assert all(a is b for a, b in zip(values, expected))


@st.composite
def raw_entries(draw, fields):
    """An entry of the shapes of `fields`, optional fields absent or null at
    times, with at most one field made odd or removed, held in a dict, in
    another mapping or in no mapping at all."""
    raw = {}
    for name, shape in fields.items():
        if isinstance(shape, tuple):
            raw[name] = draw(st.sampled_from([ABSENT, None]) | shaped_values[shape[0]])
        else:
            raw[name] = draw(shaped_values[shape])
    changed = draw(st.sampled_from([None, *fields]))
    if changed is not None:
        raw[changed] = draw(odd_values | st.just(ABSENT))
    raw = {name: value for name, value in raw.items() if value is not ABSENT}
    raw.update(draw(st.dictionaries(st.text(max_size=3), odd_values, max_size=2)))
    return draw(st.sampled_from([dict] * 5 + WRAPPERS))(raw)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.sampled_from(FIELD_SPECS), st.data())
def test_field_reader_agrees_with_entry_fields(fields, data):
    assert_reader_agrees(
        fields, data.draw(raw_entries(fields)), key=data.draw(st.sampled_from([None, *fields])),
        error=data.draw(st.sampled_from([CatalogError, AuditError])),
        what=data.draw(st.sampled_from(["item", lambda: "item"])))


@pytest.mark.parametrize("fields", FIELD_SPECS)
def test_field_reader_agrees_on_each_edge_value_of_each_field(fields):
    # Each field of a valid entry, with or without its optional fields, given
    # each edge value in turn or left out, and the entry in each kind of holder.
    valid = {STRING: "s", NONEMPTY: "n", INTEGER: 3, NUMBER: 2.5, BOOLEAN: True,
             STRINGS: ["a"], LIST: [1], ANY: {"x": 1}}
    full = {name: valid[shape[0] if isinstance(shape, tuple) else shape]
            for name, shape in fields.items()}
    required = {name: full[name] for name, shape in fields.items() if not isinstance(shape, tuple)}
    for base in (full, required):
        for name in fields:
            for value in [*EDGE_VALUES, ABSENT]:
                raw = {**base, name: value}
                if value is ABSENT:
                    del raw[name]
                for wrap in WRAPPERS:
                    assert_reader_agrees(fields, wrap(raw), key=name)


class TestCombinators:
    def test_unknown_combinator(self):
        with pytest.raises(CatalogError):
            compile_check({"frobnicate": "x"})

    def test_check_must_have_one_key(self):
        with pytest.raises(CatalogError):
            compile_check({"path_exists": "a", "path_absent": "b"})

    def test_malformed_argument(self):
        with pytest.raises(CatalogError):
            compile_check({"path_equals": "not-a-mapping"})

    @pytest.mark.parametrize("check, reads", [
        ({"kind_is": "Pod"}, set()),
        ({"namespace_lacks_kind": "NetworkPolicy"}, {CONTEXT}),
        ({"all_of": [{"kind_is": "Pod"}, {"not": {"duplicate_ref": True}}]}, {CONTEXT}),
        ({"not": {"path_exists": "spec"}}, {BODY}),
        ({"any_of": [{"duplicate_ref": True}, {"credential_data": {}}]}, {BODY, CONTEXT}),
        ({"any_container": {"namespace_lacks_kind": "NetworkPolicy"}}, {BODY, CONTEXT}),
    ])
    def test_check_marks_what_it_reads(self, check, reads):
        assert compile_check(check).reads == reads

    def test_path_exists_and_absent(self):
        assert run({"path_exists": "spec.containers"}, POD)
        assert run({"path_absent": "spec.nodeName"}, POD)
        assert not run({"path_absent": "spec.containers"}, POD)

    def test_path_equals(self):
        assert run({"path_equals": {"path": "kind", "value": "Pod"}}, POD)
        assert not run({"path_equals": {"path": "kind", "value": "Job"}}, POD)

    def test_path_equals_false_and_null(self):
        pod = {**POD, "spec": {**POD["spec"], "hostNetwork": False, "nodeName": None}}
        assert run({"path_equals": {"path": "spec.hostNetwork", "value": False}}, pod)
        assert run({"path_equals": {"path": "spec.nodeName", "value": None}}, pod)
        assert not run({"path_equals": {"path": "spec.hostNetwork", "value": None}}, pod)

    def test_path_matches(self):
        assert run({"path_matches": {"path": "spec.containers.*.image", "pattern": "^docker"}}, POD)

    def test_path_contains_list_membership(self):
        role = {
            "kind": "Role",
            "metadata": {"name": "r", "namespace": "ns"},
            "rules": [{"resources": ["secrets"], "verbs": ["get", "list"]}],
        }
        assert run(
            {"any_item": {"path": "rules",
                          "check": {"path_contains": {"path": "verbs", "value": "list"}}}},
            role,
        )
        assert not run(
            {"any_item": {"path": "rules",
                          "check": {"path_contains": {"path": "verbs", "value": "delete"}}}},
            role,
        )

    def test_boolean_combinators(self):
        check = {
            "all_of": [
                {"kind_is": "Pod"},
                {"not": {"path_exists": "spec.hostNetwork"}},
                {"any_of": [{"path_exists": "spec.containers"}, {"path_exists": "nope"}]},
            ]
        }
        assert run(check, POD)

    def test_any_container_covers_init_containers(self):
        assert run(
            {"any_container": {"path_matches": {"path": "image", "pattern": "init"}}}, POD
        )

    def test_any_container_resolves_deployment_template(self):
        assert run({"any_container": {"path_absent": "resources.limits"}}, DEPLOYMENT)

    def test_all_containers(self):
        assert not run(
            {"all_containers": {"path_exists": "resources.limits.cpu"}}, POD
        )

    # Each any/all pair: its check of a sub-check, then the bodies of a Pod on
    # which every match passes, on which one match fails, and on which nothing
    # matches. any_of and all_of always have a match: an empty list is refused.
    @pytest.mark.parametrize("any_op, all_op, check_of, every, one_fails, no_match", [
        ("any_of", "all_of", lambda op: {op: [{"path_exists": "a"}, {"path_exists": "b"}]},
         {"a": 1, "b": 2}, {"a": 1}, []),
        ("any_item", "all_items",
         lambda op: {op: {"path": "items", "check": {"path_exists": "ok"}}},
         {"items": [{"ok": 1}, {"ok": 2}]}, {"items": [{"ok": 1}, {}]},
         [{}, {"items": {"ok": 1}}, {"items": []}]),
        ("any_container", "all_containers", lambda op: {op: {"path_exists": "ok"}},
         {"spec": {"containers": [{"ok": 1}], "initContainers": [{"ok": 2}]}},
         {"spec": {"containers": [{"ok": 1}], "initContainers": [{}]}},
         [{}, {"spec": {"containers": []}}, {"spec": {"containers": "c"}}]),
    ], ids=["of", "item", "container"])
    def test_any_all_pair(self, any_op, all_op, check_of, every, one_fails, no_match):
        def judge(op, fields):
            return run(check_of(op), {"kind": "Pod", "metadata": {"name": "p"}, **fields})

        assert judge(any_op, every) and judge(all_op, every)
        assert judge(any_op, one_fails) and not judge(all_op, one_fails)
        for fields in no_match:
            assert not judge(any_op, fields) and judge(all_op, fields), fields
        if not no_match:
            for op in (any_op, all_op):
                with pytest.raises(CatalogError, match=f"^{op} needs a non-empty list$"):
                    compile_check({op: []})

    def test_pod_spec_scope(self):
        assert run({"pod_spec": {"path_exists": "containers"}}, DEPLOYMENT)
        # A kind without a pod template never satisfies pod_spec checks.
        cm = {"kind": "ConfigMap", "metadata": {"name": "c", "namespace": "ns"}, "data": {}}
        assert not run({"pod_spec": {"path_exists": "containers"}}, cm)

    def test_image_registry_not_in(self):
        allowed = {"any_container": {"image_registry_not_in": ["registry.k8s.io"]}}
        assert run(allowed, POD)
        assert not run(allowed, DEPLOYMENT)

    def test_namespace_lacks_kind(self):
        netpol = {
            "kind": "NetworkPolicy",
            "metadata": {"name": "default-deny", "namespace": "ns"},
        }
        check = {"namespace_lacks_kind": "NetworkPolicy"}
        assert run(check, POD)
        assert not run(check, POD, context_docs=[netpol])

    def test_duplicate_ref(self):
        twin = {"kind": "Pod", "metadata": {"name": "p", "namespace": "ns"}}
        assert run({"duplicate_ref": True}, POD, context_docs=[twin])
        assert not run({"duplicate_ref": True}, POD)


class TestCredentialData:
    CHECK = {
        "credential_data": {
            "key_patterns": ["password", "token", "secret", "key"],
            "entropy_threshold": 4.0,
            "min_value_length": 16,
        }
    }

    def cm(self, data: dict) -> dict:
        return {"kind": "ConfigMap", "metadata": {"name": "c", "namespace": "ns"}, "data": data}

    def test_key_pattern_hit(self):
        assert run(self.CHECK, self.cm({"DB_PASSWORD": "changeme"}))
        assert run(self.CHECK, self.cm({"api-token": "x"}))

    def test_high_entropy_value_hit(self):
        assert run(self.CHECK, self.cm({"blob": "abcdefghijklmnopqrstuvwxyz012345"}))

    def test_short_or_low_entropy_values_pass(self):
        assert not run(self.CHECK, self.cm({"region": "eu-central", "log-level": "info"}))
        # Long but single-character value: zero entropy.
        assert not run(self.CHECK, self.cm({"padding": "a" * 64}))

    def test_no_data_section(self):
        assert not run(self.CHECK, {"kind": "ConfigMap", "metadata": {"name": "c"}})


class TestPodRecord:
    """EvalContext walks a document's pod spec once for the rules it meets in
    turn; checks must not notice."""

    CONTAINER = {"name": "c", "image": "docker.io/app:1", "securityContext": {"privileged": True}}
    SPECS = [
        {"containers": [CONTAINER], "initContainers": [{"name": "i", "image": "quay.io/i:1"}]},
        {"containers": {"c": CONTAINER}},  # not a list
        {"containers": ["c", None, CONTAINER, 3]},  # non-mapping items
        {"initContainers": [CONTAINER]},  # init containers only
        {"containers": []},
        [CONTAINER],  # a spec that is not a mapping
        None,  # no spec at all
    ]
    CHECKS = [
        {"pod_spec": {"path_exists": "containers"}},
        {"pod_spec": {"path_absent": "initContainers"}},
        {"any_container": {"path_equals": {"path": "securityContext.privileged", "value": True}}},
        {"all_containers": {"path_exists": "image"}},
        {"not": {"any_container": {"image_registry_not_in": ["docker.io"]}}},
    ]

    @staticmethod
    def templated(kind: str, spec, name: str = "p") -> dict:
        """A `kind` manifest whose pod spec, at the path for its kind, is `spec`."""
        node: dict = {}
        if spec is not None:
            *outer, last = POD_SPEC_PATHS[kind]
            node = {last: spec}
            for segment in reversed(outer):
                node = {segment: node}
        return {"apiVersion": "v1", "kind": kind,
                "metadata": {"name": name, "namespace": "ns"}, **node}

    def documents(self) -> list:
        manifests = [self.templated(kind, spec, f"p{i}") for kind in POD_SPEC_PATHS
                     for i, spec in enumerate(self.SPECS)]
        manifests.append({"apiVersion": "v1", "kind": "List", "items": [
            self.templated("Pod", self.SPECS[0], "item0"), self.templated("Job", self.SPECS[2], "item1"),
            {"apiVersion": "v1", "kind": "ConfigMap", "metadata": {"name": "cm"}, "data": {}},
        ]})
        text = yaml.safe_dump_all(manifests)
        return parse_manifest_stream(text, "pods.yaml")

    @staticmethod
    def walked(doc):
        """The pod spec and containers of `doc`, found by walking its body again."""
        path = POD_SPEC_PATHS.get(doc.kind)
        specs = resolve_path(doc.body, ".".join(path)) if path else []
        spec = specs[0] if specs and isinstance(specs[0], dict) else None
        containers = [c for key in ("containers", "initContainers")
                      for items in [(spec or {}).get(key)] if isinstance(items, list)
                      for c in items if isinstance(c, dict)]
        return spec, containers

    def test_pod_matches_a_fresh_walk(self):
        docs = self.documents()
        assert len(docs) == len(POD_SPEC_PATHS) * len(self.SPECS) + 3  # the List is flattened
        ctx = EvalContext.build(docs)
        for doc in docs + docs[::-1]:
            assert ctx.pod(doc) == self.walked(doc) == pod_of(doc)

    def test_evaluate_matches_brute_force(self):
        docs = self.documents()
        rules = load_catalogs().rules
        ctx = EvalContext.build(docs)

        def walking():
            """A context that has walked no document yet."""
            return EvalContext.build(docs)

        expected = sorted(
            (rule.id, doc.ref) for rule in rules for doc in docs
            if rule.applies_to_kind(doc.kind) and rule.predicate(doc.body, doc, walking()))
        assert expected  # the pod rules do fire on these documents
        assert sorted((f.rule_id, f.resource) for f in evaluate(rules, docs)) == expected
        for check in map(compile_check, self.CHECKS):
            for doc in docs:
                assert check(doc.body, doc, ctx) == check(doc.body, doc, walking())

    def test_containers_inherit_the_pod_security_context(self):
        pod_context = {"runAsNonRoot": True, "runAsUser": 1000, "fsGroup": 2000,
                       "seccompProfile": {"type": "RuntimeDefault"}}
        own = {"runAsUser": 0, "privileged": True}
        whole = {"runAsNonRoot": False, "runAsUser": 1, "runAsGroup": 1,
                 "seccompProfile": {"type": "Localhost"}, "seLinuxOptions": {},
                 "windowsOptions": {}, "appArmorProfile": {}}
        containers = [{"name": "a"}, {"name": "b", "securityContext": own},
                      {"name": "c", "securityContext": whole}]
        doc = doc_of(self.templated("Deployment", {"securityContext": pod_context,
                                                   "containers": containers}))
        spec, seen = pod_of(doc)
        assert spec is doc.body["spec"]["template"]["spec"]
        assert [c["securityContext"] for c in seen] == [
            {"runAsNonRoot": True, "runAsUser": 1000, "seccompProfile": {"type": "RuntimeDefault"}},
            {"runAsUser": 0, "privileged": True, "runAsNonRoot": True,
             "seccompProfile": {"type": "RuntimeDefault"}},
            whole,
        ]
        assert seen[2] is doc.body["spec"]["template"]["spec"]["containers"][2]
        assert doc.body["spec"]["template"]["spec"]["containers"][:2] == containers[:2]
        bare = doc_of(self.templated("Pod", {"containers": containers}))
        assert all(c is o for c, o in zip(pod_of(bare)[1], bare.body["spec"]["containers"]))

    def test_check_judges_its_own_document(self):
        privileged, plain = (doc_of(self.templated("Pod", spec))
                             for spec in ({"containers": [self.CONTAINER]},
                                          {"containers": [{"name": "c", "image": "x"}]}))
        check = compile_check(self.CHECKS[2])
        ctx = EvalContext.build([privileged])
        for doc, fires in ((privileged, True), (plain, False), (plain, False), (privileged, True)):
            assert check(doc.body, doc, ctx) is fires
        assert check(plain.body, plain, EvalContext.build([privileged])) is False
        assert check(privileged.body, privileged, EvalContext.build([plain])) is True
