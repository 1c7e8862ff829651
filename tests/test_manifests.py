from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import yaml
import pytest
from hypothesis import given, settings, strategies as st

from ricaudit import manifests
from ricaudit.catalogs import data_path, load_catalogs
from ricaudit.cli import main
from ricaudit.compliance import Evidence, score_framework
from ricaudit.errors import AuditError, DocumentError
from ricaudit.manifests import load_directory, parse_manifest_stream
from ricaudit.pipeline import audit, build_result
from ricaudit.rules import Evaluation, evaluate
from ricaudit.vulns import VulnTally

from conftest import rendered_json

POD = """\
apiVersion: v1
kind: Pod
metadata:
  name: e2term
  namespace: ricplt
spec:
  containers:
    - name: e2term
      image: registry.k8s.io/e2term:1.0.0
"""

THREE_DOCS = """\
apiVersion: v1
kind: Pod
metadata: {name: a, namespace: ns}
---
apiVersion: v1
kind: Service
metadata: {name: b, namespace: ns}
---
apiVersion: v1
kind: ConfigMap
metadata: {name: c, namespace: ns}
"""


def test_empty_stream():
    assert parse_manifest_stream("", "empty.yaml") == []


def test_comment_only_documents_skipped():
    text = "---\n# just a comment\n---\n# another\n---\n" + POD
    docs = parse_manifest_stream(text, "pods.yaml")
    assert [d.ref for d in docs] == ["ricplt/Pod/e2term"]
    # The skipped documents still count: the pod is document 2, so the next is 3.
    with pytest.raises(DocumentError, match=r"^pods\.yaml: document 3: no kind field$"):
        parse_manifest_stream(text + "---\nmetadata: {name: x}\n", "pods.yaml")


def test_three_documents_in_stream_order():
    docs = parse_manifest_stream(THREE_DOCS, "multi.yaml")
    assert [d.kind for d in docs] == ["Pod", "Service", "ConfigMap"]
    assert [d.ref for d in docs] == ["ns/Pod/a", "ns/Service/b", "ns/ConfigMap/c"]
    # Each document is named by the file and its position in the stream.
    streams = THREE_DOCS.split("---\n")
    for index in range(3):
        broken = [*streams[:index], "kind: Pod\n", *streams[index + 1:]]
        with pytest.raises(DocumentError, match=rf"^multi\.yaml: document {index}: no metadata"):
            parse_manifest_stream("---\n".join(broken), "multi.yaml")


def test_missing_kind():
    with pytest.raises(DocumentError, match=r"^x\.json: document 0: no kind field$"):
        parse_manifest_stream('{"apiVersion":"v1","metadata":{"name":"x"}}', "x.json")


def test_missing_name():
    with pytest.raises(DocumentError, match=r"^x\.yaml: document 0: no metadata\.name$"):
        parse_manifest_stream("kind: Pod\nmetadata: {namespace: ns}\n", "x.yaml")


@pytest.mark.parametrize(
    "third, reason",
    [
        ("kind: [unclosed\n", ""),
        ("metadata: {name: x}\n", "no kind field"),
        ("kind: Pod\n", "no metadata.name"),
    ],
    ids=["malformed", "missing-kind", "missing-name"],
)
def test_document_errors_share_one_base(third, reason):
    # Each names the file and the document, then the reason (the YAML
    # loader's own words for a syntax error).
    with pytest.raises(DocumentError) as exc:
        parse_manifest_stream(f"{POD}---\n{POD}---\n{third}", "f.yaml")
    assert str(exc.value).startswith(f"f.yaml: document 2: {reason}")


def test_syntax_error_reports_document_index():
    text = POD + "---\nkind: [unclosed\n"
    with pytest.raises(DocumentError, match=r"^bad\.yaml: document 1: "):
        parse_manifest_stream(text, "bad.yaml")


def test_invalid_utf8_rejected():
    with pytest.raises(DocumentError, match=r"^bin\.yaml: document 0: "):
        parse_manifest_stream(b"\xff\xfe\x00bad", "bin.yaml")


def test_json_style_document():
    doc = parse_manifest_stream(
        '{"apiVersion": "v1", "kind": "Pod", "metadata": {"name": "p"}}', "p.json"
    )[0]
    assert doc.kind == "Pod"
    assert doc.namespace is None


def test_list_kind_flattened():
    text = yaml.safe_dump(
        {
            "apiVersion": "v1",
            "kind": "PodList",
            "items": [
                {"metadata": {"name": "a", "namespace": "ns"}},
                {"metadata": {"name": "b", "namespace": "ns"}},
            ],
        }
    )
    docs = parse_manifest_stream(text, "list.yaml")
    assert [(d.kind, d.ref) for d in docs] == [("Pod", "ns/Pod/a"), ("Pod", "ns/Pod/b")]
    # Every item is document 0, and is named by its position among the items.
    items = [{"metadata": {"name": "a"}}, {"metadata": {}}]
    with pytest.raises(DocumentError, match=r"^list\.yaml: document 0: item 1: no metadata\.name$"):
        parse_manifest_stream(yaml.safe_dump({"kind": "PodList", "items": items}), "list.yaml")


def test_labels_extracted():
    # The app is the `app` label, else the `app.kubernetes.io/name` label.
    for labels, app in [
        ('{app: web, tier: "2"}', "web"),
        ("{app.kubernetes.io/name: web, tier: x}", "web"),
        ("{app: web, app.kubernetes.io/name: other}", "web"),
        ('{app: "", app.kubernetes.io/name: other}', "other"),
        ('{app: "", tier: x}', None),
    ]:
        text = f"kind: Pod\nmetadata:\n  name: x\n  labels: {labels}\n"
        assert parse_manifest_stream(text, "x.yaml")[0].app == app, labels


@pytest.mark.parametrize("label,key", [
    ("tier: 2", "'tier'"), ("app: 1.10", "'app'"), ("app: [x, y]", "'app'"), ("1: x", "1"),
])
def test_label_not_a_string_is_a_document_error(label, key):
    # Nothing is coerced: `app: 1.10` is not the label "1.1", nor [x, y] "['x', 'y']".
    text = f"kind: Pod\nmetadata:\n  name: x\n  labels: {{{label}}}\n"
    with pytest.raises(DocumentError) as exc:
        parse_manifest_stream(text, "x.yaml")
    assert str(exc.value) == f"x.yaml: document 0: label {key} must be a string"


@pytest.mark.parametrize("namespace,shape", [("2024", "int"), ("1.10", "float"), ("[a]", "list"),
                                             ("{a: b}", "dict"), ("true", "bool")])
def test_namespace_not_a_string_is_a_document_error(namespace, shape):
    # Read as "no namespace", `namespace: 2024` made the Pod cluster-scoped.
    text = f"kind: Pod\nmetadata:\n  name: x\n  namespace: {namespace}\n"
    with pytest.raises(DocumentError) as exc:
        parse_manifest_stream(text, "x.yaml")
    assert str(exc.value) == f"x.yaml: document 0: metadata.namespace must be a string (got {shape})"


@pytest.mark.parametrize("namespace,scope", [('""', None), ("null", None), ("", None),
                                             ('"2024"', "2024")])
def test_empty_or_null_namespace_is_no_namespace(namespace, scope):
    text = f"kind: Pod\nmetadata:\n  name: x\n  namespace: {namespace}\n"
    doc = parse_manifest_stream(text, "x.yaml")[0]
    assert (doc.namespace, doc.ref) == (scope, f"{scope or '_cluster'}/Pod/x")


@pytest.mark.parametrize("labels,shape", [("[app, web]", "list"), ("web", "str"), ("[]", "list")])
def test_labels_not_a_mapping_is_a_document_error(labels, shape):
    # Read as "no labels", `labels: [app, web]` gave findings but no container row.
    text = f"kind: Pod\nmetadata:\n  name: x\n  labels: {labels}\n"
    with pytest.raises(DocumentError) as exc:
        parse_manifest_stream(text, "x.yaml")
    assert str(exc.value) == f"x.yaml: document 0: labels must be a mapping (got {shape})"


@pytest.mark.parametrize("labels", ["", "null", "{}"])
def test_null_or_empty_labels_are_no_labels(labels):
    text = f"kind: Pod\nmetadata:\n  name: x\n  labels: {labels}\n"
    assert parse_manifest_stream(text, "x.yaml")[0].app is None


def test_label_not_a_string_skips_the_file(tmp_path):
    (tmp_path / "lab.yaml").write_text(
        "kind: Pod\nmetadata:\n  name: x\n  labels: {app: [x, y]}\n")
    (tmp_path / "ok.yaml").write_text(POD)
    load = load_directory(tmp_path)
    assert [doc.ref for doc in load.documents] == ["ricplt/Pod/e2term"]
    assert load.errors == [
        f"parse error in {tmp_path / 'lab.yaml'}: document 0: label 'app' must be a string"]


def test_body_round_trips():
    for doc in parse_manifest_stream(THREE_DOCS, "multi.yaml"):
        assert yaml.safe_load(yaml.safe_dump(doc.body)) == doc.body


@pytest.mark.parametrize(
    "kind,name,namespace,expected",
    [
        ("Pod", "e2term", "ricplt", "ricplt/Pod/e2term"),
        ("ClusterRole", "admin", None, "_cluster/ClusterRole/admin"),
        ("Deployment", "ricplt-rtmgr", "ricplt", "ricplt/Deployment/ricplt-rtmgr"),
    ],
)
def test_resource_ref_rendering(kind, name, namespace, expected):
    text = yaml.safe_dump(
        {"kind": kind, "metadata": {"name": name, **({"namespace": namespace} if namespace else {})}}
    )
    doc = parse_manifest_stream(text, "r.yaml")[0]
    assert doc.ref == expected
    assert (doc.namespace, doc.kind, doc.ref.rpartition("/")[2]) == (namespace, kind, name)


def test_load_empty_directory(tmp_path):
    assert load_directory(tmp_path).documents == []


def test_load_missing_directory(tmp_path):
    with pytest.raises(AuditError, match=r"^no such path: .*nope$"):
        load_directory(tmp_path / "nope")


def test_load_directory_namespace_filter(vulnerable_manifests):
    # load_directory keeps every namespace; pipeline.audit scopes the loaded
    # documents to --namespace, and a cluster-scoped one is outside it.
    load = load_directory(vulnerable_manifests)
    assert {None, "ricplt", "other"} <= {d.namespace for d in load.documents}
    everything = audit(manifests=[vulnerable_manifests])
    scoped = audit(manifests=[vulnerable_manifests], namespace="ricplt")
    assert {f.resource.split("/")[0] for f in everything.findings} >= {"_cluster", "other"}
    assert set(scoped.findings) == {f for f in everything.findings if f.resource.startswith("ricplt/")}


def test_malformed_file_recorded_not_fatal(tmp_path):
    (tmp_path / "good.yaml").write_text(POD)
    (tmp_path / "bad.yaml").write_text("kind: [unclosed\n")
    load = load_directory(tmp_path)
    assert len(load.documents) == 1
    [line] = load.errors  # the loader's own words for the syntax error end it
    assert re.fullmatch(rf"parse error in {re.escape(str(tmp_path / 'bad.yaml'))}: "
                        r"document 0: .* at line 2, column 1", line)


def test_load_directory_deterministic(vulnerable_manifests):
    first = load_directory(vulnerable_manifests)
    second = load_directory(vulnerable_manifests)
    assert [d.ref for d in first.documents] == [d.ref for d in second.documents]
    assert [d.body for d in first.documents] == [d.body for d in second.documents]


def test_load_directory_ordered_by_path_then_index(tmp_path):
    (tmp_path / "b.yaml").write_text(POD)
    (tmp_path / "a.yaml").write_text(THREE_DOCS)
    load = load_directory(tmp_path)
    # a.yaml's three documents in stream order, then b.yaml's pod.
    assert [d.ref for d in load.documents] == [
        "ns/Pod/a", "ns/Service/b", "ns/ConfigMap/c", "ricplt/Pod/e2term"]


def test_completeness_accounting(tmp_path):
    # 2 parsed + 2 skipped-empty in one file, 1 error file: every document
    # encountered is either returned, skipped, or recorded as a failure.
    (tmp_path / "mixed.yaml").write_text(
        "---\n# comment only\n---\n" + POD + "---\n" +
        "kind: Service\nmetadata: {name: s, namespace: ns}\n"
    )
    (tmp_path / "broken.yaml").write_text("{kind: Pod")
    load = load_directory(tmp_path)
    assert len(load.documents) == 2
    assert len(load.errors) == 1


def test_only_regular_manifest_files_load_each_once(tmp_path):
    (tmp_path / "pod.yaml").write_text(POD)
    (tmp_path / "a-link.yaml").symlink_to(tmp_path / "pod.yaml")  # reaches pod.yaml first
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "again.yml").symlink_to(tmp_path / "pod.yaml")
    (tmp_path / "notes.txt").write_text("kind: [unclosed\n")  # another suffix
    (tmp_path / "dangling.yaml").symlink_to(tmp_path / "gone.yaml")
    (tmp_path / "loop.yaml").symlink_to(tmp_path / "loop.yaml")
    (tmp_path / "dir.yaml").mkdir()
    (tmp_path / "dir.yaml" / "inner.json").write_text(THREE_DOCS)
    load = load_directory(tmp_path, tmp_path / "pod.yaml")
    assert load.errors == []
    assert [d.ref for d in load.documents] == [
        "ricplt/Pod/e2term", "ns/Pod/a", "ns/Service/b", "ns/ConfigMap/c"]
    # The pod was read once, under a-link.yaml, the first path that reached it.
    (tmp_path / "pod.yaml").write_text("kind: [unclosed\n")
    load = load_directory(tmp_path, tmp_path / "pod.yaml")
    [line] = load.errors
    assert re.fullmatch(rf"parse error in {re.escape(str(tmp_path / 'a-link.yaml'))}: "
                        r"document 0: .* at line 2, column 1", line)
    assert [d.ref for d in load.documents] == ["ns/Pod/a", "ns/Service/b", "ns/ConfigMap/c"]


def test_hard_link_loads_once_under_its_first_path(tmp_path, monkeypatch):
    (tmp_path / "pod.yaml").write_text(POD)
    os.link(tmp_path / "pod.yaml", tmp_path / "hard.yaml")  # sorts before pod.yaml
    parsed = []

    def spy(text, origin):
        parsed.append(origin)
        return parse_manifest_stream(text, origin)

    monkeypatch.setattr(manifests, "parse_manifest_stream", spy)
    load = load_directory(tmp_path, tmp_path / "pod.yaml")
    assert [d.ref for d in load.documents] == ["ricplt/Pod/e2term"]
    assert parsed == [str(tmp_path / "hard.yaml")]


def test_fifo_with_a_manifest_suffix_is_skipped(tmp_path):
    (tmp_path / "pod.yaml").write_text(POD)
    os.mkfifo(tmp_path / "pipe.yaml")
    # Opening a FIFO with no writer blocks, so the load runs in a child
    # process: a FIFO that is read fails the test by timing out.
    package_parent = str(Path(manifests.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ricaudit.manifests import load_directory; "
         "load = load_directory(sys.argv[1]); "
         "print([d.ref for d in load.documents], len(load.errors))", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=package_parent),
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "['ricplt/Pod/e2term'] 0\n", "")


def test_file_gone_before_it_is_read_is_skipped_with_one_line(tmp_path):
    (tmp_path / "a.yaml").write_text(POD)
    (tmp_path / "b.yaml").write_text(THREE_DOCS)
    load = load_directory(tmp_path, consume=lambda docs: (tmp_path / "b.yaml").unlink())
    gone = tmp_path / "b.yaml"
    assert load.errors == [
        f"cannot read manifest {gone}: [Errno 2] No such file or directory: '{gone}'"]


def test_audit_passes_each_stage_diagnostic_line_unchanged(tmp_path):
    (tmp_path / "bad.yaml").write_text("metadata: {name: x}\n")
    (tmp_path / "report.json").write_text(json.dumps({
        "container": "c1", "image": {"registry": "r", "repository": "a", "tag": "1"},
        "entries": [{"cve_id": "CVE-1", "package": "p", "installed_version": "1", "cvss": 11.0}],
    }))
    (tmp_path / "inventory.yaml").write_text("- component: helm\n  version: latest\n")
    lines = []
    audit(manifests=[tmp_path / "bad.yaml"], scan_reports=[tmp_path / "report.json"],
          inventory=tmp_path / "inventory.yaml", diag=lines.append)
    assert lines == [
        f"parse error in {tmp_path / 'bad.yaml'}: document 0: no kind field",
        "c1: rejected entry 0: cvss 11.0 outside [0.0, 10.0] for CVE-1",
        "inventory entry 'helm': not a numeric version: 'latest'",
    ]


# --- metamorphic properties over generated manifest sets ---------------------
#
# A generated set draws documents from the shipped manifests and gives each
# a name of its own and one of a few namespaces. However the set is laid out
# or scoped, the audit must judge the same documents the same way.

SOURCES = [
    doc
    for path in sorted(data_path("fixtures", "manifests").rglob("*.yaml"))
    for doc in yaml.safe_load_all(path.read_text(encoding="utf-8"))
    if doc
]
NAMESPACES = ["ricplt", "ricxapp", "ricinfra"]


@st.composite
def manifest_sets(draw) -> list[dict]:
    """Documents copied from SOURCES, each renamed and put in a drawn namespace."""
    picks = draw(st.lists(st.tuples(st.integers(0, len(SOURCES) - 1),
                                    st.sampled_from(NAMESPACES)), min_size=1, max_size=8))
    documents = []
    for k, (source, namespace) in enumerate(picks):
        doc = json.loads(json.dumps(SOURCES[source]))  # a deep copy
        metadata = doc.setdefault("metadata", {})
        metadata["name"] = f"{metadata.get('name', 'doc')}-{k}"
        if "namespace" in metadata:  # cluster-scoped documents stay so
            metadata["namespace"] = namespace
        documents.append(doc)
    return documents


def write_set(directory, documents: list[dict], names: list[int] | None = None) -> None:
    """`documents` as one stream, or as one file each, the k-th named `names[k]`."""
    directory.mkdir()
    if names is None:
        (directory / "all.yaml").write_text(yaml.safe_dump_all(documents), encoding="utf-8")
        return
    for name, doc in zip(names, documents):
        (directory / f"d{name:02d}.yaml").write_text(yaml.safe_dump(doc), encoding="utf-8")


def payload_of(*argv: str) -> dict:
    """The JSON payload of `main(argv)`, less its run-dependent `generated_at`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", "json"])
    assert code in (0, 1) and err.getvalue() == "", err.getvalue()
    payload = json.loads(out.getvalue())
    del payload["generated_at"]
    return payload


@settings(derandomize=True, deadline=None, max_examples=30)
@given(manifest_sets(), st.randoms(use_true_random=False))
def test_payload_independent_of_file_layout_and_order(tmp_path_factory, documents, rng):
    root = tmp_path_factory.mktemp("layouts")
    split = list(range(len(documents)))
    shuffled = rng.sample(split, len(split))
    payloads = []
    for layout, names in (("split", split), ("shuffled", shuffled), ("stream", None)):
        write_set(root / layout, documents, names)
        payloads.append(payload_of("report", str(root / layout)))
    # The "list" layout: one List object holding them all, as `kubectl get -o yaml` writes.
    listed = root / "list.yaml"
    listed.write_text(yaml.safe_dump({"apiVersion": "v1", "kind": "List", "items": documents}),
                      encoding="utf-8")
    payloads.append(payload_of("report", str(listed)))
    assert payloads[0] == payloads[1] == payloads[2] == payloads[3]


@settings(derandomize=True, deadline=None, max_examples=30)
@given(manifest_sets())
def test_report_findings_and_rows_equal_those_of_scan(tmp_path_factory, documents):
    root = tmp_path_factory.mktemp("report") / "set"
    write_set(root, documents)
    scanned, reported = payload_of("scan", str(root)), payload_of("report", str(root))
    assert reported["findings"] == scanned["findings"]
    assert reported["containers"] == scanned["containers"]


@settings(derandomize=True, deadline=None, max_examples=30)
@given(manifest_sets(), st.sampled_from(NAMESPACES))
def test_namespace_scope_restricts_the_unscoped_findings(tmp_path_factory, documents, namespace):
    root = tmp_path_factory.mktemp("scope") / "set"
    write_set(root, documents)
    unscoped = payload_of("scan", str(root))["findings"]
    scoped = payload_of("scan", str(root), "--namespace", namespace)["findings"]
    assert scoped == [f for f in unscoped if f["resource"].startswith(f"{namespace}/")]


# --- the streamed manifest stage against a whole-set reference ---------------
#
# `audit` evaluates each file as it is parsed and keeps each document without
# its body; the reference loads every document, then runs `evaluate`, `Evidence.build`
# and `score_framework` on the whole set.

# A user rule that reads cross-document facts and bodies both, so its bodies are kept.
MIXED_CATALOG = {"rules": [{
    "id": "USER-OPEN-UNBOUNDED", "title": "Unbounded container in an open namespace",
    "severity": "high", "category": "network-segmentation", "applies_to": ["Pod", "Deployment"],
    "check": {"all_of": [
        {"namespace_lacks_kind": "NetworkPolicy"},
        {"any_container": {"path_absent": "resources.limits.cpu"}},
    ]},
}]}


def network_policy(namespace: str) -> dict:
    return {"apiVersion": "networking.k8s.io/v1", "kind": "NetworkPolicy",
            "metadata": {"name": "default-deny", "namespace": namespace},
            "spec": {"podSelector": {}, "policyTypes": ["Ingress"]}}


@st.composite
def file_sets(draw) -> list[list[dict]]:
    """A drawn set spread over files, with some documents repeated in other
    files (duplicate refs) and a NetworkPolicy in some of the namespaces."""
    documents = draw(manifest_sets())
    documents += [network_policy(ns) for ns in draw(st.sets(st.sampled_from(NAMESPACES)))]
    documents += draw(st.lists(st.sampled_from(documents), max_size=3))
    order = draw(st.permutations(range(len(documents))))
    cuts = sorted(draw(st.lists(st.integers(0, len(documents)), max_size=4)))
    bounds = [0, *cuts, len(documents)]
    return [[documents[i] for i in order[lo:hi]] for lo, hi in zip(bounds, bounds[1:])]


def write_files(directory, files: list[list[dict]]) -> None:
    directory.mkdir()
    for k, documents in enumerate(files):
        (directory / f"f{k:02d}.yaml").write_text(yaml.safe_dump_all(documents), encoding="utf-8")


def whole_set_result(directory, namespace, catalogs=()):
    bundle = load_catalogs(catalogs)
    documents = [d for d in load_directory(directory).documents
                 if not namespace or d.namespace == namespace]
    findings = evaluate(bundle.rules, documents)
    evidence = Evidence.build(findings, documents, bundle.rules)
    scores = [score_framework(fw, evidence)[0] for fw in bundle.frameworks]
    return build_result(tally=VulnTally(), findings=findings, resources=documents,
                        framework_scores=scores)


def assert_streamed_equals_whole_set(directory, namespace, catalogs=()):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        streamed = audit(catalogs=catalogs, manifests=[directory], namespace=namespace,
                         frameworks=())
        reference = whole_set_result(directory, namespace, catalogs)
    assert streamed.findings == reference.findings
    assert streamed.framework_scores == reference.framework_scores
    assert rendered_json(streamed) == rendered_json(reference)
    return streamed


@settings(derandomize=True, deadline=None, max_examples=25)
@given(file_sets(), st.sampled_from(NAMESPACES), st.booleans())
def test_streamed_stage_equals_whole_set_evaluation(tmp_path_factory, files, namespace, mixed):
    root = tmp_path_factory.mktemp("streamed")
    write_files(root / "set", files)
    catalogs = ()
    if mixed:
        (root / "user.yaml").write_text(yaml.safe_dump(MIXED_CATALOG), encoding="utf-8")
        catalogs = (root / "user.yaml",)
    for scope in (None, namespace):
        assert_streamed_equals_whole_set(root / "set", scope, catalogs)
    # What the streamed stage keeps of each document is the document with no
    # body, unless the mixed rule applies to its kind.
    evaluation = Evaluation(load_catalogs(catalogs).rules)
    load_directory(root / "set", consume=evaluation.add)
    whole = load_directory(root / "set").documents
    kept_kinds = MIXED_CATALOG["rules"][0]["applies_to"] if mixed else []
    assert evaluation.finish()[1] == [doc if doc.kind in kept_kinds else doc._replace(body=None)
                                      for doc in whole]


def workload(kind: str, name: str, namespace: str, limits: dict | None = None) -> dict:
    container = {"name": "c", "image": "x:1", **({"resources": {"limits": limits}} if limits else {})}
    spec = {"containers": [container]}
    return {"apiVersion": "v1", "kind": kind, "metadata": {"name": name, "namespace": namespace},
            "spec": spec if kind == "Pod" else {"template": {"spec": spec}}}


def test_rule_mixing_context_and_body_checks_keeps_only_its_bodies(tmp_path):
    pod, deployment = workload("Pod", "p", "open"), workload("Deployment", "d", "open")
    bounded = workload("Pod", "b", "open", limits={"cpu": "1", "memory": "1Gi"})
    guarded = workload("Deployment", "d", "guarded")
    configmap = {"apiVersion": "v1", "kind": "ConfigMap", "metadata": {"name": "c", "namespace": "open"}}
    files = [[pod, configmap], [deployment, bounded, guarded, network_policy("guarded")], [pod]]
    write_files(tmp_path / "set", files)
    (tmp_path / "user.yaml").write_text(yaml.safe_dump(MIXED_CATALOG), encoding="utf-8")
    catalogs = (tmp_path / "user.yaml",)

    result = assert_streamed_equals_whole_set(tmp_path / "set", None, catalogs)
    fired = sorted((f.rule_id, f.resource) for f in result.findings
                   if f.rule_id in ("USER-OPEN-UNBOUNDED", "MISC-DUPREF"))
    assert fired == [("MISC-DUPREF", "open/Pod/p")] * 2 + [
        ("USER-OPEN-UNBOUNDED", "open/Deployment/d")] + [("USER-OPEN-UNBOUNDED", "open/Pod/p")] * 2
    assert_streamed_equals_whole_set(tmp_path / "set", "guarded", catalogs)

    evaluation = Evaluation(load_catalogs(catalogs).rules)
    for documents in files:
        evaluation.add(parse_manifest_stream(yaml.safe_dump_all(documents), "f.yaml"))
    # Only the documents the mixed rule applies to keep their bodies.
    records = evaluation.finish()[1]
    assert [doc.ref for doc in records if doc.body is not None] == [
        "open/Pod/p", "open/Deployment/d", "open/Pod/b", "guarded/Deployment/d", "open/Pod/p"]
    assert [doc.ref for doc in records if doc.body is None] == [
        "open/ConfigMap/c", "guarded/NetworkPolicy/default-deny"]


class Body(dict):
    """A document body that a weak reference can follow."""


def test_no_body_outlives_its_file(monkeypatch, vulnerable_manifests):
    parse = manifests.parse_manifest_stream
    bodies: list[weakref.ref] = []
    alive_at_parse: list[int] = []

    def tracked(text, origin):
        alive_at_parse.append(sum(body() is not None for body in bodies))
        documents = [doc._replace(body=Body(doc.body)) for doc in parse(text, origin)]
        bodies.extend(weakref.ref(doc.body) for doc in documents)
        return documents

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.setattr(manifests, "parse_manifest_stream", tracked)
    result = audit(manifests=[vulnerable_manifests], frameworks=())
    assert len(alive_at_parse) > 10
    assert alive_at_parse == [0] * len(alive_at_parse)
    monkeypatch.undo()
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert result == audit(manifests=[vulnerable_manifests], frameworks=())
