"""The shared YAML loader: depth guard, one-line errors, loader equivalence.

Deep-nesting inputs run the CLI in a subprocess: libyaml composes nodes on
the C stack, so a regression here kills the process with a signal, which
must not take the test run down with it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import ricaudit
from ricaudit import yamlio
from ricaudit.catalogs import data_path
from ricaudit.errors import AuditError, DocumentError, InvalidYaml
from ricaudit.manifests import parse_manifest_stream

POD = "kind: Pod\nmetadata: {name: p, namespace: ns}\n"

# Far deeper than libyaml's composer survives (it segfaulted near 25,000).
DEEP_INPUTS = {
    "flow": "[" * 100_000,
    "block": "- " * 30_000 + "x\n",
}


def nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def run_python(*argv: str, timeout: float = 120,
               extra_path: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    package_parent = str(Path(ricaudit.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([package_parent, *extra_path])),
        timeout=timeout,
    )


def run_ricaudit(*argv: str, timeout: float = 120) -> subprocess.CompletedProcess:
    return run_python("-m", "ricaudit", *argv, timeout=timeout)


def assert_one_line_exit_2(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 2, proc.stderr[-500:]
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr


# --- depth guard ----------------------------------------------------------


@pytest.mark.parametrize("shape", sorted(DEEP_INPUTS))
def test_deep_manifest_is_skipped_with_one_line(tmp_path, shape):
    (tmp_path / "deep.yaml").write_text(DEEP_INPUTS[shape])
    (tmp_path / "ok.yaml").write_text(POD + "spec: {containers: []}\n")
    proc = run_ricaudit("scan", str(tmp_path), "--format", "json")
    assert proc.returncode >= 0  # never killed by a signal
    assert proc.returncode in (0, 1), proc.stderr[-500:]
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.strip().splitlines()
    assert line.startswith("ricaudit: parse error in ")
    assert f"nesting deeper than {yamlio.MAX_DEPTH} levels" in line
    assert '"resource":"ns/Pod/p"' in proc.stdout  # the other file still audited


@pytest.mark.parametrize("shape", sorted(DEEP_INPUTS))
@pytest.mark.parametrize("flag", ["--inventory", "--catalog", "--config"])
def test_deep_side_input_exits_2(tmp_path, inventory_path, flag, shape):
    deep = tmp_path / "deep.yaml"
    deep.write_text(DEEP_INPUTS[shape])
    argv = {
        "--inventory": ["versions", "--inventory", str(deep)],
        "--catalog": ["versions", "--inventory", str(inventory_path), "--catalog", str(deep)],
        "--config": ["versions", "--config", str(deep)],
    }[flag]
    proc = run_ricaudit(*argv)
    assert proc.returncode >= 0
    assert_one_line_exit_2(proc)
    assert "nesting deeper than 256 levels" in proc.stderr


def test_catalog_alias_fan_out_exits_2(tmp_path, hardened_manifests):
    # Each anchor lists the previous one twice: 40 levels in under 2 KB
    # expand to 2**40 checks. Rejected before any check is compiled, so
    # the short timeout bounds a regression's time and memory.
    anchors = ["  - &a0 {path_exists: spec}\n"]
    for i in range(1, 41):
        anchors.append(f"  - &a{i} {{all_of: [*a{i - 1}, *a{i - 1}]}}\n")
    catalog = tmp_path / "fan-out.yaml"
    catalog.write_text(
        "anchors:\n" + "".join(anchors)
        + "rules:\n  - id: X-FAN\n    title: t\n    severity: low\n"
        "    category: supply-chain\n    applies_to: [Pod]\n    check: *a40\n"
    )
    proc = run_ricaudit("scan", str(hardened_manifests), "--catalog", str(catalog), timeout=15)
    assert_one_line_exit_2(proc)
    assert "expands to more than 10000 mappings and lists" in proc.stderr


def test_depth_limit_is_inclusive():
    assert yamlio.load(nested(yamlio.MAX_DEPTH)) is not None
    with pytest.raises(InvalidYaml, match="nesting deeper than 256 levels"):
        yamlio.load(nested(yamlio.MAX_DEPTH + 1))


def test_indentless_nesting_counts_every_level():
    # Each column holds a mapping and an indentless sequence: two levels.
    levels = yamlio.MAX_DEPTH // 2 + 1
    text = "".join(f"{' ' * i}k:\n{' ' * i}-\n" for i in range(levels))
    with pytest.raises(InvalidYaml, match="nesting deeper"):
        yamlio.load(text)


def test_pure_python_fallback_has_same_limit(monkeypatch):
    monkeypatch.setattr(yamlio, "Loader", yaml.SafeLoader)
    assert yamlio.load(nested(yamlio.MAX_DEPTH)) is not None
    with pytest.raises(InvalidYaml, match="nesting deeper"):
        yamlio.load(nested(yamlio.MAX_DEPTH + 1))


def test_depth_error_names_the_deep_document():
    text = POD + "---\n" + POD + "---\n" + nested(300) + "\n"
    with pytest.raises(DocumentError, match=r"^deep\.yaml: document 2: .*nesting deeper "
                                            r"than 256 levels"):
        parse_manifest_stream(text, "deep.yaml")


def test_earlier_syntax_error_wins_over_later_depth():
    text = POD + "---\nkind: [unclosed\n---\n" + nested(300) + "\n"
    with pytest.raises(DocumentError, match=r"^bad\.yaml: document 1: ") as exc:
        parse_manifest_stream(text, "bad.yaml")
    assert "nesting" not in str(exc.value)


def test_long_single_line_value_parses():
    value = "x" * 300_000
    text = f"kind: ConfigMap\nmetadata: {{name: big, namespace: ns}}\ndata: {{blob: {value}}}\n"
    [doc] = parse_manifest_stream(text, "big.yaml")
    assert doc.body["data"]["blob"] == value


# --- indicator prefilter and plain-tree constructor --------------------------
#
# load_all runs the event scan only on a text holding more than MAX_DEPTH of
# the characters "[{-:?", because each mapping or sequence start needs one of
# its own. Texts below mix both styles with everything that could break that:
# anchors and aliases (to scalars and collections), !!map/!!seq tags,
# indicator characters inside quoted and escaped scalars and comments, and
# several documents, some nested just around the cap. The same streams, with
# leaves the plain-tree walk must hand to the safe constructor, check that
# load_all yields the documents and raises the errors PyYAML's own does.

INDICATORS = "[{-:?"
SCALARS = ["x", "a-b", "'- [c]: {d}?'", '"?: #-"', '"\\x5b\\u007b\\x2d"', "1", "null",
           "[]", "{}"]
# Leaves the plain walk must leave to the safe constructor, or build exactly as it does.
ODD_LEAVES = SCALARS + [
    "!!int 7", "!!bool yes", "!!float 2", "!!null ''", "!!str 3", "0x1F", "1:30", ".nan", "~",
    "2001-12-14", "!!binary aGk=", "!!int x", "!!bool maybe", "!!timestamp x", "!!float ''",
    "!custom x",
    "{<<: {m: 1}, n: 2}", "{? [a]: b}", "{1: a, true: b}", "!!set {a, b}", "!!omap [a: 1]",
    "!!str [a]", "!!map x",
]


def trees(leaves: list[str]):
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.tuples(st.sampled_from(["seq", "map"]), st.booleans(), st.booleans(),
                                st.booleans(), st.lists(inner, min_size=1, max_size=3)),
        max_leaves=12,
    )


class Document:
    """Renders one generated tree as YAML, each collection in flow or block style."""

    def __init__(self, draw_alias: list[bool]) -> None:
        self.anchors: list[str] = []
        self.draw_alias = iter(draw_alias)

    def scalar(self, value: str) -> str:
        """`value`, or for a drawn True an alias to the last anchor, or an anchor if none."""
        if not next(self.draw_alias, False):
            return value
        if self.anchors:
            return f"*{self.anchors[-1]}"
        self.anchors.append("a0")
        return f"&a0 {value}"

    def properties(self, kind: str, tagged: bool, anchored: bool) -> str:
        """Tag and anchor of a collection, called once its items are rendered so
        that none of them refers to the collection itself."""
        anchor = ""
        if anchored:
            self.anchors.append(f"a{len(self.anchors)}")
            anchor = f"&{self.anchors[-1]} "
        return anchor + (f"!!{kind} " if tagged else "")

    def flow(self, tree) -> str:
        if isinstance(tree, str):
            return self.scalar(tree)
        kind, _, tagged, anchored, items = tree
        body = ", ".join(
            self.flow(item) if kind == "seq" else f"k{i}: {self.flow(item)}"
            for i, item in enumerate(items))
        brackets = "[]" if kind == "seq" else "{}"
        return f"{self.properties(kind, tagged, anchored)}{brackets[0]}{body}{brackets[1]}"

    def block(self, tree, indent: int) -> str:
        """`tree` as the value after a "- ", "k: " or "--- " indicator, with a newline."""
        if isinstance(tree, str) or tree[1]:
            return self.flow(tree) + " # -{:[?\n"
        kind, _, tagged, anchored, items = tree
        pad = " " * indent
        lines = "".join(
            f"{pad}- {self.block(item, indent + 2)}" if kind == "seq"
            else f"{pad}k{i}: {self.block(item, indent + 2)}"
            for i, item in enumerate(items))
        return f"{self.properties(kind, tagged, anchored)}\n{lines}"


@st.composite
def yaml_streams(draw, leaves=SCALARS, depths=(0, 0, yamlio.MAX_DEPTH - 2, yamlio.MAX_DEPTH)):
    """A stream of generated documents, some wrapped in nesting around MAX_DEPTH."""
    documents = []
    for tree in draw(st.lists(trees(leaves), min_size=1, max_size=3)):
        document = Document(draw(st.lists(st.booleans(), max_size=12)))
        depth = draw(st.sampled_from(depths))
        if depth:
            wrap, close = draw(st.sampled_from([("[", "]"), ("{k: ", "}"), ("- ", "")]))
            text = wrap * depth + document.flow(tree) + close * depth + "\n"
            documents.append("\n" + text if wrap == "- " else text)
        else:
            documents.append(document.block(tree, 0))
    return "".join(f"--- {text}" + "# [{-:? between documents\n" for text in documents)


def collection_starts(text: str) -> int:
    """Mapping and sequence start events libyaml emits before the stream ends or fails."""
    starts, parser = 0, yamlio.Loader(text)
    try:
        for event in iter(parser.get_event, None):
            starts += isinstance(event, (yaml.MappingStartEvent, yaml.SequenceStartEvent))
    except yaml.YAMLError:
        pass
    finally:
        parser.dispose()
    return starts


# The alphabet spells the indicators out, so that one missing from the
# loader's own set still turns up in the texts.
short_texts = st.text(st.sampled_from(INDICATORS + "ab&*!'\"\\# \n\t,"), max_size=40)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(yaml_streams() | short_texts)
@example("[[x]]")
@example("{a: {b: c}}")
@example("- - x")
@example("? ? x")
@example("[a: [b: c]]")
@example("[a: b, ? c, {d: [e]}]")
@example("- ? - a\n  : - b\n")
@example("k:\n- k:\n  - x\n")
@example(nested(yamlio.MAX_DEPTH))
def test_collection_starts_never_exceed_indicators(text):
    indicators = sum(map(text.count, yamlio._COLLECTION_INDICATORS))
    assert collection_starts(text) <= indicators
    if indicators <= yamlio.MAX_DEPTH:
        assert yamlio._first_too_deep(text) is None


@settings(derandomize=True, deadline=None, max_examples=150)
@given(yaml_streams())
def test_depth_error_exactly_where_the_event_scan_finds_it(text):
    too_deep = yamlio._first_too_deep(text)
    if too_deep is None:
        list(yamlio.load_all(text))  # generated streams are otherwise valid
        return
    with pytest.raises(InvalidYaml, match="nesting deeper than 256 levels") as exc:
        list(yamlio.load_all(text))
    assert exc.value.document_index == too_deep


def outcome(documents) -> tuple[list, Exception | None]:
    """The documents an iterator yields, and the error that ended it, if any."""
    loaded = []
    try:
        for document in documents:
            loaded.append(document)
    except Exception as exc:  # the error is part of the outcome compared
        return loaded, exc
    return loaded, None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(yaml_streams(depths=[0]) | yaml_streams(ODD_LEAVES, depths=[0]) | short_texts)
@example("a: &x {b: 1}\nc: *x\n")
@example("a: &x [1]\nb: {<<: {c: *x}}\n")
@example("a: {<<: {m: 1}, n: 2}\n")
@example("? [a]\n: b\n")
@example("a: !!int x\n---\nb: !!bool maybe\n")
@example("a: 1\n---\nb: !!bool maybe\n")
def test_documents_and_errors_match_the_safe_constructor(text):
    expected, error = outcome(yaml.load_all(text, Loader=yamlio.Loader))
    loaded, raised = outcome(yamlio.load_all(text))
    assert repr(loaded) == repr(expected)  # repr: a NaN is not equal to itself
    if error is None:
        assert raised is None
    else:
        assert isinstance(error, yaml.YAMLError)  # `!!bool maybe` included
        assert isinstance(raised, InvalidYaml)
        assert (str(raised), raised.document_index) == (yamlio._one_line(error), len(expected))


def mapping_keys(tree) -> list:
    """Every mapping key in `tree`, depth first."""
    if isinstance(tree, dict):
        return [k for key, value in tree.items() for k in (key, *mapping_keys(value))]
    if isinstance(tree, list):
        return [k for item in tree for k in mapping_keys(item)]
    return []


key_trees = st.recursive(
    st.text(max_size=4) | st.integers(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=24) | st.integers() | st.booleans() | st.none(), inner, max_size=4),
    max_leaves=12,
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(key_trees)
@example({"app.kubernetes.io/name": {"readOnlyRootFilesystem": 1, 2: None, True: 3, None: 4}})
def test_str_keys_of_separate_documents_are_one_object(tree):
    text = yaml.safe_dump(tree)
    first, second = yamlio.load(text), yamlio.load(text)
    assert repr(first) == repr(yaml.load(text, Loader=yamlio.Loader))  # repr: True is not 1
    for a, b in zip(mapping_keys(first), mapping_keys(second), strict=True):
        if type(a) is str:
            assert a is b
        else:  # integer, boolean and null keys are left as the constructor builds them
            assert type(a) in (int, bool, type(None)) and a == b


def test_aliases_still_share_one_object():
    document = yamlio.load("a: &x {b: [1]}\nc: *x\n")
    assert document["a"] is document["c"]


@pytest.fixture
def event_scans(monkeypatch) -> list[str]:
    """The texts `_first_too_deep` is called on from now on."""
    calls: list[str] = []
    scan = yamlio._first_too_deep

    def counted(text: str):
        calls.append(text)
        return scan(text)

    monkeypatch.setattr(yamlio, "_first_too_deep", counted)
    return calls


def test_shipped_manifests_skip_the_event_scan(event_scans):
    manifests = sorted(Path(data_path(), "fixtures", "manifests").rglob("*.yaml"))
    assert len(manifests) >= 20
    for path in manifests:
        assert list(yamlio.load_all(path.read_bytes()))
    assert event_scans == []


def test_many_indicators_still_get_the_event_scan(event_scans):
    text = "- x\n" * 300  # shallow, but more than MAX_DEPTH indicators
    assert yamlio.load(text) == ["x"] * 300
    assert event_scans == [text]


# --- one-line errors --------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["kind: [unclosed\n", "a: *missing\n", "a: !!int x\n", "a: 1\n---\nb: 2\n", b"\xff\xfe bad"],
)
def test_errors_are_one_line(text):
    with pytest.raises(InvalidYaml) as exc:
        yamlio.load(text)
    assert "\n" not in str(exc.value)


# Each tag on each value, as a mapping value and as a key: PyYAML's own
# constructors let a KeyError (`!!bool maybe`), an AttributeError
# (`!!timestamp x`) or an IndexError (`!!int ''`) escape on some of them.
EXPLICIT_TAGS = ["!!str", "!!null", "!!bool", "!!int", "!!float", "!!timestamp", "!!binary",
                 "!!map", "!!seq", "!!set", "!!omap", "!!pairs", "!!merge", "!!value", "!custom",
                 "!<tag:yaml.org,2002:python/none>"]
TAGGED_VALUES = ["maybe", "x", "''", "'-'", "'+'", "_", "0b", "0x", "1:x", ".", "2001-13-01",
                 "2001-01-01 25:00:00", "2001-01-01 00:00:00 +99", "é", "~", "[a]", "{a: b}"]


@pytest.mark.parametrize("place", ["value", "key"])
@pytest.mark.parametrize("tag", EXPLICIT_TAGS)
def test_explicit_tag_loads_or_is_a_one_line_error(tag, place):
    for value in TAGGED_VALUES:
        spec = f"{tag} {value}" if place == "value" else f"{{{tag} {value}: x}}"
        try:
            list(yamlio.load_all(f"kind: Pod\nmetadata: {{name: p}}\nspec: {spec}\n"))
        except InvalidYaml as exc:
            assert "\n" not in str(exc), spec


def test_syntax_error_message_has_position():
    with pytest.raises(InvalidYaml) as exc:
        yamlio.load("a: [1, 2\n")
    assert "line 2, column 1" in str(exc.value)


def test_load_file_errors_name_the_input(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [1, 2\n")
    with pytest.raises(AuditError) as exc:
        yamlio.load_file(bad, "thing")
    assert str(exc.value).startswith(f"thing {bad}: invalid YAML: ")
    with pytest.raises(AuditError) as exc:
        yamlio.load_file(tmp_path / "none.yaml", "thing")
    assert str(exc.value).startswith(f"cannot read thing {tmp_path / 'none.yaml'}: ")


@pytest.mark.parametrize("content", [b"- component: [x\n", b"- component: \xff\n"])
def test_bad_inventory_is_one_line(tmp_path, content):
    inventory = tmp_path / "inv.yaml"
    inventory.write_bytes(content)
    assert_one_line_exit_2(run_ricaudit("versions", "--inventory", str(inventory)))


# --- loader equivalence -----------------------------------------------------


SHIPPED_YAML = sorted(
    p for p in Path(data_path()).rglob("*") if p.suffix in (".yaml", ".yml")
)


def test_every_shipped_yaml_file_is_covered():
    assert len(SHIPPED_YAML) >= 38  # the rules, frameworks, advisories and fixtures


@pytest.mark.parametrize("path", SHIPPED_YAML, ids=lambda p: p.name)
def test_shipped_yaml_loads_identically(path):
    text = path.read_text(encoding="utf-8")
    assert list(yamlio.load_all(text)) == list(yaml.load_all(text, Loader=yaml.SafeLoader))


# Where libyaml and PyYAML's pure-Python loader disagree, the libyaml
# behaviour is kept: it is the loader in use wherever PyYAML was built with
# it, and in both known cases it is the one that follows the YAML spec or
# refuses to produce a tree no consumer can use.
needs_libyaml = pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="divergence exists only with libyaml"
)


@needs_libyaml
def test_tab_inside_plain_scalar_is_accepted():
    # The spec allows tabs inside plain scalars; the pure loader rejects them.
    text = "kind: Namespa\tce\nmetadata: {name: x}\n"
    with pytest.raises(yaml.YAMLError):
        yaml.load(text, Loader=yaml.SafeLoader)
    assert yamlio.load(text)["kind"] == "Namespa\tce"


@needs_libyaml
def test_byte_order_mark_inside_stream_is_rejected():
    # The pure loader keeps a mid-stream U+FEFF as part of the next key, so
    # this Pod would load with its apiVersion silently lost. libyaml ends the
    # document at the mark and then rejects the stream.
    text = POD + "---\n\ufeffapiVersion: v1\nkind: Pod\nmetadata: {name: q, namespace: ns}\n"
    second = list(yaml.load_all(text, Loader=yaml.SafeLoader))[1]
    assert "\ufeffapiVersion" in second and second["kind"] == "Pod"
    with pytest.raises(InvalidYaml):
        list(yamlio.load_all(text))
    with pytest.raises(AuditError):
        parse_manifest_stream(text, "bom.yaml")


def test_leading_byte_order_mark_is_ignored():
    assert yamlio.load("\ufeffkind: Pod\n") == {"kind": "Pod"}


# --- import hygiene ---------------------------------------------------------


def fixture_report_argv(fixture_root, output) -> list[str]:
    """The per-CI-job `report` over the shipped corpus, as the benchmark's
    fixture-ci workload runs it."""
    argv = ["report", str(fixture_root / "manifests" / "vulnerable")]
    for path in sorted((fixture_root / "scan-reports").glob("*.json")):
        argv += ["--scan-report", str(path)]
    return argv + ["--inventory", str(fixture_root / "inventory.yaml"), "--namespace", "ricplt",
                   "--format", "both", "--output", str(output)]


def test_cli_import_leaves_network_stack_unloaded(tmp_path, fixture_root):
    # Every public name and a whole report load no HTTP client, TLS or
    # thread pool. (`certifi` and `urllib.parse` are left out: a site .pth
    # file may load them before the program starts.)
    code = (
        "import sys, ricaudit\n"
        "from ricaudit import cli\n"
        "for name in ricaudit.__all__:\n"
        "    getattr(ricaudit, name)\n"
        f"assert cli.main({fixture_report_argv(fixture_root, tmp_path / 'report.txt')!r}) == 1\n"
        "loaded = [m for m in ('requests', 'urllib3', 'ssl', 'concurrent.futures')\n"
        "          if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_package_import_loads_no_submodule():
    code = (
        "import sys, ricaudit\n"
        "loaded = [m for m in sys.modules if m.startswith('ricaudit.') or m == 'yaml']\n"
        "assert not loaded, loaded\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


# The ricaudit modules each stage module loads: only what it runs. Names that
# only annotations use are imported under TYPE_CHECKING.
STAGE_CLOSURES = {
    "predicates": {"errors", "predicates"},
    "rules": {"errors", "predicates", "rules", "severity"},
    "compliance": {"compliance"},
    "report": {"errors", "predicates", "report", "severity", "vulns"},
    "vulns": {"errors", "predicates", "severity", "vulns"},
    "versions": {"errors", "severity", "versions"},
}


@pytest.mark.parametrize("module", STAGE_CLOSURES)
def test_stage_import_loads_only_what_it_runs(module):
    code = (
        f"import sys, ricaudit.{module}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('ricaudit', 'yaml')))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    expected = ["ricaudit", *(f"ricaudit.{name}" for name in sorted(STAGE_CLOSURES[module]))]
    assert proc.stdout == f"{expected}\n"


def test_cli_import_leaves_fixtures_unloaded():
    code = (
        "import sys, ricaudit.cli\n"
        "assert 'ricaudit.fixtures' not in sys.modules\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_fixture_report_loads_no_dataclasses_or_fractions(tmp_path, fixture_root):
    """The per-CI-job fixture `report` leaves these modules unloaded: loading
    them costs more than the run's own work. The child runs without `site`,
    whose .pth files may load some of them first and so hide the program's
    imports; its path holds the package and PyYAML alone."""
    code = (
        "import sys\n"
        "from ricaudit import cli\n"
        f"assert cli.main({fixture_report_argv(fixture_root, tmp_path / 'report.txt')!r}) == 1\n"
        "loaded = [m for m in ('dataclasses', 'inspect', 'fractions', 'argparse',\n"
        "                      'importlib.resources') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    yaml_parent = str(Path(yaml.__file__).resolve().parent.parent)
    proc = run_python("-S", "-c", code, extra_path=(yaml_parent,))
    assert proc.returncode == 0, proc.stderr
    assert '"schema_version":"1"' in (tmp_path / "report.txt").read_text(encoding="utf-8")


# The package's public names, written out here rather than read from it.
PUBLIC_NAMES = {
    "__version__", "SeverityClass", "ThreatCategory", "DirectoryLoad", "ResourceDocument",
    "load_directory", "parse_manifest_stream", "Finding",
    "Rule", "evaluate", "ContainerScanSummary", "ImageRef", "VulnTally",
    "VulnTotals", "classify_severity", "occurrence_and_unique_totals", "parse_scan_report",
    "Control", "ControlResult", "Evidence",
    "Framework", "FrameworkScore", "control_compliance", "framework_score", "AdvisoryEntry",
    "Version", "VersionFinding", "audit_components", "parse_version", "AuditResult", "exit_code", "render_json", "render_table",
}


def test_public_names_resolve_to_their_modules_objects():
    assert set(ricaudit.__all__) == PUBLIC_NAMES and len(ricaudit.__all__) == len(PUBLIC_NAMES)
    star: dict = {}
    exec("from ricaudit import *", star)
    assert set(star) - {"__builtins__"} == PUBLIC_NAMES
    for name in PUBLIC_NAMES - {"__version__"}:
        value = getattr(ricaudit, name)
        assert value.__module__.startswith("ricaudit."), name
        assert getattr(sys.modules[value.__module__], name) is value is star[name]
    assert PUBLIC_NAMES <= set(dir(ricaudit))


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError):
        ricaudit.no_such_name  # noqa: B018
