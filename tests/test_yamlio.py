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

import ricaudit
from ricaudit import yamlio
from ricaudit.catalogs import data_path
from ricaudit.errors import AuditError, InvalidYaml, IoError, MalformedDocument
from ricaudit.manifests import parse_manifest_stream

POD = "kind: Pod\nmetadata: {name: p, namespace: ns}\n"

# Far deeper than libyaml's composer survives (it segfaulted near 25,000).
DEEP_INPUTS = {
    "flow": "[" * 100_000,
    "block": "- " * 30_000 + "x\n",
}


def nested(depth: int) -> str:
    return "[" * depth + "]" * depth


def run_python(*argv: str, timeout: float = 120) -> subprocess.CompletedProcess:
    package_parent = str(Path(ricaudit.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=package_parent), timeout=timeout,
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
    with pytest.raises(MalformedDocument) as exc:
        parse_manifest_stream(text, "deep.yaml")
    assert exc.value.document_index == 2
    assert "nesting deeper than 256 levels" in str(exc.value)


def test_earlier_syntax_error_wins_over_later_depth():
    text = POD + "---\nkind: [unclosed\n---\n" + nested(300) + "\n"
    with pytest.raises(MalformedDocument) as exc:
        parse_manifest_stream(text, "bad.yaml")
    assert exc.value.document_index == 1
    assert "nesting" not in str(exc.value)


def test_long_single_line_value_parses():
    value = "x" * 300_000
    text = f"kind: ConfigMap\nmetadata: {{name: big, namespace: ns}}\ndata: {{blob: {value}}}\n"
    [doc] = parse_manifest_stream(text, "big.yaml")
    assert doc.body["data"]["blob"] == value


# --- one-line errors --------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["kind: [unclosed\n", "a: *missing\n", "a: !!int x\n", "a: 1\n---\nb: 2\n", b"\xff\xfe bad"],
)
def test_errors_are_one_line(text):
    with pytest.raises(InvalidYaml) as exc:
        yamlio.load(text)
    assert "\n" not in str(exc.value)


def test_syntax_error_message_has_position():
    with pytest.raises(InvalidYaml) as exc:
        yamlio.load("a: [1, 2\n")
    assert "line 2, column 1" in str(exc.value)


def test_load_file_errors_name_the_input(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [1, 2\n")
    with pytest.raises(IoError) as exc:
        yamlio.load_file(bad, "thing")
    assert str(exc.value).startswith(f"thing {bad}: invalid YAML: ")
    with pytest.raises(IoError) as exc:
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


def test_cli_import_leaves_network_stack_unloaded():
    code = (
        "import sys, ricaudit.cli\n"
        "loaded = [m for m in ('requests', 'ssl', 'ricaudit.cluster') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "from ricaudit import ClusterEndpoint, fetch_resources\n"
        "assert 'requests' in sys.modules\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError):
        ricaudit.no_such_name  # noqa: B018
