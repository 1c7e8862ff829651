"""Command-line entry point.

Sub-commands map to the assessment workflows: `scan` (manifest
misconfigurations), `vulns` (scan-report aggregation), `score` (framework
compliance), `versions` (outdated components), and `report` (everything
combined). Each only chooses which of its inputs to hand to the one
`pipeline.audit`. Exit codes are a CI contract: 0 clean at the threshold, 1 at
least one finding at/above it, 2 tool error; an unexpected exception is a
one-line `internal error` with exit 2, and its traceback is printed only when
RICAUDIT_DEBUG is set to a non-empty value. Diagnostics go to stderr; the
report payload goes to stdout or --output, never interleaved, and is written
as it is rendered: after exit 2 either may hold part of a payload.
"""

from __future__ import annotations

import os
import reprlib
import sys
from collections.abc import Callable, Mapping, Sequence
from contextlib import nullcontext
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any

from . import __version__, yamlio
from .errors import AuditError
from .pipeline import audit
from .predicates import NONEMPTY, SHAPES
from .report import (
    EXIT_CLEAN,
    EXIT_TOOL_ERROR,
    AuditResult,
    exit_code,
    render_json,
    render_remediations,
    render_table,
)
from .severity import SeverityClass

if TYPE_CHECKING:
    import argparse

FORMATS = ("table", "json", "both")
SEVERITIES = tuple(c.name.lower() for c in SeverityClass)
# An empty string is no path, namespace or framework id (`Path("")` is the
# current directory), so no setting that takes strings accepts one.
_NONEMPTY = SHAPES[NONEMPTY]
_NONEMPTY_LIST = lambda v: isinstance(v, list) and all(map(_NONEMPTY, v))

# Every value a sub-command can be given, by the audit() input or output
# setting it sets: (its flag, its config key, its default, the shape its
# value must have, the flag's argparse keywords). "inputs" is the positional
# argument. Rows are in --help order.
SETTINGS: dict[str, tuple[str, str, Any, Callable[[Any], bool], dict[str, Any]]] = {
    "manifests": ("inputs", "inputs", (), _NONEMPTY_LIST,
                  dict(nargs="*", help="manifest files or directories")),
    "namespace": ("--namespace", "namespace", None, _NONEMPTY,
                  dict(help="restrict the audit to one namespace")),
    "catalogs": ("--catalog", "catalogs", (), _NONEMPTY_LIST, dict(action="append", metavar="PATH",
                 help="extra rule/framework/advisory data file (repeatable)")),
    "frameworks": ("--framework", "frameworks", (), _NONEMPTY_LIST, dict(action="append",
                   metavar="ID", help="score only this framework id (repeatable)")),
    "scan_reports": ("--scan-report", "scan_reports", (), _NONEMPTY_LIST, dict(action="append",
                     metavar="PATH", help="container scan report to ingest (repeatable)")),
    "inventory": ("--inventory", "inventory", None, _NONEMPTY,
                  dict(metavar="PATH", help="component inventory file")),
    "format": ("--format", "format", "table", FORMATS.__contains__,
               dict(choices=FORMATS, help="payload format (default table)")),
    "fail_on": ("--fail-on", "fail_on", "critical",
                lambda v: isinstance(v, str) and v.strip().lower() in SEVERITIES,
                dict(choices=SEVERITIES,
                     help="severity threshold for exit code 1 (default critical)")),
    "output": ("--output", "output", None, _NONEMPTY,
               dict(metavar="PATH", help="write the payload to a file instead of stdout")),
}
OUTPUTS = ("format", "fail_on", "output")

MANIFESTS = ("manifests", "namespace")
# Sub-command -> (its help, the audit() inputs it reads, the inputs one of
# which it needs, the error when it has none of them). Reading "frameworks"
# turns scoring on. A sub-command takes --config and the flags of the inputs
# it reads and of the OUTPUTS.
AUDITS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...], str]] = {
    "scan": ("evaluate misconfiguration rules against manifests", ("catalogs", *MANIFESTS),
             ("manifests",), "scan needs manifest paths"),
    "vulns": ("aggregate container vulnerability scan reports", ("scan_reports",),
              ("scan_reports",), "vulns needs at least one --scan-report"),
    "score": ("compute framework compliance scores", ("catalogs", "frameworks", *MANIFESTS),
              ("manifests",), "score needs manifest paths"),
    "versions": ("audit a component inventory against advisories", ("catalogs", "inventory"),
                 ("inventory",), "versions needs --inventory"),
    "report": ("run every workflow and emit one combined report",
               ("catalogs", "frameworks", "scan_reports", "inventory", *MANIFESTS),
               ("manifests", "scan_reports"), "report needs manifests or --scan-report files"),
}


def _diag(message: str) -> None:
    print(f"ricaudit: {message}", file=sys.stderr)


# Sub-command -> its option flags, each to the setting it sets and its
# argparse keywords, in --help order: --config, then those of the inputs it
# reads and of the OUTPUTS.
_FLAGS: dict[str, dict[str, tuple[str, dict[str, Any]]]] = {
    command: {
        "--config": ("config", dict(help="optional YAML config file; flags take precedence")),
        **{flag: (name, options) for name, (flag, _, _, _, options) in SETTINGS.items()
           if name in (*reads, *OUTPUTS) and flag.startswith("--")},
    }
    for command, (_, reads, _, _) in AUDITS.items()
}


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # only for the argv that `_read_argv` leaves to it

    parser = argparse.ArgumentParser(
        prog="ricaudit",
        description="Security audit toolkit for Kubernetes-based RAN deployments.",
    )
    parser.add_argument("--version", action="version", version=f"ricaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, reads, _, _) in AUDITS.items():
        p = sub.add_parser(command, help=help_text)
        if "manifests" in reads:
            flag, _, _, _, options = SETTINGS["manifests"]
            p.add_argument("manifests", metavar=flag, **options)
        for flag, (name, options) in _FLAGS[command].items():
            p.add_argument(flag, dest=name, **options)
    sub.add_parser("verify-fixtures")
    return parser


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """What `_build_parser().parse_args(argv)` returns, read in one pass, for
    argv of the plain form: a sub-command that audits, then its exact long
    flags, each followed by a value that does not start with "-" (one of its
    choices, if it has any), and at most one run of inputs.
    None for any other argv (help, abbreviations, --flag=value, "--", odd
    values, errors), which argparse reads: it is the one definition of the
    grammar. argparse costs time quadratic in the number of flags.
    """
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None:
        return None
    values: dict[str, Any] = {"command": argv[0], **{name: None for name, _ in flags.values()}}
    inputs = [] if "manifests" in AUDITS[argv[0]][1] else None
    run = 0  # inputs: 0 none yet, 1 in the run, 2 after it
    i, end = 1, len(argv)
    while i < end:
        word = argv[i]
        i += 1
        if word[:1] != "-":
            if inputs is None or run == 2:
                return None
            inputs.append(word)
            run = 1
            continue
        if word not in flags:
            return None
        run = 2 if run else 0
        name, options = flags[word]
        if i == end or argv[i][:1] == "-":
            return None
        value = argv[i]
        i += 1
        if "choices" in options and value not in options["choices"]:
            return None
        if options.get("action") != "append":
            values[name] = value
        elif values[name] is None:
            values[name] = [value]
        else:
            values[name].append(value)
    if inputs is not None:
        values["manifests"] = inputs
    return SimpleNamespace(**values)


def _resolve(args: argparse.Namespace | SimpleNamespace) -> dict[str, Any]:
    """Each setting of the sub-command: the flag if given, else the config
    value if it has its row's shape, else the default. A flag value, or
    --config, that is an empty string is a usage error: the argv readers
    give only strings, and only values among a flag's choices."""
    names = [name for name in SETTINGS if hasattr(args, name)]
    given = [("--config", args.config, _NONEMPTY)]
    given += [(SETTINGS[name][0], getattr(args, name), SETTINGS[name][3]) for name in names]
    for flag, value, valid in given:
        if value is not None and not valid(value):
            raise AuditError(f"empty value for {flag}")
    file_values: Mapping[str, Any] = {}
    if args.config is not None:
        raw = yamlio.load_file(args.config, "config")
        if raw is not None and not isinstance(raw, Mapping):
            raise AuditError(f"config {args.config} must be a mapping")
        file_values = raw or {}
        keys = {SETTINGS[name][1] for name in names}
        for key in file_values:
            if key not in keys:
                raise AuditError(f"config {args.config}: unknown key {reprlib.repr(key)} "
                                 f"for {args.command}")
    values = {}
    for name in names:
        _, key, default, valid, _ = SETTINGS[name]
        value = getattr(args, name)
        if value is None or value == []:
            value = file_values.get(key)
            if value is None:
                value = default
            elif not valid(value):
                # Bounded: aliases can make a value huge.
                raise AuditError(f"config {args.config}: invalid value for {key}: "
                                 f"{reprlib.repr(value)}")
        values[name] = value
    return values


def _emit(result: AuditResult, format: str, output: str | None) -> None:
    """Write the payload to `output` (UTF-8), or to stdout, as it is rendered."""
    try:
        with open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout) as stream:
            if format in ("table", "both"):
                render_table(result, stream)
                stream.write(render_remediations(result))
            if format in ("json", "both"):
                render_json(result, stream)
                stream.write("\n")
    except OSError as exc:
        raise AuditError(f"cannot write output {output or '<stdout>'}: {exc}") from exc


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    try:
        if args.command == "verify-fixtures":
            from .fixtures import verify_fixtures  # the only command that needs it

            checks = verify_fixtures()
            print(f"fixtures verified: {len(checks)} checks passed", file=sys.stderr)
            return EXIT_CLEAN
        _, _, needs, missing = AUDITS[args.command]
        given = _resolve(args)
        format, fail_on, output = (given.pop(name) for name in OUTPUTS)
        if not any(given[name] for name in needs):
            raise AuditError(missing)
        result = audit(**given, diag=_diag)
        _emit(result, format, output)
        return exit_code(result, SeverityClass.from_label(fail_on))
    except (AuditError, OSError) as exc:
        # Covers fixture drift too: corrupt shipped data is a tool error.
        _diag(str(exc))
        return EXIT_TOOL_ERROR
    except Exception as exc:
        # A defect in ricaudit is a tool error too, never a finding (exit 1).
        if os.environ.get("RICAUDIT_DEBUG"):
            import traceback

            traceback.print_exc()
        _diag(f"internal error: {type(exc).__name__}: {reprlib.repr(str(exc))}")
        return EXIT_TOOL_ERROR


def run() -> None:
    raise SystemExit(main())
