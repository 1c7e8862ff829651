"""Command-line entry point.

Sub-commands map to the assessment workflows: `scan` (manifest
misconfigurations), `vulns` (scan-report aggregation), `score` (framework
compliance), `versions` (outdated components), and `report` (everything
combined). Each only chooses which of its inputs to hand to the one
`pipeline.audit`. Exit codes are a CI contract: 0 clean at the threshold, 1 at
least one finding at/above it, 2 tool error; an unexpected exception is a
one-line `internal error` with exit 2, and its traceback is printed only when
RICAUDIT_DEBUG is set to a non-empty value. Diagnostics go to stderr; the
report payload goes to stdout or --output, never interleaved.
"""

from __future__ import annotations

import argparse
import os
import reprlib
import sys
from collections.abc import Callable, Mapping, Sequence
from pathlib import Path
from typing import Any

from . import __version__, yamlio
from .errors import AuditError, IoError
from .pipeline import audit
from .predicates import BOOLEAN, SHAPES, STRING, STRINGS
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

FORMATS = ("table", "json", "both")
SEVERITIES = tuple(c.name.lower() for c in SeverityClass)

# Every value a sub-command can be given, by the audit() input or output
# setting it sets: (its flag, its config key, its default, the shape a config
# value must have, the flag's argparse keywords). "inputs" is the positional
# argument. Rows are in --help order.
SETTINGS: dict[str, tuple[str, str, Any, Callable[[Any], bool], dict[str, Any]]] = {
    "manifests": ("inputs", "inputs", (), SHAPES[STRINGS],
                  dict(nargs="*", help="manifest files or directories")),
    "namespace": ("--namespace", "namespace", None, SHAPES[STRING],
                  dict(help="restrict the audit to one namespace")),
    "catalogs": ("--catalog", "catalogs", (), SHAPES[STRINGS], dict(action="append", metavar="PATH",
                 help="extra rule/framework/advisory data file (repeatable)")),
    "frameworks": ("--framework", "frameworks", (), SHAPES[STRINGS], dict(action="append",
                   metavar="ID", help="score only this framework id (repeatable)")),
    "scan_reports": ("--scan-report", "scan_reports", (), SHAPES[STRINGS], dict(action="append",
                     metavar="PATH", help="container scan report to ingest (repeatable)")),
    "inventory": ("--inventory", "inventory", None, SHAPES[STRING],
                  dict(metavar="PATH", help="component inventory file")),
    "endpoint": ("--endpoint", "endpoint", None, SHAPES[STRING],
                 dict(metavar="URL", help="cluster API base URL to audit live")),
    "token": ("--token-env", "token_env", None, SHAPES[STRING],
              dict(metavar="VAR", help="environment variable holding the bearer token")),
    "format": ("--format", "format", "table", FORMATS.__contains__,
               dict(choices=FORMATS, help="payload format (default table)")),
    "fail_on": ("--fail-on", "fail_on", "critical",
                lambda v: isinstance(v, str) and v.strip().lower() in SEVERITIES,
                dict(choices=SEVERITIES,
                     help="severity threshold for exit code 1 (default critical)")),
    "output": ("--output", "output", None, SHAPES[STRING],
               dict(metavar="PATH", help="write the payload to a file instead of stdout")),
    "insecure": ("--insecure", "insecure", False, SHAPES[BOOLEAN],
                 dict(action="store_true", default=None,
                      help="allow plain-text cluster endpoints")),
}
OUTPUTS = ("format", "fail_on", "output")

MANIFESTS = ("manifests", "endpoint", "token", "insecure", "namespace")
# Sub-command -> (its help, the audit() inputs it reads, the inputs one of
# which it needs, the error when it has none of them). Reading "frameworks"
# turns scoring on. A sub-command takes --config and the flags of the inputs
# it reads and of the OUTPUTS.
AUDITS: dict[str, tuple[str, tuple[str, ...], tuple[str, ...], str]] = {
    "scan": ("evaluate misconfiguration rules against manifests", ("catalogs", *MANIFESTS),
             ("manifests", "endpoint"), "scan needs manifest paths or --endpoint"),
    "vulns": ("aggregate container vulnerability scan reports", ("scan_reports",),
              ("scan_reports",), "vulns needs at least one --scan-report"),
    "score": ("compute framework compliance scores", ("catalogs", "frameworks", *MANIFESTS),
              ("manifests", "endpoint"), "score needs manifest paths or --endpoint"),
    "versions": ("audit a component inventory against advisories", ("catalogs", "inventory"),
                 ("inventory",), "versions needs --inventory"),
    "report": ("run every workflow and emit one combined report",
               ("catalogs", "frameworks", "scan_reports", "inventory", *MANIFESTS),
               ("manifests", "endpoint", "scan_reports"),
               "report needs manifests, --scan-report files, or --endpoint"),
}


def _diag(message: str) -> None:
    print(f"ricaudit: {message}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricaudit",
        description="Security audit toolkit for Kubernetes-based RAN deployments.",
    )
    parser.add_argument("--version", action="version", version=f"ricaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, reads, _, _) in AUDITS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="optional YAML config file; flags take precedence")
        takes = (*reads, *OUTPUTS)
        for name in filter(takes.__contains__, SETTINGS):
            flag, _, _, _, options = SETTINGS[name]
            if flag.startswith("--"):
                p.add_argument(flag, dest=name, **options)
            else:
                p.add_argument(name, metavar=flag, **options)
    sub.add_parser("verify-fixtures")
    return parser


def _resolve(args: argparse.Namespace) -> dict[str, Any]:
    """Each setting of the sub-command: the flag if given, else the config
    value if it has its row's shape, else the default."""
    names = [name for name in SETTINGS if hasattr(args, name)]
    file_values: Mapping[str, Any] = {}
    if args.config:
        raw = yamlio.load_file(args.config, "config")
        if raw is not None and not isinstance(raw, Mapping):
            raise IoError(f"config {args.config} must be a mapping")
        file_values = raw or {}
        keys = {SETTINGS[name][1] for name in names}
        for key in file_values:
            if key not in keys:
                raise IoError(f"config {args.config}: unknown key {reprlib.repr(key)} "
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
                raise IoError(f"config {args.config}: invalid value for {key}: "
                              f"{reprlib.repr(value)}")
        values[name] = value
    return values


def _emit(result: AuditResult, format: str, output: str | None) -> None:
    parts = []
    if format in ("table", "both"):
        parts.append(render_table(result))
        parts.append(render_remediations(result))
    if format in ("json", "both"):
        parts.append(render_json(result) + "\n")
    payload = "".join(parts)
    if output:
        Path(output).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify-fixtures":
            from .fixtures import verify_fixtures  # the only command that needs it

            checks = verify_fixtures()
            print(f"fixtures verified: {len(checks)} checks passed", file=sys.stderr)
            return EXIT_CLEAN
        _, _, needs, missing = AUDITS[args.command]
        given = _resolve(args)
        format, fail_on, output = (given.pop(name) for name in OUTPUTS)
        if given.get("token"):
            given["token"] = os.environ.get(given["token"])
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
