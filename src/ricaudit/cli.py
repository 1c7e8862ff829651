"""Command-line entry point.

Sub-commands map to the assessment workflows: `scan` (manifest
misconfigurations), `vulns` (scan-report aggregation), `score` (framework
compliance), `versions` (outdated components), and `report` (everything
combined). Each only chooses which of its inputs to hand to the one
`pipeline.audit`. Exit codes are a CI contract: 0 clean at the threshold, 1 at
least one finding at/above it, 2 tool error. Diagnostics go to stderr;
the report payload goes to stdout or --output, never interleaved.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import __version__, yamlio
from .errors import AuditError, IoError
from .fixtures import verify_fixtures
from .pipeline import audit
from .predicates import SHAPES, STRING, STRINGS
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

MANIFESTS = ("manifests", "endpoint", "token", "insecure", "namespace")
# Sub-command -> (the audit() inputs it reads, the inputs one of which it
# needs, the error when it has none of them). Reading "frameworks" turns
# scoring on.
AUDITS: dict[str, tuple[tuple[str, ...], tuple[str, ...], str]] = {
    "scan": (("catalogs", *MANIFESTS), ("manifests", "endpoint"),
             "scan needs manifest paths or --endpoint"),
    "vulns": (("scan_reports",), ("scan_reports",), "vulns needs at least one --scan-report"),
    "score": (("catalogs", "frameworks", *MANIFESTS), ("manifests", "endpoint"),
              "score needs manifest paths or --endpoint"),
    "versions": (("catalogs", "inventory"), ("inventory",), "versions needs --inventory"),
    "report": (("catalogs", "frameworks", "scan_reports", "inventory", *MANIFESTS),
               ("manifests", "endpoint", "scan_reports"),
               "report needs manifests, --scan-report files, or --endpoint"),
}


@dataclass
class RunConfig:
    inputs: list[str] = field(default_factory=list)
    namespace: str | None = None
    catalogs: list[str] = field(default_factory=list)
    frameworks: list[str] = field(default_factory=list)
    scan_reports: list[str] = field(default_factory=list)
    inventory: str | None = None
    endpoint: str | None = None
    token_env: str | None = None
    format: str = "table"
    fail_on: SeverityClass = SeverityClass.CRITICAL
    output: str | None = None
    insecure: bool = False


def _diag(message: str) -> None:
    print(f"ricaudit: {message}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricaudit",
        description="Security audit toolkit for Kubernetes-based RAN deployments.",
    )
    parser.add_argument("--version", action="version", version=f"ricaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, inputs: bool = True) -> None:
        if inputs:
            p.add_argument("inputs", nargs="*", help="manifest files or directories")
        p.add_argument("--config", help="optional YAML config file; flags take precedence")
        p.add_argument("--namespace", help="restrict the audit to one namespace")
        p.add_argument("--catalog", action="append", dest="catalogs", metavar="PATH",
                       help="extra rule/framework/advisory data file (repeatable)")
        p.add_argument("--framework", action="append", dest="frameworks", metavar="ID",
                       help="score only this framework id (repeatable)")
        p.add_argument("--scan-report", action="append", dest="scan_reports", metavar="PATH",
                       help="container scan report to ingest (repeatable)")
        p.add_argument("--inventory", metavar="PATH", help="component inventory file")
        p.add_argument("--endpoint", metavar="URL", help="cluster API base URL to audit live")
        p.add_argument("--token-env", metavar="VAR", help="environment variable holding the bearer token")
        p.add_argument("--format", choices=FORMATS, help="payload format (default table)")
        p.add_argument("--fail-on", choices=SEVERITIES,
                       help="severity threshold for exit code 1 (default critical)")
        p.add_argument("--output", metavar="PATH", help="write the payload to a file instead of stdout")
        p.add_argument("--insecure", action="store_true", default=None,
                       help="allow plain-text cluster endpoints")

    common(sub.add_parser("scan", help="evaluate misconfiguration rules against manifests"))
    common(sub.add_parser("vulns", help="aggregate container vulnerability scan reports"))
    common(sub.add_parser("score", help="compute framework compliance scores"))
    common(sub.add_parser("versions", help="audit a component inventory against advisories"))
    common(sub.add_parser("report", help="run every workflow and emit one combined report"))
    common(sub.add_parser("verify-fixtures"), inputs=False)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_values: Mapping[str, Any] = {}
    if getattr(args, "config", None):
        raw = yamlio.load_file(args.config, "config")
        if raw is not None and not isinstance(raw, Mapping):
            raise IoError(f"config {args.config} must be a mapping")
        file_values = raw or {}

    def pick(flag: Any, key: str, default: Any, valid=SHAPES[STRING]) -> Any:
        """The flag if given, else the config value if `valid`, else `default`."""
        if flag is not None:
            return flag
        value = file_values.get(key)
        if value is None:
            return default
        if not valid(value):
            raise IoError(f"config {args.config}: invalid value for {key}: {value!r}")
        return value

    fail_on = pick(args.fail_on, "fail_on", "critical",
                   lambda v: isinstance(v, str) and v.strip().lower() in SEVERITIES)
    return RunConfig(
        inputs=list(pick(getattr(args, "inputs", None) or None, "inputs", [], SHAPES[STRINGS])),
        namespace=pick(args.namespace, "namespace", None),
        catalogs=list(pick(args.catalogs, "catalogs", [], SHAPES[STRINGS])),
        frameworks=list(pick(args.frameworks, "frameworks", [], SHAPES[STRINGS])),
        scan_reports=list(pick(args.scan_reports, "scan_reports", [], SHAPES[STRINGS])),
        inventory=pick(args.inventory, "inventory", None),
        endpoint=pick(args.endpoint, "endpoint", None),
        token_env=pick(args.token_env, "token_env", None),
        format=pick(args.format, "format", "table", FORMATS.__contains__),
        fail_on=SeverityClass.from_label(fail_on),
        output=pick(args.output, "output", None),
        insecure=pick(args.insecure, "insecure", False, lambda v: isinstance(v, bool)),
    )


def _emit(result: AuditResult, config: RunConfig) -> None:
    parts = []
    if config.format in ("table", "both"):
        parts.append(render_table(result))
        parts.append(render_remediations(result))
    if config.format in ("json", "both"):
        parts.append(render_json(result) + "\n")
    payload = "".join(parts)
    if config.output:
        Path(config.output).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        if args.command == "verify-fixtures":
            checks = verify_fixtures()
            print(f"fixtures verified: {len(checks)} checks passed", file=sys.stderr)
            return EXIT_CLEAN
        reads, needs, missing = AUDITS[args.command]
        given = dict(vars(config), manifests=config.inputs,
                     token=os.environ.get(config.token_env) if config.token_env else None)
        if not any(given[name] for name in needs):
            raise AuditError(missing)
        result = audit(**{name: given[name] for name in reads}, diag=_diag)
        _emit(result, config)
        return exit_code(result, config.fail_on)
    except (AuditError, OSError) as exc:
        # Covers fixture drift too: corrupt shipped data is a tool error.
        _diag(str(exc))
        return EXIT_TOOL_ERROR


def run() -> None:
    raise SystemExit(main())
