"""Command-line entry point.

Sub-commands map to the assessment workflows: `scan` (manifest
misconfigurations), `vulns` (scan-report aggregation), `score` (framework
compliance), `versions` (outdated components), and `report` (everything
combined). Exit codes are a CI contract: 0 clean at the threshold, 1 at
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
from .catalogs import load_inventory
from .errors import AuditError, InvalidYaml, IoError
from .fixtures import verify_fixtures
from .manifests import DirectoryLoad
from .pipeline import (
    Catalogs,
    build_result,
    default_timestamp,
    load_catalogs,
    load_manifest_inputs,
    parse_scan_reports,
    run_manifest_audit,
    run_version_audit,
    score_all,
)
from .report import (
    EXIT_CLEAN,
    EXIT_TOOL_ERROR,
    AuditResult,
    exit_code,
    render_json,
    render_remediations,
    render_table,
)
from .rules import WILDCARD_KIND
from .severity import SeverityClass

FORMATS = ("table", "json", "both")


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
        p.add_argument("--fail-on", choices=[c.name.lower() for c in SeverityClass],
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
        try:
            raw = yamlio.load(Path(args.config).read_bytes())
        except OSError as exc:
            raise IoError(f"cannot read config {args.config}: {exc}") from exc
        except InvalidYaml as exc:
            raise IoError(f"config {args.config}: invalid YAML: {exc}") from exc
        if raw is not None and not isinstance(raw, Mapping):
            raise IoError(f"config {args.config} must be a mapping")
        file_values = raw or {}

    def pick(flag: Any, key: str, default: Any) -> Any:
        if flag is not None:
            return flag
        return file_values.get(key, default)

    fail_on = pick(getattr(args, "fail_on", None), "fail_on", "critical")
    return RunConfig(
        inputs=list(getattr(args, "inputs", None) or file_values.get("inputs", [])),
        namespace=pick(args.namespace, "namespace", None),
        catalogs=list(pick(args.catalogs, "catalogs", []) or []),
        frameworks=list(pick(args.frameworks, "frameworks", []) or []),
        scan_reports=list(pick(args.scan_reports, "scan_reports", []) or []),
        inventory=pick(args.inventory, "inventory", None),
        endpoint=pick(args.endpoint, "endpoint", None),
        token_env=pick(args.token_env, "token_env", None),
        format=pick(args.format, "format", "table"),
        fail_on=SeverityClass.from_label(str(fail_on)),
        output=pick(args.output, "output", None),
        insecure=bool(pick(args.insecure, "insecure", False)),
    )


def _gather_resources(config: RunConfig, catalogs: Catalogs) -> DirectoryLoad:
    load = load_manifest_inputs(config.inputs, namespace=config.namespace)
    for failure in load.errors:
        _diag(f"parse error in {failure.file_path}: {failure.error}")
    if config.endpoint:
        # Imported here so that file-only runs never load `requests`.
        from .cluster import KIND_ROUTES, ClusterEndpoint, fetch_resources

        token = os.environ.get(config.token_env) if config.token_env else None
        endpoint = ClusterEndpoint(
            base_url=config.endpoint,
            bearer_token=token,
            allow_insecure=config.insecure,
        )
        # Fetch every kind the catalog can judge, as long as the API serves
        # it (file-only kinds like KubeletConfiguration have no list route).
        kinds = {
            kind
            for rule in catalogs.rules
            for kind in rule.applies_to
            if kind != WILDCARD_KIND and kind in KIND_ROUTES
        }
        load.documents.extend(
            fetch_resources(endpoint, kinds=kinds, namespace=config.namespace)
        )
    return load


def _selected_frameworks(config: RunConfig, catalogs: Catalogs):
    if not config.frameworks:
        return catalogs.frameworks
    by_id = {fw.id: fw for fw in catalogs.frameworks}
    missing = [fid for fid in config.frameworks if fid not in by_id]
    if missing:
        raise AuditError(f"unknown framework id(s): {', '.join(missing)}")
    return [by_id[fid] for fid in config.frameworks]


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


def cmd_scan(config: RunConfig) -> int:
    if not (config.inputs or config.endpoint):
        raise AuditError("scan needs manifest paths or --endpoint")
    catalogs = load_catalogs(config.catalogs)
    load = _gather_resources(config, catalogs)
    findings = run_manifest_audit(load.documents, catalogs)
    result = build_result(findings=findings, resources=load.documents)
    _emit(result, config)
    return exit_code(result, config.fail_on)


def cmd_vulns(config: RunConfig) -> int:
    if not config.scan_reports:
        raise AuditError("vulns needs at least one --scan-report")
    reports = parse_scan_reports(config.scan_reports)
    for report in reports:
        for rejected in report.rejected:
            _diag(f"{report.container}: rejected entry {rejected.index}: {rejected.reason}")
    records = [record for report in reports for record in report.records]
    result = build_result(records=records)
    _emit(result, config)
    return exit_code(result, config.fail_on)


def cmd_score(config: RunConfig) -> int:
    if not (config.inputs or config.endpoint):
        raise AuditError("score needs manifest paths or --endpoint")
    catalogs = load_catalogs(config.catalogs)
    frameworks = _selected_frameworks(config, catalogs)
    load = _gather_resources(config, catalogs)
    findings = run_manifest_audit(load.documents, catalogs)
    scores = score_all(frameworks, findings, load.documents, catalogs.rules)
    result = build_result(
        findings=findings, resources=load.documents, framework_scores=scores
    )
    _emit(result, config)
    return exit_code(result, config.fail_on)


def cmd_versions(config: RunConfig) -> int:
    if not config.inventory:
        raise AuditError("versions needs --inventory")
    catalogs = load_catalogs(config.catalogs)
    audit = run_version_audit(load_inventory(config.inventory), catalogs)
    for item in audit.errors:
        _diag(f"inventory entry {item.component!r}: {item.error}")
    result = build_result(version_audit=audit)
    _emit(result, config)
    return exit_code(result, config.fail_on)


def cmd_report(config: RunConfig) -> int:
    if not (config.inputs or config.endpoint or config.scan_reports):
        raise AuditError("report needs manifests, --scan-report files, or --endpoint")
    catalogs = load_catalogs(config.catalogs)
    frameworks = _selected_frameworks(config, catalogs)

    findings = []
    resources = []
    scores = []
    if config.inputs or config.endpoint:
        load = _gather_resources(config, catalogs)
        resources = load.documents
        findings = run_manifest_audit(resources, catalogs)
        scores = score_all(frameworks, findings, resources, catalogs.rules)

    records = []
    if config.scan_reports:
        for report in parse_scan_reports(config.scan_reports):
            for rejected in report.rejected:
                _diag(f"{report.container}: rejected entry {rejected.index}: {rejected.reason}")
            records.extend(report.records)

    version_audit = None
    if config.inventory:
        version_audit = run_version_audit(load_inventory(config.inventory), catalogs)
        for item in version_audit.errors:
            _diag(f"inventory entry {item.component!r}: {item.error}")

    result = build_result(
        records=records,
        findings=findings,
        resources=resources,
        framework_scores=scores,
        version_audit=version_audit,
    )
    _emit(result, config)
    return exit_code(result, config.fail_on)


def cmd_verify_fixtures(config: RunConfig) -> int:
    checks = verify_fixtures()
    print(f"fixtures verified: {len(checks)} checks passed", file=sys.stderr)
    return EXIT_CLEAN


_COMMANDS = {
    "scan": cmd_scan,
    "vulns": cmd_vulns,
    "score": cmd_score,
    "versions": cmd_versions,
    "report": cmd_report,
    "verify-fixtures": cmd_verify_fixtures,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        return _COMMANDS[args.command](config)
    except (AuditError, OSError) as exc:
        # Covers fixture drift too: corrupt shipped data is a tool error.
        _diag(str(exc))
        return EXIT_TOOL_ERROR


def run() -> None:
    raise SystemExit(main())
