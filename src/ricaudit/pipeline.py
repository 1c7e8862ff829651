"""The one audit pipeline shared by every sub-command and the fixture verifier.

The assessment's four workflows (manifest scan, vulnerability ingestion,
compliance scoring, version audit) are stages of `audit`, each run only
when its input is given; this module wires them into one AuditResult
without any terminal I/O. Each stage words its own problems as finished
one-line diagnostics, which `audit` passes to `diag` unchanged.

Each stage holds its input only as long as it needs it. The manifest
stage scopes and evaluates each file's documents as the file is parsed and
keeps each document without its body (see `rules.Evaluation`); each scan
report is counted into the tally as it is read.
"""

from __future__ import annotations

import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .catalogs import load_catalogs, load_inventory
from .compliance import Evidence, FrameworkScore, score_framework
from .errors import AuditError
from .manifests import ResourceDocument, distinct_files, load_directory
from .report import AuditResult
from .rules import Evaluation, Finding, group_findings_by_app
from .severity import empty_counts
from .versions import VersionAudit, audit_components
from .vulns import ContainerScanSummary, VulnTally, occurrence_and_unique_totals, parse_scan_report
from .yamlio import read_file


def default_timestamp() -> str:
    """UTC timestamp for the report; SOURCE_DATE_EPOCH pins it for CI."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        try:
            moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
        except (ValueError, OverflowError) as exc:
            raise AuditError(f"SOURCE_DATE_EPOCH must be a Unix timestamp: {exc}") from exc
    else:
        moment = datetime.now(tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def build_result(
    *,
    tally: VulnTally,
    findings: Sequence[Finding] = (),
    resources: Sequence[ResourceDocument] = (),
    framework_scores: Sequence[FrameworkScore] = (),
    version_audit: VersionAudit | None = None,
) -> AuditResult:
    """Assemble one AuditResult from whatever workflows actually ran.

    `resources` are the evaluated documents, with or without their bodies;
    their app labels group the findings. This is where the vulnerability and
    misconfiguration stages meet: one row per container of the tally or of
    the misconfiguration counts (so a manifest-only audit has rows too),
    sorted by name.
    """
    misconfig = group_findings_by_app(findings, resources)
    vulns = tally.containers
    return AuditResult(
        summaries=tuple(
            ContainerScanSummary(container, *vulns.get(container, (None, empty_counts())),
                                 misconfig.get(container, empty_counts()))
            for container in sorted(vulns.keys() | misconfig.keys())),
        findings=tuple(findings),
        framework_scores=tuple(framework_scores),
        version_findings=tuple(version_audit.findings) if version_audit else (),
        totals=occurrence_and_unique_totals(tally),
        generated_at=default_timestamp(),
        tool_version=__version__,
    )


def audit(
    *,
    catalogs: Sequence[str | Path] = (),
    manifests: Sequence[str | Path] = (),
    namespace: str | None = None,
    frameworks: Sequence[str] | None = None,
    scan_reports: Sequence[str | Path] = (),
    inventory: str | Path | None = None,
    diag: Callable[[str], None] = lambda message: None,
) -> AuditResult:
    """Run every stage whose input is given and assemble one AuditResult.

    `catalogs` are user data files on top of the builtins, loaded only when
    a later stage needs them. `manifests` (files or trees; a live cluster is
    read as the `kind: List` file `kubectl get -o yaml` writes) feed rule
    evaluation, scoped to `namespace`. `frameworks` selects the frameworks
    scored after a manifest stage: None scores none, an empty sequence
    every loaded framework. Diagnostics (unparsable manifest files, rejected
    scan-report entries, bad inventory entries) go to `diag` as each stage
    produces them.
    """
    if catalogs or manifests or inventory or frameworks is not None:
        bundle = load_catalogs(catalogs)
        selected = bundle.frameworks
        if frameworks:
            by_id = {fw.id: fw for fw in bundle.frameworks}
            missing = [fid for fid in frameworks if fid not in by_id]
            if missing:
                raise AuditError(f"unknown framework id(s): {', '.join(missing)}")
            # A framework named twice is scored once, at its first place.
            selected = [by_id[fid] for fid in dict.fromkeys(frameworks)]

    records: list[ResourceDocument] = []
    findings: list[Finding] = []
    scores: list[FrameworkScore] = []
    if manifests:
        evaluation = Evaluation(bundle.rules)

        def add_file(documents: list[ResourceDocument]) -> None:
            # A cluster-scoped document is outside every namespace.
            if namespace:
                documents = [d for d in documents if d.namespace == namespace]
            evaluation.add(documents)

        for line in load_directory(*manifests, consume=add_file).errors:
            diag(line)
        findings, records = evaluation.finish()
        if frameworks is not None:
            evidence = Evidence.build(findings, records, bundle.rules)
            scores = [score_framework(fw, evidence)[0] for fw in selected]
            del evidence  # not held through the later stages

    # Each report's tally is merged in as it is read: memory is bounded by the largest report.
    tally = VulnTally()
    # A report reached twice (the same path, a symlink or a hard link) is
    # read once, as manifest files are.
    for path in distinct_files(scan_reports):
        report = parse_scan_report(read_file(path, "scan report"), origin=str(path))
        for line in report.rejected:
            diag(line)
        tally.merge(report.records)

    version_audit = None
    if inventory:
        version_audit = audit_components(load_inventory(inventory), bundle.advisories)
        for line in version_audit.errors:
            diag(line)

    return build_result(
        tally=tally,
        findings=findings,
        resources=records,
        framework_scores=scores,
        version_audit=version_audit,
    )
