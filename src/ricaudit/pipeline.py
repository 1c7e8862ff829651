"""The one audit pipeline shared by every sub-command and the fixture verifier.

The assessment's four workflows (manifest scan, vulnerability ingestion,
compliance scoring, version audit) are stages of `audit`, each run only
when its input is given; this module wires them into one AuditResult
without any terminal I/O.

Each stage holds its input only as long as it needs it. The manifest
stage scopes and evaluates each file's documents as the file is parsed and
keeps a small record per document (see `rules.Evaluation`); each scan
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
from .manifests import ResourceDocument, ResourceRecord, distinct_files, load_directory
from .report import AuditResult
from .rules import Evaluation, Finding, group_findings_by_app
from .versions import VersionAudit, audit_components
from .vulns import VulnTally, occurrence_and_unique_totals, parse_scan_report


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
    resources: Sequence[ResourceRecord | ResourceDocument] = (),
    framework_scores: Sequence[FrameworkScore] = (),
    version_audit: VersionAudit | None = None,
    generated_at: str | None = None,
) -> AuditResult:
    """Assemble one AuditResult from whatever workflows actually ran.

    `resources` are the records of the evaluated documents (or the
    documents themselves); their app labels group the findings.
    """
    misconfig_map = group_findings_by_app(findings, resources)
    return AuditResult(
        summaries=tuple(tally.summaries(misconfig_map)),
        findings=tuple(findings),
        framework_scores=tuple(framework_scores),
        version_findings=tuple(version_audit.findings) if version_audit else (),
        totals=occurrence_and_unique_totals(tally),
        generated_at=generated_at if generated_at is not None else default_timestamp(),
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
    generated_at: str | None = None,
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

    records: list[ResourceRecord] = []
    findings: list[Finding] = []
    scores: list[FrameworkScore] = []
    if manifests:
        evaluation = Evaluation(bundle.rules)

        def add_file(documents: list[ResourceDocument]) -> None:
            # A cluster-scoped document is outside every namespace.
            if namespace:
                documents = [d for d in documents if d.namespace == namespace]
            evaluation.add(documents)

        load = load_directory(*manifests, consume=add_file)
        for failure in load.errors:
            diag(f"parse error in {failure.file_path}: {failure.error}")
        findings, records = evaluation.finish()
        if frameworks is not None:
            evidence = Evidence.build(findings, records, bundle.rules)
            scores = [score_framework(fw, evidence)[0] for fw in selected]

    # Each report's tally is merged in as it is read: memory is bounded by the largest report.
    tally = VulnTally()
    # A report reached twice (the same path, a symlink or a hard link) is
    # read once, as manifest files are.
    for path in distinct_files(scan_reports):
        try:
            with open(path, "rb") as file:  # Path("") would be ".", a directory
                text = file.read()
        except OSError as exc:
            raise AuditError(f"cannot read scan report {path}: {exc}") from exc
        report = parse_scan_report(text, origin=str(path))
        for rejected in report.rejected:
            diag(f"{report.container}: rejected entry {rejected.index}: {rejected.reason}")
        tally.merge(report.records)

    version_audit = None
    if inventory:
        version_audit = audit_components(load_inventory(inventory), bundle.advisories)
        for item in version_audit.errors:
            diag(f"inventory entry {item.component!r}: {item.error}")

    return build_result(
        tally=tally,
        findings=findings,
        resources=records,
        framework_scores=scores,
        version_audit=version_audit,
        generated_at=generated_at,
    )
