"""Security auditing toolkit for Kubernetes-based Near-RT RIC deployments.

Static misconfiguration scanning, container vulnerability aggregation,
framework compliance scoring, and outdated-component auditing, with report
output suitable for CI gates.
"""

__version__ = "0.1.0"

from .severity import SeverityClass, ThreatCategory
from .manifests import (
    DirectoryLoad,
    ResourceDocument,
    SourceLocation,
    load_directory,
    parse_manifest_stream,
    parse_resource_ref,
    resource_ref,
)
from .rules import Finding, Rule, evaluate, severity_histogram
from .vulns import (
    ContainerScanSummary,
    ImageRef,
    VulnRecord,
    VulnTally,
    VulnTotals,
    aggregate_by_container,
    classify_severity,
    occurrence_and_unique_totals,
    parse_scan_report,
)
from .compliance import (
    Control,
    ControlResult,
    Evidence,
    Framework,
    FrameworkScore,
    control_compliance,
    framework_score,
)
from .versions import (
    AdvisoryEntry,
    Version,
    VersionFinding,
    audit_components,
    parse_version,
)
from .report import AuditResult, exit_code, render_json, render_table

__all__ = [
    "__version__",
    "SeverityClass",
    "ThreatCategory",
    "DirectoryLoad",
    "ResourceDocument",
    "SourceLocation",
    "load_directory",
    "parse_manifest_stream",
    "parse_resource_ref",
    "resource_ref",
    "Finding",
    "Rule",
    "evaluate",
    "severity_histogram",
    "ContainerScanSummary",
    "ImageRef",
    "VulnRecord",
    "VulnTally",
    "VulnTotals",
    "aggregate_by_container",
    "classify_severity",
    "occurrence_and_unique_totals",
    "parse_scan_report",
    "Control",
    "ControlResult",
    "Evidence",
    "Framework",
    "FrameworkScore",
    "control_compliance",
    "framework_score",
    "AdvisoryEntry",
    "Version",
    "VersionFinding",
    "audit_components",
    "parse_version",
    "ClusterEndpoint",
    "fetch_resources",
    "AuditResult",
    "exit_code",
    "render_json",
    "render_table",
]


def __getattr__(name: str):
    # The cluster client pulls in `requests`; load it only when asked for.
    if name in ("ClusterEndpoint", "fetch_resources"):
        from . import cluster

        return getattr(cluster, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
