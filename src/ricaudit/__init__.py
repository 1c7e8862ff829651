"""Security auditing toolkit for Kubernetes-based Near-RT RIC deployments.

Static misconfiguration scanning, container vulnerability aggregation,
framework compliance scoring, and outdated-component auditing, with report
output suitable for CI gates.

Each public name is imported from its module the first time it is asked
for (PEP 562), so `import ricaudit` loads none of the stages.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "severity": ("SeverityClass", "ThreatCategory", "classify_severity"),
    "manifests": ("DirectoryLoad", "ResourceDocument", "load_directory", "parse_manifest_stream"),
    "rules": ("Finding", "Rule", "evaluate"),
    "vulns": ("ContainerScanSummary", "ImageRef", "VulnTally", "VulnTotals",
              "occurrence_and_unique_totals", "parse_scan_report"),
    "compliance": ("Control", "ControlResult", "Evidence", "Framework", "FrameworkScore",
                   "control_compliance", "framework_score"),
    "versions": ("AdvisoryEntry", "Version", "VersionFinding", "audit_components",
                 "parse_version"),
    "report": ("AuditResult", "exit_code", "render_json", "render_table"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
