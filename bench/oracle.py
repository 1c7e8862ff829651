"""Output oracle: checks one CLI payload against a workload's Expectation.

The expectation comes from `fixtures/index.yaml` and the seeded generator,
not from the program under test. The only values taken from a CLI run are
the metamorphic references of manifest-scan (findings count and framework
percentages of the one-copy corpus), which the N-copy payload must scale.
"""

from __future__ import annotations

import json
import re

from corpus import SEVERITIES, Expectation

_TABLE_TOTALS = {
    "vulnerability_occurrences": "Vulnerability occurrences",
    "unique_cves": "Unique CVEs",
    "critical_occurrences": "Critical occurrences",
    "critical_rce_unique": "Critical unique with RCE",
    "critical_actionable_unique": "Critical unique actionable",
}


def split_image(image: str) -> dict[str, str]:
    """"registry/repository:tag" as the payload's image object."""
    registry, _, rest = image.partition("/")
    repository, _, tag = rest.rpartition(":")
    return {"registry": registry, "repository": repository, "tag": tag}


def payload_json(stdout: str) -> dict:
    """The JSON document: the whole payload, or its last line after a table."""
    return json.loads(stdout.rstrip("\n").rpartition("\n")[2])


def table_rows(stdout: str) -> dict[str, list[str]]:
    """Container rows of the rendered table: name -> the other twelve cells."""
    rows = {}
    for line in stdout.splitlines():
        if not line.startswith("| "):
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 13 and cells[0] != "Container Name":
            rows[cells[0]] = cells[1:]
    return rows


def _expected_table_row(row: dict) -> list[str]:
    if row["image"]:
        image = split_image(row["image"])
        cells = [image["registry"], f"{image['repository']}:{image['tag']}"]
    else:
        cells = ["-", "-"]
    cells += [str(row["vulnerabilities"][s]) for s in SEVERITIES]
    cells += [str(row["misconfigurations"][s]) for s in SEVERITIES]
    return cells


def check(stdout: str, expect: Expectation) -> list[str]:
    """Every way `stdout` differs from what the expectation allows."""
    try:
        payload = payload_json(stdout)
    except ValueError as exc:
        return [f"payload is not JSON: {exc}"]
    try:
        return _check_payload(payload, expect) + (
            _check_table(stdout, expect) if expect.has_table else [])
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"payload does not have the expected shape: {exc!r}"]


def _check_payload(payload: dict, expect: Expectation) -> list[str]:
    errors = []
    containers = {c["container"]: c for c in payload.get("containers", [])}
    if set(containers) != set(expect.rows):
        missing = sorted(set(expect.rows) - set(containers))
        extra = sorted(set(containers) - set(expect.rows))
        errors.append(f"container rows differ: missing {missing[:3]}, unexpected {extra[:3]}")
    for name, row in expect.rows.items():
        got = containers.get(name)
        if got is None or row is None:
            continue
        want_image = split_image(row["image"]) if row["image"] else None
        if got["image"] != want_image:
            errors.append(f"{name}: image {got['image']} != {want_image}")
        for group in ("vulnerabilities", "misconfigurations"):
            if got[group] != row[group]:
                errors.append(f"{name}: {group} {got[group]} != {row[group]}")

    totals = payload.get("totals", {})
    for key, want in expect.totals.items():
        if totals.get(key) != want:
            errors.append(f"totals.{key} = {totals.get(key)}, expected {want}")

    versions = sorted(
        (v["component"], v["installed"], v["cve_count"], v["cvss_min"], v["cvss_max"])
        for v in payload.get("version_findings", []))
    if versions != expect.version_findings:
        errors.append(f"version findings {versions} != {expect.version_findings}")

    if expect.findings is not None and len(payload.get("findings", [])) != expect.findings:
        errors.append(f"{len(payload.get('findings', []))} findings, expected {expect.findings}")
    if expect.framework_percents is not None:
        percents = {s["framework_id"]: s["percent"] for s in payload.get("framework_scores", [])}
        if percents != expect.framework_percents:
            errors.append(f"framework percents {percents} != {expect.framework_percents}")
    return errors


def _check_table(stdout: str, expect: Expectation) -> list[str]:
    errors = []
    rows = table_rows(stdout)
    if set(rows) != set(expect.rows):
        errors.append(f"table has {len(rows)} container rows, expected {len(expect.rows)}")
    for name, row in expect.rows.items():
        if row is not None and name in rows and rows[name] != _expected_table_row(row):
            errors.append(f"table row {name}: {rows[name]} != {_expected_table_row(row)}")
    for key, label in _TABLE_TOTALS.items():
        if not re.search(rf"^  {re.escape(label)}\s*: {expect.totals[key]}$", stdout, re.M):
            errors.append(f"table totals line {label!r} is not {expect.totals[key]}")
    return errors


def scale_reference(expect: Expectation, one_copy_payload: dict) -> None:
    """Fill in the manifest-scan expectations that the one-copy run defines.

    The N-copy corpus must have N times the one-copy findings and the same
    framework percentages. A row whose base container has no entry in
    index.yaml must equal that base's row in the one-copy payload.
    """
    expect.findings = expect.copies * len(one_copy_payload["findings"])
    expect.framework_percents = {
        s["framework_id"]: s["percent"] for s in one_copy_payload["framework_scores"]}
    by_base = {}
    for container in one_copy_payload["containers"]:
        base = container["container"].rsplit("-", 1)[0]
        by_base[base] = {
            "image": None,
            "vulnerabilities": container["vulnerabilities"],
            "misconfigurations": container["misconfigurations"],
        }
    for name, row in expect.rows.items():
        if row is None:
            if expect.base_of[name] not in by_base:
                raise ValueError(f"one-copy payload has no row for {expect.base_of[name]}")
            expect.rows[name] = by_base[expect.base_of[name]]
