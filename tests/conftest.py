from __future__ import annotations

import io

import pytest

from ricaudit.catalogs import data_path
from ricaudit.report import render_json


def rendered_json(result) -> str:
    """The text `render_json` writes for `result`."""
    stream = io.StringIO()
    render_json(result, stream)
    return stream.getvalue()


@pytest.fixture(scope="session")
def fixture_root():
    return data_path("fixtures")


@pytest.fixture(scope="session")
def vulnerable_manifests(fixture_root):
    return fixture_root / "manifests" / "vulnerable"

@pytest.fixture(scope="session")
def vulnerable_workloads(fixture_root):
    return fixture_root / "manifests" / "vulnerable" / "workloads"


@pytest.fixture(scope="session")
def hardened_manifests(fixture_root):
    return fixture_root / "manifests" / "hardened"


@pytest.fixture(scope="session")
def planted_manifests(fixture_root):
    return fixture_root / "manifests" / "planted"


@pytest.fixture(scope="session")
def scan_report_paths(fixture_root):
    return sorted((fixture_root / "scan-reports").glob("*.json"))


@pytest.fixture(scope="session")
def inventory_path(fixture_root):
    return fixture_root / "inventory.yaml"

