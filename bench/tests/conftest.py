import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return BENCH_DIR.parent
