"""The library reads no environment variable and runs no worker pool: one
execution path, whatever the process environment."""

from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "io_recover").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_environment_knobs_or_worker_pools(path):
    text = path.read_text(encoding="utf-8")
    assert "os.environ" not in text and "getenv" not in text
    assert "concurrent.futures" not in text
