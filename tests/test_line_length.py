"""No line of the library source is longer than 100 characters."""

from pathlib import Path

import pytest

MAX_LINE = 100
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "distreg").glob("*.py"))


def test_sources_found():
    assert {"cli.py", "pipeline.py", "evaluation.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_line_longer_than_limit(path):
    long = [
        f"{path.name}:{n}: {len(line)} characters"
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long == []
