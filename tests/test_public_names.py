"""Every name a distreg module lists in `__all__` exists, and is listed once,
and every `module.name` the docs cite exists.

Python reports a stale `__all__` entry only on `from module import *`, and
nothing reports a stale name in prose, so a deleted function can linger in
either unnoticed.
"""

import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import distreg

MODULES = [
    module
    for info in pkgutil.iter_modules(distreg.__path__, prefix="distreg.")
    if hasattr(module := importlib.import_module(info.name), "__all__")
]


def test_modules_found():
    assert {"distreg.pipeline", "distreg.evaluation", "distreg.simplex_qp"} <= {
        m.__name__ for m in MODULES
    }


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve_once(module):
    names = list(module.__all__)
    assert [n for n in names if not hasattr(module, n)] == []
    assert [n for n, count in Counter(names).items() if count > 1] == []


ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "src" / "distreg").glob("*.py"))]
MODULE_NAMES = {info.name for info in pkgutil.iter_modules(distreg.__path__)}


def doc_references() -> list[tuple[str, str, str]]:
    """Every backticked `module.name` of a distreg module, as (file:line, module, name)."""
    return [
        (f"{path.name}:{ln}", module, name)
        for path in DOCUMENTS
        for ln, line in enumerate(path.read_text().splitlines(), start=1)
        for module, name in re.findall(r"`(\w+)\.(\w+)`", line)
        if module in MODULE_NAMES
    ]


def test_doc_references_resolve():
    refs = doc_references()
    assert ("simplex_qp", "misfit") in {(module, name) for _, module, name in refs}
    stale = [
        f"{where}: `{module}.{name}`"
        for where, module, name in refs
        if not hasattr(importlib.import_module(f"distreg.{module}"), name)
    ]
    assert stale == []
