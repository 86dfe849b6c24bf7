"""Every name a distreg module lists in `__all__` exists, and is listed once.

Python reports a stale `__all__` entry only on `from module import *`, so a
deleted function can linger there unnoticed.
"""

import importlib
import pkgutil
from collections import Counter

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
