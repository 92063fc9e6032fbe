"""Doctests of the documented modules run as tier-1 tests.

A module is documented when its source holds a ``>>>`` prompt: the list
is derived from ``src/repro``, not kept by hand, so a new example is
tested the day it is written.  CI's docs job runs the same examples
through ``pytest --doctest-modules src/repro``; this file pins them
inside the main suite so a doc regression fails everywhere, not just in
the docs job.
"""

import doctest
import importlib
from pathlib import Path

import pytest

import repro

_PACKAGE = Path(repro.__file__).parent


def _module_name(path: Path) -> str:
    parts = path.relative_to(_PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


DOCUMENTED_MODULES = sorted(
    _module_name(path)
    for path in _PACKAGE.rglob("*.py")
    if path.name != "__main__.py" and ">>>" in path.read_text("utf-8")
)


@pytest.mark.parametrize("module_name", DOCUMENTED_MODULES)
def test_module_doctests_pass(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module_name} lost its doctest examples"
    assert result.failed == 0, f"{module_name}: {result.failed} doctest failures"
