"""Run the doctests embedded in the public API's docstrings."""

import doctest
import importlib

import pytest

# Resolved via importlib: ``repro.core.interleave`` as an attribute is
# shadowed by the re-exported *function* of the same name.
MODULES = [
    importlib.import_module(name)
    for name in (
        "repro",
        "repro.core.interleave",
        "repro.db.database",
        "repro.db.expr",
    )
]


@pytest.mark.parametrize(
    "module", MODULES, ids=[m.__name__ for m in MODULES]
)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} failures"
    assert results.attempted > 0, f"{module.__name__} has no doctests"
