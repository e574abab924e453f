"""The benchmark's traced function names must exist in the package.

``perfbench/tracing.py`` wraps each name in ``TRACED`` with ``getattr`` on
its ``randskew`` module, so a renamed or deleted function breaks every
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module, name", [
    (mod, fn) for mod, fns in _traced().items() for fn in fns])
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"randskew.{module}"),
                            name))
