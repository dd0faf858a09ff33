"""The public names that the package exports and the traced benchmark wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import drivendelta

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_export_resolves():
    missing = [name for name in drivendelta.__all__ if not hasattr(drivendelta, name)]
    assert not missing


@pytest.mark.parametrize("table", ["SPANNED", "COUNTED"])
def test_traced_functions_exist(table):
    # the traced benchmark run wraps each of these by name and fails on a
    # missing one, so a deletion in src/ must keep them or change perfbench
    names = getattr(_spans(), table)
    missing = [f"{mod}.{fn}" for mod, fns in names.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"drivendelta.{mod}"),
                                       fn, None))]
    assert not missing
