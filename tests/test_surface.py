"""The public names that the package exports and the traced benchmark wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import drivendelta
from drivendelta import smatrix

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_surface_snapshot():
    # a public name or an order value added or removed is an edit here
    assert sorted(drivendelta.__all__) == [
        "Channel", "DiagramTerm", "DomainError", "DrivenDeltaError",
        "FloquetGrid", "FloquetSolution", "LoopValue", "QuadratureResult",
        "RegimeError", "RenormFactors", "SMatrixDecomposition",
        "ToleranceError", "ZeroNotFoundError", "__version__", "a_coefficient",
        "adaptive_quad", "alpha_shift", "assemble", "b_coefficient", "b_renorm",
        "beta_width", "bracket_min", "find_transmission_zero", "fourier_oracle",
        "gamma_elastic_closed", "gamma_loop", "near_zero_amplitudes",
        "phi_cb_mean", "phi_cc", "pv_halfline", "pv_integral", "q_factor",
        "renorm_factors", "sideband_channel", "solve",
        "total_transmission_exact", "transmission_grid", "w0",
        "zero_locate_exact",
    ]
    assert smatrix._ORDERS == ("first", "renormalized")


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
