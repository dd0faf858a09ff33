"""The public names that the package exports, the traced benchmark wraps,
and the one argument rule they share."""

import importlib
import importlib.util
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import drivendelta
from drivendelta import renorm, smatrix
from drivendelta import (a_coefficient, adaptive_quad, alpha_shift, assemble,
                         b_coefficient, b_renorm, beta_width, bracket_min,
                         find_transmission_zero, fourier_oracle,
                         gamma_elastic_closed, gamma_loop, near_zero_amplitudes,
                         phi_cb_mean, phi_cc, pv_halfline, pv_integral, q_factor,
                         renorm_factors, solve, total_transmission_exact,
                         transmission_grid, w0)
from drivendelta.errors import DomainError

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_surface_snapshot():
    # a public name or an order value added or removed is an edit here
    assert sorted(drivendelta.__all__) == [
        "DiagramTerm", "DomainError", "DrivenDeltaError",
        "FloquetGrid", "FloquetSolution", "LoopValue", "QuadratureResult",
        "RegimeError", "RenormFactors", "SMatrixDecomposition",
        "ToleranceError", "ZeroNotFoundError", "__version__", "a_coefficient",
        "adaptive_quad", "alpha_shift", "assemble", "b_coefficient", "b_renorm",
        "beta_width", "bracket_min", "find_transmission_zero", "fourier_oracle",
        "gamma_elastic_closed", "gamma_loop", "near_zero_amplitudes",
        "phi_cb_mean", "phi_cc", "pv_halfline", "pv_integral", "q_factor",
        "renorm_factors", "solve",
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


def _never(*_):
    raise AssertionError("called before the arguments were checked")


nan, inf = math.nan, math.inf

# (function, args, argument named, bad value): each call raises
# "<name> must be positive and finite, got <value>" ("non-negative" for a
# g0 of ZERO_G0) before any arithmetic.  Integrands and objectives are
# _never, and the test swaps renorm's pv_halfline for it too.
DOMAIN_ROWS = [
    # once nan+nanj, NaN or "ValueError: math domain error"
    (phi_cc, (nan, 1.0, 0.5, 0.3), "k", nan),
    (phi_cc, (1.0, -1.0, 0.5, 0.3), "kp", -1.0),
    (phi_cb_mean, (1.0, 0.3, nan), "g0", nan),
    (phi_cb_mean, (inf, 0.3, 0.3), "k", inf),
    (a_coefficient, (nan, 1.0, 1, 0.3), "k_f", nan),
    (a_coefficient, (inf, 1.0, 1, 0.3), "k_f", inf),
    (a_coefficient, (1.2, 1.0, 1, nan), "g0", nan),
    (b_coefficient, (nan, 1, 0.3), "k", nan),
    (b_coefficient, (1.0, 1, nan), "g0", nan),
    (b_coefficient, (1.0, 1, inf), "g0", inf),
    (b_coefficient, (1.0, 1, -0.3), "g0", -0.3),
    (q_factor, (nan, 1, 0.3), "k", nan),
    (q_factor, (inf, 1, 0.3), "k", inf),
    (q_factor, (np.array([0.5, nan]), 1, 0.3), "k", nan),
    (q_factor, (1.0, 1, nan), "g0", nan),
    # once "cannot convert float NaN to integer", NaN, or a round-1 value
    (b_renorm, (0, nan, 0.3), "eps_i", nan),
    (b_renorm, (0, 0.5, nan), "g0", nan),
    (renorm_factors, (0, 1, nan, 0.3), "eps_i", nan),
    (renorm_factors, (0, 1, 0.5, nan), "g0", nan),
    (gamma_loop, (1.0, 1.0, 0, 0.3, inf), "tol", inf),
    (alpha_shift, (1, 0.9, 0.3, inf), "tol", inf),
    # bracket_min once never returned at tol 0 or -1, and took nan
    (bracket_min, (_never, 0.0, 1.0, 0.0), "tol", 0.0),
    (bracket_min, (_never, 0.0, 1.0, -1.0), "tol", -1.0),
    (bracket_min, (_never, 0.0, 1.0, nan), "tol", nan),
    (fourier_oracle, (_never, 1, 0.0), "tol", 0.0),
    (adaptive_quad, (_never, 0.0, 1.0, nan), "tol", nan),
    (pv_integral, (_never, 1.0, 0.0, 2.0, 0.0), "tol", 0.0),
    (pv_halfline, (_never, [1.0], 4.0, -1.0), "tol", -1.0),
    (assemble, (0.5, 0.1, "renormalized", 2, nan), "tol", nan),
    (near_zero_amplitudes, (0.999, 0.3, nan), "tol", nan),
    (find_transmission_zero, (0.5, nan), "tol", nan),
    # the loop and pole-shift rows of the renorm tests
    (gamma_loop, (1.0, 1.0, 0, -0.3), "g0", -0.3),
    (gamma_loop, (1.0, 1.0, 0, nan), "g0", nan),
    (gamma_loop, (1.0, 1.0, 0, inf), "g0", inf),
    (alpha_shift, (1, 0.9, nan), "g0", nan),
    (alpha_shift, (1, 0.9, inf), "g0", inf),
    (beta_width, (1, 0.9, nan), "g0", nan),
    (beta_width, (1, 0.9, inf), "g0", inf),
    (gamma_loop, (nan, 1.0, 0, 0.3), "k_f", nan),
    (gamma_loop, (1.0, inf, 0, 0.3), "k_i", inf),
    (alpha_shift, (1, nan, 0.3), "eps_i", nan),
    (alpha_shift, (1, inf, 0.3), "eps_i", inf),
    (beta_width, (1, nan, 0.3), "eps_i", nan),
    (gamma_elastic_closed, (1.0, nan), "g0", nan),
    (gamma_elastic_closed, (inf, 0.3), "k_i", inf),
    # the point rows of the smatrix tests
    (assemble, (0.5, -0.1), "g0", -0.1),
    (assemble, (0.5, nan), "g0", nan),
    (assemble, (0.5, inf), "g0", inf),
    (assemble, (nan, 0.1), "eps_i", nan),
    (assemble, (inf, 0.1), "eps_i", inf),
    (assemble, (0.0, 0.1), "eps_i", 0.0),
    (w0, (nan, 0.1), "eps_i", nan),
    (w0, (-0.5, 0.1), "eps_i", -0.5),
    (w0, (0.5, -0.1), "g0", -0.1),
    (w0, (0.5, nan), "g0", nan),
    (near_zero_amplitudes, (nan, 0.3), "eps_i", nan),
    (near_zero_amplitudes, (-1.0, 0.3), "eps_i", -1.0),
    # the exact solver (the solve and transmission_grid rows of the floquet tests)
    (total_transmission_exact, (nan, 0.3), "eps_i", nan),
    (total_transmission_exact, (0.5, -1.0), "g0", -1.0),
    (solve, (0.5, nan), "g0", nan),
    (solve, (0.5, inf), "g0", inf),
    (solve, (nan, 0.1), "eps_i", nan),
    (solve, (inf, 0.1), "eps_i", inf),
    (transmission_grid, ([0.5, nan], 0.1), "eps_i", nan),
    (transmission_grid, ([0.5, inf], 0.1), "eps_i", inf),
    (transmission_grid, ([0.5, 0.7], nan), "g0", nan),
    (transmission_grid, ([0.5, 0.7], inf), "g0", inf),
]

# (function, args): eps_i + g0**2/8 >= 2**53, where no float resolves the
# nearest odd pole; each call raises assemble's message before any
# quadrature.  The renorm rows once raised a bare OverflowError or
# ZeroDivisionError, a RegimeError naming n0 = 125000000000000003, or
# returned eta_R = -2.7e-9.
POLE_ROWS = [
    (b_renorm, (0, 0.5, 1e200)),
    (b_renorm, (2, 0.5, 1e9)),
    (b_renorm, (0, 0.5, 1e9)),
    (renorm_factors, (0, 1, 0.5, 1e9)),
    (assemble, (0.5, 1e9)),
]

# functions whose g0 may be 0 (the static limit); every other g0 must be positive
ZERO_G0 = {phi_cc, phi_cb_mean, a_coefficient, b_coefficient, q_factor,
           gamma_loop, b_renorm, assemble, w0, near_zero_amplitudes, solve,
           transmission_grid, total_transmission_exact}

# public callables outside the rule, with the reason
EXEMPT = {
    **dict.fromkeys(["DrivenDeltaError", "DomainError", "ToleranceError",
                     "RegimeError", "ZeroNotFoundError"], "exception type"),
    **dict.fromkeys(["QuadratureResult", "LoopValue", "RenormFactors",
                     "DiagramTerm", "SMatrixDecomposition", "FloquetSolution",
                     "FloquetGrid"], "result dataclass"),
    "zero_locate_exact": "takes only g0, under the locators' rule 0 < g0 <= 1",
}


@pytest.mark.parametrize("fn, args, name, value", DOMAIN_ROWS,
                         ids=[f"{fn.__name__}-{name}-{value}"
                              for fn, _, name, value in DOMAIN_ROWS])
def test_bad_argument_named(monkeypatch, fn, args, name, value):
    monkeypatch.setattr(renorm, "pv_halfline", _never)
    rule = "non-negative" if name == "g0" and fn in ZERO_G0 else "positive"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError,
                           match=f"^{name} must be {rule} and finite, got {re.escape(str(value))}$"):
            fn(*args)


@pytest.mark.parametrize("fn, args", POLE_ROWS,
                         ids=[f"{fn.__name__}-{args}" for fn, args in POLE_ROWS])
def test_unresolved_pole_named(monkeypatch, fn, args):
    monkeypatch.setattr(renorm, "pv_halfline", _never)
    eps_i, g0 = args[-2:]
    with pytest.raises(DomainError, match="^" + re.escape(
            f"g0 must be small enough that eps_i + g0**2/8 < 2**53, "
            f"got {g0} at eps_i = {eps_i}") + "$"):
        fn(*args)


# a phase may take any sign, but must be finite: each row once returned
# nan+nanj with a numpy RuntimeWarning
PHASE_ROWS = [
    (phi_cc, (1.0, 2.0, nan, 0.3), nan),
    (phi_cc, (1.0, 2.0, np.array([-0.5, -inf, nan]), 0.3), -inf),
    (phi_cb_mean, (1.0, inf, 0.3), inf),
    (phi_cb_mean, (1.0, np.array([[2.0, 1.0], [nan, 0.0]]), 0.3), nan),
]


@pytest.mark.parametrize("fn, args, value", PHASE_ROWS,
                         ids=[f"{fn.__name__}-{value}" for fn, _, value in PHASE_ROWS])
def test_non_finite_phase_named(fn, args, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^tau must be finite, got {value}$"):
            fn(*args)


def test_negative_phase_is_valid():
    two_pi = 2.0 * math.pi
    assert phi_cc(1.0, 2.0, -0.5, 0.3) == pytest.approx(phi_cc(1.0, 2.0, two_pi - 0.5, 0.3))
    assert phi_cb_mean(1.0, -0.5, 0.3) == pytest.approx(phi_cb_mean(1.0, two_pi - 0.5, 0.3))


def test_every_public_callable_has_a_row_or_a_reason():
    public = {name for name in drivendelta.__all__ if callable(getattr(drivendelta, name))}
    rows = {fn.__name__ for fn, *_ in DOMAIN_ROWS}
    assert not rows & EXEMPT.keys()
    assert public == rows | EXEMPT.keys()
