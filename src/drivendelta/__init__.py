"""Transmission and reflection of a beam through a sinusoidally driven delta barrier.

The package computes sideband-resolved scattering amplitudes from a
diagrammatic expansion over transitions in the instantaneous eigenbasis
(single continuum transitions, the continuum-bound-continuum route with
its renormalized pole, and the two-transition continuum loop), and cross
checks every assembled observable against an independent truncated
sideband mode-matching solver.
"""

from .amplitudes import (a_coefficient, b_coefficient, fourier_oracle,
                         phi_cb_mean, phi_cc)
from .errors import (DomainError, DrivenDeltaError, RegimeError,
                     ToleranceError, ZeroNotFoundError)
from .floquet import (FloquetGrid, FloquetSolution, solve,
                      total_transmission_exact, transmission_grid,
                      zero_locate_exact)
from .model import Channel, q_factor, sideband_channel
from .quadrature import (QuadratureResult, adaptive_quad, bracket_min,
                         pv_halfline, pv_integral)
from .renorm import (LoopValue, RenormFactors, alpha_shift, b_bare, b_renorm,
                     beta_width, gamma_elastic_closed, gamma_loop,
                     renorm_factors)
from .smatrix import (DiagramTerm, SMatrixDecomposition, assemble,
                      find_transmission_zero, near_zero_amplitudes, w0)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "Channel", "sideband_channel", "q_factor",
    # quadrature
    "QuadratureResult", "adaptive_quad", "pv_integral", "pv_halfline",
    "bracket_min",
    # amplitudes
    "phi_cc", "phi_cb_mean", "a_coefficient", "b_coefficient",
    "fourier_oracle",
    # renormalization
    "LoopValue", "RenormFactors", "gamma_loop", "gamma_elastic_closed",
    "b_bare", "alpha_shift", "beta_width", "renorm_factors", "b_renorm",
    # assembly
    "DiagramTerm", "SMatrixDecomposition", "assemble", "w0",
    "find_transmission_zero", "near_zero_amplitudes",
    # exact solver
    "FloquetSolution", "FloquetGrid", "solve", "transmission_grid",
    "total_transmission_exact", "zero_locate_exact",
    # errors
    "DrivenDeltaError", "DomainError", "ToleranceError", "RegimeError",
    "ZeroNotFoundError",
]
