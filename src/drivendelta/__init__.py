"""Transmission and reflection of a beam through a sinusoidally driven delta barrier.

The package computes sideband-resolved scattering amplitudes from a
diagrammatic expansion over transitions in the instantaneous eigenbasis
(single continuum transitions, the continuum-bound-continuum route with
its renormalized pole, and the two-transition continuum loop), and cross
checks every assembled observable against an independent truncated
sideband mode-matching solver.
"""

from . import amplitudes, errors, floquet, model, quadrature, renorm, smatrix
from .amplitudes import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .floquet import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .renorm import *  # noqa: F401,F403
from .smatrix import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module declares its public names once, in its own __all__
__all__ = ["__version__"] + [name for module in (model, quadrature, amplitudes, renorm,
                                                 smatrix, floquet, errors)
                             for name in module.__all__]
