"""Pseudo-spectral solver and analyticity verifier for semilinear parabolic
Cauchy problems whose solutions extend holomorphically to complex strips in
space and sectors in time, plus a counterparty-risk pricing application.

Each public name is defined, and listed in ``__all__``, by its own module;
the package re-exports them all.
"""

__version__ = "0.1.0"

from . import analyticity, errors, grid, norms, operators, reaction, solver, xva
from .analyticity import *
from .errors import *
from .grid import *
from .norms import *
from .operators import *
from .reaction import *
from .solver import *
from .xva import *

__all__ = [
    "__version__",
    *errors.__all__,
    *grid.__all__,
    *norms.__all__,
    *operators.__all__,
    *reaction.__all__,
    *solver.__all__,
    *analyticity.__all__,
    *xva.__all__,
]
