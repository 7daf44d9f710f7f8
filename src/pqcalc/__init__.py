"""Exact deformed-integer calculus for skein-relation polynomial families.

The package computes two-parameter deformed integers [n] for the parameter
pairs attached to the Alexander, Jones, and HOMFLY skein relations, converts
between the coefficient views of the underlying two-term recurrences, and
evaluates the closed-form torus Alexander polynomials, all as exact Laurent
polynomials in q and p on a half-integer exponent grid.
"""

from . import checks, laurent, qnumbers, skein, torus
from .checks import *
from .laurent import *
from .qnumbers import *
from .skein import *
from .torus import *

__version__ = "0.1.0"

# each module lists the names it owns in its own __all__
__all__ = [
    *laurent.__all__,
    *qnumbers.__all__,
    *skein.__all__,
    *torus.__all__,
    *checks.__all__,
    "__version__",
]
