"""Certified enclosures for the Mathieu-type series S(r) = sum 2m/(m^2+r^2)^2.

The series tail from any offset x > 1/2 equals a generalized continued
fraction whose even/odd approximants bracket the value whenever the partial
coefficients are positive; splitting the series and bracketing the tail
turns a slowly decaying sum into certified enclosures at a tiny term count.
The package bundles the fraction engine, the series representations,
classical bounds with their crossover analysis, independent numerical
oracles (trigamma, oscillatory integral, a zeta(3) fraction), a built-in
invariant suite, and a CLI.
"""

__version__ = "0.1.0"

from . import bounds, cf, oracles, series
from .bounds import *
from .cf import *
from .oracles import *
from .series import *

__all__ = [
    "__version__",
    *cf.__all__,
    *series.__all__,
    *bounds.__all__,
    *oracles.__all__,
]
