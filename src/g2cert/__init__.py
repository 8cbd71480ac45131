"""Exact-arithmetic certification of Frobenius class data for palindromic
characteristic polynomials, including the Lagrange-style generation
certificate for the pair of bundled inputs.

Everything is computed over the rationals or prime fields; no floating
point enters any result.  The names below are the library surface the
README shows; every other name is imported from its own module.
"""

__version__ = "0.1.0"

from .errors import (
    ExcludedPrimeError,
    G2CertError,
    NotMonicError,
    NotPalindromicError,
    NotSeparableError,
    WitnessMismatchError,
)
from .poly import RatPoly, deflate_root_one
from .weyl import WEYL_CLASSES, torus_order
from .reduction import ReductionContext, frobenius_class
from .certify import Pair, certify_prime, scan
from .polyfile import bundled_polyfile

__all__ = [
    "__version__",
    "G2CertError",
    "NotMonicError",
    "NotPalindromicError",
    "NotSeparableError",
    "ExcludedPrimeError",
    "WitnessMismatchError",
    "RatPoly",
    "deflate_root_one",
    "WEYL_CLASSES",
    "torus_order",
    "ReductionContext",
    "frobenius_class",
    "Pair",
    "certify_prime",
    "scan",
    "bundled_polyfile",
]
