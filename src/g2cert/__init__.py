"""Exact-arithmetic certification of Frobenius class data for palindromic
characteristic polynomials, including the Lagrange-style generation
certificate for the pair of bundled inputs.

Everything is computed over the rationals or prime fields; no floating
point enters any result.
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
from .palindromic import (
    GaloisClassification,
    PalindromicPair,
    classify_galois,
    g2_lift_check,
    palindromic_reduce,
    ramified_primes,
    separability_check,
    temperedness_check,
)
from .weyl import CLASS_LABELS, WEYL_CLASSES, WeylClassInfo, torus_order
from .reduction import ReductionContext, frobenius_class
from .certify import (
    BOUNDED_SUBGROUPS,
    VERDICT_CERTIFIED,
    CertificationReport,
    Pair,
    ScanSummary,
    certify_prime,
    scan,
)
from .polyfile import PolyFile, bundled_polyfile, load_polyfile, parse_polyfile

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
    "PalindromicPair",
    "GaloisClassification",
    "palindromic_reduce",
    "separability_check",
    "ramified_primes",
    "temperedness_check",
    "g2_lift_check",
    "classify_galois",
    "CLASS_LABELS",
    "WEYL_CLASSES",
    "WeylClassInfo",
    "torus_order",
    "ReductionContext",
    "frobenius_class",
    "BOUNDED_SUBGROUPS",
    "VERDICT_CERTIFIED",
    "CertificationReport",
    "Pair",
    "ScanSummary",
    "certify_prime",
    "scan",
    "PolyFile",
    "parse_polyfile",
    "load_polyfile",
    "bundled_polyfile",
]
