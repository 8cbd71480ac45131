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
from .poly import ModPoly, RatPoly, deflate_root_one, degree_pattern, discriminant
from .palindromic import (
    GaloisClassification,
    PalindromicPair,
    classify_galois,
    g2_lift_check,
    inflate_palindromic,
    palindromic_reduce,
    ramified_primes,
    separability_check,
    temperedness_check,
)
from .weyl import (
    CLASS_LABELS,
    WeylClassInfo,
    WeylElement,
    enumerate_weyl,
    frobenius_lookup,
    torus_order,
    weyl_classes,
)
from .reduction import (
    ElementOrderReport,
    FrobeniusClassification,
    ReductionContext,
    element_order,
    frobenius_class,
)
from .certify import (
    MAXIMAL_SUBGROUPS,
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
    "ModPoly",
    "deflate_root_one",
    "degree_pattern",
    "discriminant",
    "PalindromicPair",
    "GaloisClassification",
    "palindromic_reduce",
    "inflate_palindromic",
    "separability_check",
    "ramified_primes",
    "temperedness_check",
    "g2_lift_check",
    "classify_galois",
    "CLASS_LABELS",
    "WeylElement",
    "WeylClassInfo",
    "enumerate_weyl",
    "weyl_classes",
    "frobenius_lookup",
    "torus_order",
    "FrobeniusClassification",
    "ElementOrderReport",
    "ReductionContext",
    "frobenius_class",
    "element_order",
    "MAXIMAL_SUBGROUPS",
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
