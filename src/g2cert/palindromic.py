"""Palindromic polynomials and their trace-coordinate reductions.

A monic palindromic sextic P factors through y = x + 1/x:
P(x) = x^3 Q(x + 1/x) for a unique monic cubic Q.  All structural
questions (separability, ramification, Galois type, root location) are
settled on Q exactly, on its integer model

    Q = (c0 + c1 y + c2 y^2 + D y^3) / D,   D the least common denominator,

which PalindromicPair.model holds.  Every test is an integer sign,
equality, root search or square root on c0, c1, c2, D and num * den of
delta and delta'; no decision factors.  The Fractions of the report are
built once from integers; only the displayed square_kernels and
ramified_primes factor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .arith import factor_integer, is_square, squarefree_kernel
from .errors import G2CertError, NotMonicError, NotPalindromicError
from .poly import RatPoly, cubic_discriminant, integer_model

TAG_D6 = "D6"
TAG_WEYL_BC = "WeylBC_n"
TAG_OTHER = "Other"
TAG_INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class PalindromicPair:
    """A palindromic P together with its trace reduction Q and invariants.

    delta is disc(Q); delta_prime is Q(2)Q(-2), which equals the product of
    y_i^2 - 4 over the roots of Q and so detects roots of P at +-1 as well
    as collisions between x and 1/x.
    """

    poly: RatPoly
    q: RatPoly
    delta: Fraction
    delta_prime: Fraction
    q_at_2: Fraction
    q_at_minus_2: Fraction

    @functools.cached_property
    def model(self) -> tuple[int, int, int, int]:
        """(c0, c1, c2, D) with Q = (c0 + c1 y + c2 y^2 + D y^3) / D, D > 0 least.

        ValueError unless Q is a monic cubic, which only a hand-built pair
        can break; the checks that read the model refuse such a pair.
        """
        return _cubic_model(self.q)

    @functools.cached_property
    def square_classes(self) -> tuple[int, int]:
        """num * den of delta and delta_prime: r = num den / den^2 has the square class of num den."""
        d, d_prime = self.delta, self.delta_prime
        return d.numerator * d.denominator, d_prime.numerator * d_prime.denominator

    @functools.cached_property
    def exponents(self) -> tuple[dict[int, int], dict[int, int]]:
        """Prime exponents of the square classes of delta and delta_prime, which must be nonzero."""
        nd, nd_prime = self.square_classes
        return factor_integer(nd), factor_integer(nd_prime)


def _cubic_model(q: RatPoly) -> tuple[int, int, int, int]:
    """The integer model (c0, c1, c2, D) of a monic cubic q; ValueError for any other q."""
    if q.degree != 3 or not q.is_monic():
        raise ValueError(f"the analysis needs a monic cubic Q, got {q}")
    (c0, c1, c2), d = integer_model(q.coeffs[:3])
    return c0, c1, c2, d


def palindromic_reduce(poly: RatPoly) -> PalindromicPair:
    """Recover the cubic Q with poly = x^3 Q(x + 1/x) and package the invariants.

    For Q = y^3 + q2 y^2 + q1 y + q0, x^3 Q(x + 1/x) is
    (x^2 + 1)^3 + q2 x (x^2 + 1)^2 + q1 x^2 (x^2 + 1) + q0 x^3, whose
    coefficients of x^5, x^4 and x^3 are q2, 3 + q1 and 2 q2 + q0; a monic
    palindromic sextic is fixed by those three.

    Everything runs on integers over D.  p3, p4 and p5 have the same least
    common denominator D as q0, q1 and q2: q2 = p5, q1 = p4 - 3, and the
    denominators of q0 = p3 - 2 p5 and p3 = q0 + 2 q2 each divide the
    other triple's lcm.  Then D Q(+-2) = c0 +- 2 c1 + 4 c2 +- 8 D, and with
    z = D y, D^3 Q(z / D) = z^3 + c2 z^2 + c1 D z + c0 D^2, whose
    discriminant is D^6 disc(Q).
    """
    if poly.degree != 6:
        raise NotPalindromicError(f"degree {poly.degree}: only sextics are reduced")
    if not poly.is_monic():
        raise NotMonicError("not monic")
    if not poly.is_palindromic():
        raise NotPalindromicError("coefficients are not palindromic")
    (n3, n4, c2), d = integer_model(poly.coeffs[3:6])
    c0, c1 = n3 - 2 * c2, n4 - 3 * d
    at2 = c0 + 2 * c1 + 4 * c2 + 8 * d
    atm2 = c0 - 2 * c1 + 4 * c2 - 8 * d
    return PalindromicPair(
        poly=poly,
        q=RatPoly((Fraction(c0, d), Fraction(c1, d), poly.coeffs[5], poly.coeffs[6])),
        delta=Fraction(cubic_discriminant(c0 * d * d, c1 * d, c2), d**6),
        delta_prime=Fraction(at2 * atm2, d * d),
        q_at_2=Fraction(at2, d),
        q_at_minus_2=Fraction(atm2, d),
    )


def separability_check(pair: PalindromicPair) -> bool:
    """True iff P has six distinct roots, none at +-1: delta and delta_prime nonzero."""
    return pair.delta != 0 and pair.delta_prime != 0


def ramified_primes(pair: PalindromicPair) -> frozenset[int]:
    """Primes dividing a numerator or denominator of delta or delta_prime."""
    if not separability_check(pair):
        raise G2CertError("ramified primes undefined for inseparable pair")
    return frozenset(pair.exponents[0].keys() | pair.exponents[1].keys())


def temperedness_check(pair: PalindromicPair) -> bool:
    """Exact sign test confining the roots of Q to (-2, 2).

    For a monic cubic Q = y^3 + q2 y^2 + q1 y + q0 the test is

        disc > 0,  Q(-2) < 0 < Q(2),  Q'(-2) > 0,  Q'(2) > 0,  -6 < q2 < 6.

    Why it is exact.  disc > 0 means three distinct real roots
    r1 < r2 < r3, so Q' = 3y^2 + 2 q2 y + q1 has two real zeros (the
    critical points) c1 < c2 with r1 < c1 < r2 < c2 < r3, placed
    symmetrically about the vertex v = -q2/3.  The last condition is
    exactly v in (-2, 2).  Q' is an upward parabola, so Q'(t) > 0 says t
    lies outside [c1, c2].  If v is in (-2, 2) and Q'(+-2) > 0, then
    -2 < v < c2 forces -2 < c1, and c1 < v < 2 forces c2 < 2: both
    critical points lie in (-2, 2).  Conversely, if both do, then so does
    their midpoint v, and +-2 lie outside [c1, c2].  With both critical
    points inside, Q(-2) < 0 puts -2 below r1 (the other negative stretch
    (r2, r3) lies right of c1 > -2) and Q(2) > 0 puts 2 above r3 (the
    other positive stretch (r1, r2) lies left of c2 < 2), so all three
    roots lie in (-2, 2).  Conversely, roots in (-2, 2) put the critical
    points between them, and Q(-2) < 0 < Q(2) because +-2 lie beyond the
    outer roots.  The sign of Q'(0) does not enter: the roots may all lie
    on one side of 0.

    Equivalently every root of P lies on the unit circle.  All the
    inequalities are strict, and each is an integer sign: disc and Q(+-2)
    have the signs of their numerators, and on the integer model, after
    multiplying through by D > 0, D Q'(+-2) = 12 D +- 4 c2 + c1 and the
    last condition is -6 D < c2 < 6 D.  No floating point is involved.
    """
    _, c1, c2, d = pair.model
    return (
        pair.delta.numerator > 0
        and pair.q_at_minus_2.numerator < 0
        and pair.q_at_2.numerator > 0
        and 12 * d - 4 * c2 + c1 > 0
        and 12 * d + 4 * c2 + c1 > 0
        and -6 * d < c2 < 6 * d
    )


def g2_lift_check(q: RatPoly) -> bool:
    """Does the product of the x-roots on one side equal 1?

    Writing q = y^3 - a y^2 + b y - c, the condition is a^2 = c + 2b + 4.
    It holds exactly when the six roots of the palindromic lift split as
    x1 x2 x3 = 1 (and inverses), the shape a simply connected rank-2 torus
    element produces.  On the integer model (a = -c2 / D, b = c1 / D,
    c = -c0 / D) it reads c2^2 = D (2 c1 - c0 + 4 D).
    """
    c0, c1, c2, d = _cubic_model(q)
    return c2 * c2 == d * (2 * c1 - c0 + 4 * d)


def _cubic_irreducible(model: tuple[int, int, int, int]) -> bool:
    """Whether the monic cubic q with integer model (c0, c1, c2, D) has no
    rational root, i.e. is irreducible over Q.

    F(z) = D^3 q(z / D) = z^3 + c2 z^2 + (c1 D) z + c0 D^2 is monic with
    integer coefficients, and y is a root of q exactly when z = D y is a
    root of F.  Below, c1 and c0 name F's coefficients c1 D and c0 D^2.
    By Gauss's lemma a rational root r/s of F in lowest terms has s | 1
    (s^3 F(r/s) = 0 gives s | r^3), so it is an integer; and by Cauchy's
    bound |z| < B = 1 + max(|c2|, |c1|, |c0|) (for |z| > 1,
    |z|^3 <= M (|z|^2 + |z| + 1) < M |z|^3 / (|z| - 1) with M that max).
    So q has a rational root iff F has an integer root in [-B, B], which is
    searched by exact bisection on the stretches where F is monotone.

    F' = 3z^2 + 2 c2 z + c1.  If d = c2^2 - 3 c1 <= 0, F' >= 0 vanishes at
    most once and F increases on all of [-B, B].  Otherwise F' has the
    zeros z1 = (-c2 - sqrt(d)) / 3 < z2 = (-c2 + sqrt(d)) / 3, and F
    increases up to z1, decreases on [z1, z2] and increases from z2 on.
    With s = isqrt(d), s <= sqrt(d) < s + 1, so z1 lies in
    ((-c2 - s - 1) / 3, (-c2 - s) / 3] and z2 in [(s - c2) / 3, (s - c2 + 1) / 3).
    Each bracket (a / 3, (a + 1) / 3] or [a / 3, (a + 1) / 3), a an
    integer, lies in [k, k + 1] for k = floor(a / 3), since 3k >= a - 2.
    So k1 <= z1 <= k1 + 1 and k2 <= z2 <= k2 + 1, and F is monotone on
    [-B, k1], on [k1 + 1, k2] and on [k2 + 1, B], which hold every integer
    of [-B, B].  Everything is integer arithmetic.
    """
    c0, c1, c2, den = model
    c1, c0 = c1 * den, c0 * den * den

    def value(z: int) -> int:
        return ((z + c2) * z + c1) * z + c0

    def has_root(a: int, b: int) -> bool:  # F monotone on [a, b]
        if a > b:
            return False
        fa, fb = value(a), value(b)
        if fa == 0 or fb == 0:
            return True
        if (fa > 0) == (fb > 0):
            return False
        while b - a > 1:  # F(a), F(b) nonzero of opposite signs
            mid = (a + b) // 2
            fm = value(mid)
            if fm == 0:
                return True
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b = mid
        return False

    bound = 1 + max(abs(c2), abs(c1), abs(c0))
    d = c2 * c2 - 3 * c1
    if d <= 0:
        return not has_root(-bound, bound)
    s = math.isqrt(d)
    k1, k2 = (-c2 - s - 1) // 3, (s - c2) // 3
    return not (has_root(-bound, k1) or has_root(k1 + 1, k2) or has_root(k2 + 1, bound))


@dataclass(frozen=True)
class GaloisClassification:
    tag: str
    evidence: Mapping[str, bool]


def classify_galois(pair: PalindromicPair) -> GaloisClassification:
    """Classify the Galois group of the splitting field of P, for n = 3.

    Evidence gathered: Q irreducible, delta / delta_prime / their product
    all nonsquare, and all roots of Q inside (-2, 2).  With all five plus
    the unit-product constraint the group is the dihedral group of order
    12 (tag D6).  With all five but the constraint failing, only the
    signed-permutation bound survives (tag WeylBC_n).  A failed algebraic
    condition is conclusive evidence of a different group (Other); absent
    temperedness nothing more can be claimed (Inconclusive).

    Squareness is an integer square root of the square classes num * den.
    """
    model = pair.model  # ValueError unless Q is a monic cubic
    separable = separability_check(pair)
    nd, nd_prime = pair.square_classes
    evidence = {
        "q_irreducible": _cubic_irreducible(model),
        "delta_nonsquare": separable and not is_square(nd),
        "delta_prime_nonsquare": separable and not is_square(nd_prime),
        "product_nonsquare": separable and not is_square(nd * nd_prime),
        "roots_in_interval": separable and temperedness_check(pair),
    }
    algebraic = (
        evidence["q_irreducible"]
        and evidence["delta_nonsquare"]
        and evidence["delta_prime_nonsquare"]
        and evidence["product_nonsquare"]
    )
    if not algebraic:
        tag = TAG_OTHER
    elif not evidence["roots_in_interval"]:
        tag = TAG_INCONCLUSIVE
    else:
        tag = TAG_D6 if g2_lift_check(pair.q) else TAG_WEYL_BC
    return GaloisClassification(tag=tag, evidence=evidence)


def square_kernels(pair: PalindromicPair) -> frozenset[int]:
    """Squarefree kernels of delta, delta_prime and their product; pair must be separable.

    The quadratic subfields of the splitting field are cut out by these
    three kernels.  The product's kernel is k k' / gcd(k, k')^2, since k
    and k' are squarefree.
    """
    exps, exps_prime = pair.exponents
    k, k_prime = squarefree_kernel(pair.delta, exps), squarefree_kernel(pair.delta_prime, exps_prime)
    g = math.gcd(k, k_prime)
    return frozenset((k, k_prime, k * k_prime // (g * g)))
