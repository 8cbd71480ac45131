"""Palindromic polynomials and their trace-coordinate reductions.

A monic palindromic sextic P factors through y = x + 1/x:
P(x) = x^3 Q(x + 1/x) for a unique monic cubic Q.  All structural
questions (separability, ramification, Galois type, root location) are
settled on Q exactly, on its integer model

    Q = (c0 + c1 y + c2 y^2 + D y^3) / D,   D the least common denominator,

which palindromic_reduce returns.  Everything here is a pure function of
that model, or of the square classes n and n', num * den of
delta = disc(Q) and delta' = Q(2)Q(-2); reduction.ReductionContext holds
their values, one analysis per input.  Every decision is an integer sign,
equality, root search or square root on c0, c1, c2, D, n and n'.  Nothing
here factors: the displayed fields that do are ReductionContext's.
"""

from __future__ import annotations

import math

from .arith import is_square
from .errors import NotMonicError, NotPalindromicError
from .poly import RatPoly, cubic_discriminant, integer_model

TAG_D6 = "D6"
TAG_WEYL_BC = "WeylBC_n"
TAG_OTHER = "Other"
TAG_INCONCLUSIVE = "Inconclusive"

# (c0, c1, c2, D) with Q = (c0 + c1 y + c2 y^2 + D y^3) / D, D > 0 least
Model = tuple[int, int, int, int]


def palindromic_reduce(poly: RatPoly) -> Model:
    """The integer model (c0, c1, c2, D) of the cubic Q with poly = x^3 Q(x + 1/x).

    For Q = y^3 + q2 y^2 + q1 y + q0, x^3 Q(x + 1/x) is
    (x^2 + 1)^3 + q2 x (x^2 + 1)^2 + q1 x^2 (x^2 + 1) + q0 x^3, whose
    coefficients of x^5, x^4 and x^3 are q2, 3 + q1 and 2 q2 + q0; a monic
    palindromic sextic is fixed by those three.

    Everything runs on integers over D.  p3, p4 and p5 have the same least
    common denominator D as q0, q1 and q2: q2 = p5, q1 = p4 - 3, and the
    denominators of q0 = p3 - 2 p5 and p3 = q0 + 2 q2 each divide the
    other triple's lcm.
    """
    if poly.degree != 6:
        raise NotPalindromicError(f"degree {poly.degree}: only sextics are reduced")
    if not poly.is_monic():
        raise NotMonicError("not monic")
    if not poly.is_palindromic():
        raise NotPalindromicError("coefficients are not palindromic")
    (n3, n4, c2), d = integer_model(poly.coeffs[3:6])
    return n3 - 2 * c2, n4 - 3 * d, c2, d


def trace_values(model: Model) -> tuple[int, int]:
    """D Q(2) and D Q(-2), which are c0 +- 2 c1 + 4 c2 +- 8 D."""
    c0, c1, c2, d = model
    return c0 + 2 * c1 + 4 * c2 + 8 * d, c0 - 2 * c1 + 4 * c2 - 8 * d


def scaled_discriminant(model: Model) -> int:
    """D^6 disc(Q): with z = D y, D^3 Q(z / D) = z^3 + c2 z^2 + c1 D z + c0 D^2,
    whose discriminant is D^6 disc(Q)."""
    c0, c1, c2, d = model
    return cubic_discriminant(c0 * d * d, c1 * d, c2)


def separability_check(square_classes: tuple[int, int]) -> bool:
    """True iff P has six distinct roots, none at +-1: delta and delta' nonzero."""
    nd, nd_prime = square_classes
    return nd != 0 and nd_prime != 0


def temperedness_check(model: Model) -> bool:
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
    inequalities are strict, and each is an integer sign on the integer
    model: after multiplying through by D > 0, the signs are those of
    D^6 disc(Q), D Q(+-2) and D Q'(+-2) = 12 D +- 4 c2 + c1, and the last
    condition is -6 D < c2 < 6 D.  No floating point is involved.
    """
    _, c1, c2, d = model
    at2, atm2 = trace_values(model)
    return (
        scaled_discriminant(model) > 0
        and atm2 < 0
        and at2 > 0
        and 12 * d - 4 * c2 + c1 > 0
        and 12 * d + 4 * c2 + c1 > 0
        and -6 * d < c2 < 6 * d
    )


def g2_lift_check(model: Model) -> bool:
    """Does the product of the x-roots on one side equal 1?

    Writing q = y^3 - a y^2 + b y - c, the condition is a^2 = c + 2b + 4.
    It holds exactly when the six roots of the palindromic lift split as
    x1 x2 x3 = 1 (and inverses), the shape a simply connected rank-2 torus
    element produces.  On the integer model (a = -c2 / D, b = c1 / D,
    c = -c0 / D) it reads c2^2 = D (2 c1 - c0 + 4 D).
    """
    c0, c1, c2, d = model
    return c2 * c2 == d * (2 * c1 - c0 + 4 * d)


def _cubic_irreducible(model: Model) -> bool:
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


def classify_galois(model: Model, square_classes: tuple[int, int]) -> tuple[str, dict[str, bool]]:
    """The tag and evidence of the Galois group of the splitting field of P, for n = 3.

    Evidence gathered: Q irreducible, delta / delta_prime / their product
    all nonsquare, and all roots of Q inside (-2, 2).  With all five plus
    the unit-product constraint the group is the dihedral group of order
    12 (tag D6).  With all five but the constraint failing, only the
    signed-permutation bound survives (tag WeylBC_n).  A failed algebraic
    condition is conclusive evidence of a different group (Other); absent
    temperedness nothing more can be claimed (Inconclusive).

    Squareness is an integer square root of the square classes num * den.
    """
    separable = separability_check(square_classes)
    nd, nd_prime = square_classes
    evidence = {
        "q_irreducible": _cubic_irreducible(model),
        "delta_nonsquare": separable and not is_square(nd),
        "delta_prime_nonsquare": separable and not is_square(nd_prime),
        "product_nonsquare": separable and not is_square(nd * nd_prime),
        "roots_in_interval": separable and temperedness_check(model),
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
        tag = TAG_D6 if g2_lift_check(model) else TAG_WEYL_BC
    return tag, evidence
