"""The input analysis on Q's integer model against the Fraction oracle.

The package reads every sign, equality and root search off the integers
(c0, c1, c2, D) with Q = (c0 + c1 y + c2 y^2 + D y^3) / D; tests/oracles.py
keeps the Fraction arithmetic it replaced.  Inputs are monic rational
cubics with heights up to about 10^30, zero and negative coefficients,
denominators that share the primes 2, 3, 5, 7 and 11, and inseparable
cubics (a double root: delta = 0; a root at +-2: delta' = 0).
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2cert.errors import G2CertError
from g2cert.palindromic import (
    _cubic_irreducible,
    classify_galois,
    g2_lift_check,
    palindromic_reduce,
    temperedness_check,
)
from g2cert.poly import RatPoly, deflate_root_one
from oracles import (
    fraction_classify_galois,
    fraction_cubic_irreducible,
    fraction_deflate_root_one,
    fraction_g2_lift_check,
    fraction_palindromic_reduce,
    fraction_temperedness_check,
    inflate_palindromic,
    rat_mul,
)

SHARED_PRIMES = (2, 3, 5, 7, 11)


def rationals(height: int, shared_factors: int, other_den: int):
    numerators = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-height, height))
    denominators = st.one_of(
        st.lists(st.sampled_from(SHARED_PRIMES), max_size=shared_factors).map(math.prod),
        st.integers(1, other_den),
    )
    return st.builds(F, numerators, denominators)


def _torus(m1, m2, ea, eb):
    # (cos t, sin t) = ((1 - m^2) / (1 + m^2), 2m / (1 + m^2)) for rational m;
    # the roots 2 cos t1, 2 cos t2 and 2 cos(t1 + t2) satisfy the lift
    # identity, and moving a and b by ea and eb with c = a^2 - 2b - 4 keeps it
    (c1, s1), (c2, s2) = [((1 - m * m) / (1 + m * m), 2 * m / (1 + m * m)) for m in (m1, m2)]
    r1, r2, r3 = 2 * c1, 2 * c2, 2 * (c1 * c2 - s1 * s2)
    a, b = r1 + r2 + r3 + ea, r1 * r2 + r1 * r3 + r2 * r3 + eb
    return 4 + 2 * b - a * a, b, -a


def cubics(height: int, shared_factors: int, other_den: int):
    """Monic cubics, ascending coefficients: generic; with the lift identity;
    with roots in (-3, 3) moved by a small e, so mostly irreducible, often
    tempered and often failing one condition of the sign test alone; near a
    torus element's, with the lift identity, so often D6; with a double
    root; or with a root at 2 or -2."""
    r = rationals(height, shared_factors, other_den)
    generic = st.tuples(r, r, r)
    # y^3 - a y^2 + b y - c with a^2 = c + 2b + 4
    lift = st.builds(lambda a, b: (4 + 2 * b - a * a, b, -a), r, r)
    inner = st.fractions(-3, 3, max_denominator=other_den)
    small = st.fractions(F(-1, 100), F(1, 100), max_denominator=max(other_den, 100))
    near = st.builds(
        lambda x, y, z, e: (e - x * y * z, x * y + x * z + y * z, -x - y - z),
        inner, inner, inner, small,
    )
    torus = st.builds(_torus, r, r, small, small)
    # (y - a)^2 (y - b) = y^3 - (2a + b) y^2 + (a^2 + 2ab) y - a^2 b
    double = st.builds(lambda a, b: (-a * a * b, a * a + 2 * a * b, -2 * a - b), r, r)
    # (y - e)(y^2 + s y + t) = y^3 + (s - e) y^2 + (t - e s) y - e t
    at_two = st.builds(
        lambda e, s, t: (-e * t, t - e * s, s - e), st.sampled_from((2, -2)), r, r
    )
    return st.one_of(generic, lift, near, torus, double, at_two).map(lambda body: RatPoly.from_coeffs([*body, 1]))


def outcome(f, *args):
    """f's value, or the type and text of what it raised."""
    try:
        return f(*args)
    except (ValueError, G2CertError) as e:
        return type(e), str(e)


@given(cubics(10**30, 28, 10**10))
@example(RatPoly.from_coeffs([F(-49, 16), F(-11, 4), F(5, 4), 1]))  # frobenius2
@example(RatPoly.from_coeffs([F(-520, 729), F(-572, 243), F(-2, 27), 1]))  # frobenius3
@example(RatPoly.from_coeffs([1, -1, -1, 1]))  # (y - 1)^2 (y + 1)
@example(RatPoly.from_coeffs([-2, 1, -2, 1]))  # (y - 2)(y^2 + 1)
@example(RatPoly.from_coeffs([0, 0, 0, 1]))  # y^3
# (y + 3)(y + 5/2)(y - 19/10) and its mirror: every condition of the sign
# test but Q'(-2) > 0, resp. Q'(2) > 0, holds
@example(RatPoly.from_coeffs([F(-57, 4), F(-59, 20), F(18, 5), 1]))
@example(RatPoly.from_coeffs([F(57, 4), F(-59, 20), F(-18, 5), 1]))
# roots 17/10, 9/5, 19/10 and their negatives: tempered, with -q2 / 3 = 1.8
# near the ends of (-2, 2)
@example(RatPoly.from_coeffs([F(-2907, 500), F(971, 100), F(-27, 5), 1]))
@example(RatPoly.from_coeffs([F(2907, 500), F(971, 100), F(27, 5), 1]))
@settings(max_examples=400, deadline=None)
def test_analysis_matches_the_fraction_oracle(q):
    sextic = inflate_palindromic(q)
    pair, want = palindromic_reduce(sextic), fraction_palindromic_reduce(sextic)
    # every field: poly, q, delta, delta', Q(2), Q(-2)
    assert pair == want
    c0, c1, c2, d = pair.model
    assert d == math.lcm(*(c.denominator for c in q.coeffs))
    assert pair.q.coeffs == (F(c0, d), F(c1, d), F(c2, d), 1)
    assert temperedness_check(pair) == fraction_temperedness_check(want)
    assert g2_lift_check(pair.q) == fraction_g2_lift_check(q)
    assert _cubic_irreducible(pair.model) == fraction_cubic_irreducible(q)
    septic = rat_mul(sextic, RatPoly.from_coeffs([-1, 1]))
    assert deflate_root_one(septic) == fraction_deflate_root_one(septic) == sextic


@given(cubics(20, 3, 12))
@example(RatPoly.from_coeffs([1, -3, 0, 1]))  # disc 81, a square
@example(RatPoly.from_coeffs([F(-1, 16), F(7, 4), F(-11, 4), 1]))  # D6, roots in (0, 2)
# tests/data/lift-identity.json: a 201-digit delta, Inconclusive
@example(RatPoly.from_coeffs([
    -((10**40 + 7) ** 2 - 2 * (3 * 10**39 + 11) - 4), 3 * 10**39 + 11, -(10**40 + 7), 1
]))
@settings(max_examples=300, deadline=None)
def test_classification_matches_the_fraction_oracle(q):
    # classify_galois reads squareness by integer square roots of num * den,
    # the oracle by integer square roots of numerator and denominator apart
    sextic = inflate_palindromic(q)
    pair = palindromic_reduce(sextic)
    assert classify_galois(pair) == fraction_classify_galois(fraction_palindromic_reduce(sextic))


@given(
    st.lists(rationals(10**30, 28, 10**10), max_size=9).map(RatPoly.from_coeffs),
    rationals(10**30, 28, 10**10),
)
@example(RatPoly.from_coeffs([-1, F(-1, 3), 1, F(13, 16), F(-13, 16), -1, F(1, 4), 1]), F(0))
@example(RatPoly.from_coeffs([5]), F(0))  # a constant
@example(RatPoly.from_coeffs([]), F(0))  # zero
@settings(max_examples=300, deadline=None)
def test_deflation_matches_the_fraction_oracle(f, shift):
    # a random f rarely has the root 1; g = f - f(1) + shift has it
    # exactly when shift = 0, so g reaches both the quotient and the error
    assert outcome(deflate_root_one, f) == outcome(fraction_deflate_root_one, f)
    if f.degree >= 1:
        at_one = sum(f.coeffs, F(0))
        g = RatPoly.from_coeffs([f.coeffs[0] - at_one + shift, *f.coeffs[1:]])
        assert outcome(deflate_root_one, g) == outcome(fraction_deflate_root_one, g)


@pytest.mark.parametrize(
    "coeffs",
    [
        [2, 1, 1, 1, 1, 1, 1],  # not palindromic
        [2, 1, 1, 1, 1, 1, 2],  # not monic
        [1, 1, 1, 1, 1, 1],  # degree 5
        [1, 0, 0, 0, 0, 0, 0, 1],  # degree 7
        [1, F(1, 2), F(1, 3), F(5, 7), F(1, 3), F(1, 2), 1],  # palindromic
    ],
)
def test_reduce_refusals_match_the_fraction_oracle(coeffs):
    f = RatPoly.from_coeffs(coeffs)
    got, want = outcome(palindromic_reduce, f), outcome(fraction_palindromic_reduce, f)
    assert got == want
