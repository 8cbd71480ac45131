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

from g2cert.errors import G2CertError, NotSeparableError
from g2cert.palindromic import (
    _cubic_irreducible,
    classify_galois,
    g2_lift_check,
    palindromic_reduce,
    scaled_discriminant,
    temperedness_check,
    trace_values,
)
from g2cert.poly import RatPoly, deflate_root_one, integer_model
from g2cert.reduction import ReductionContext
from oracles import (
    FractionReduction,
    fraction_classify_galois,
    fraction_cubic_irreducible,
    fraction_deflate_root_one,
    fraction_g2_lift_check,
    fraction_palindromic_reduce,
    fraction_temperedness_check,
    inflate_palindromic,
    lifted_model,
    rat_mul,
    torus_cubic,
)

SHARED_PRIMES = (2, 3, 5, 7, 11)


def rationals(height: int, shared_factors: int, other_den: int):
    numerators = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-height, height))
    denominators = st.one_of(
        st.lists(st.sampled_from(SHARED_PRIMES), max_size=shared_factors).map(math.prod),
        st.integers(1, other_den),
    )
    return st.builds(F, numerators, denominators)


def cubics(height: int, shared_factors: int, other_den: int):
    """Monic cubics, ascending coefficients: generic; with the lift identity;
    with roots in (-3, 3) moved by a small e, so mostly irreducible, often
    tempered and often failing one condition of the sign test alone; near a
    torus element's, with the lift identity, so often D6; with a double
    root; with a rational root of the strategy's height; or with a root at 2
    or -2."""
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
    torus = st.builds(torus_cubic, r, r, small, small)
    # (y - a)^2 (y - b) = y^3 - (2a + b) y^2 + (a^2 + 2ab) y - a^2 b
    double = st.builds(lambda a, b: (-a * a * b, a * a + 2 * a * b, -2 * a - b), r, r)
    # (y - e)(y^2 + s y + t) = y^3 + (s - e) y^2 + (t - e s) y - e t
    def planted(e, s, t):
        return -e * t, t - e * s, s - e

    rooted = st.builds(planted, r, r, r)
    at_two = st.builds(planted, st.sampled_from((2, -2)), r, r)
    return st.one_of(generic, lift, near, torus, double, rooted, at_two).map(
        lambda body: RatPoly.from_coeffs([*body, 1])
    )


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
    model, want = palindromic_reduce(sextic), fraction_palindromic_reduce(sextic)
    c0, c1, c2, d = model
    assert d == math.lcm(*(c.denominator for c in q.coeffs))
    assert want.q.coeffs == (F(c0, d), F(c1, d), F(c2, d), 1)
    at2, atm2 = trace_values(model)
    assert (F(at2, d), F(atm2, d)) == (want.q_at_2, want.q_at_minus_2)
    assert F(scaled_discriminant(model), d**6) == want.delta
    assert temperedness_check(model) == fraction_temperedness_check(want)
    assert g2_lift_check(model) == fraction_g2_lift_check(q)
    assert _cubic_irreducible(model) == fraction_cubic_irreducible(q)
    # the context keeps every field, q, delta, delta', Q(2), Q(-2), or
    # refuses an inseparable input
    got = outcome(ReductionContext, sextic)
    if want.delta == 0:
        assert got == (NotSeparableError, "disc(Q) = 0: the sextic has a repeated root")
    elif want.delta_prime == 0:
        assert got == (NotSeparableError, "Q(2)Q(-2) = 0: the sextic has a root at 1 or -1")
    else:
        assert FractionReduction(got.q, got.delta, got.delta_prime, got.q_at_2, got.q_at_minus_2) == want
        assert (got.model, got.tempered, got.unit_product) == (
            model, fraction_temperedness_check(want), fraction_g2_lift_check(q)
        )
        # P's own integer model is Q's lifted: classify reduces only Q
        assert tuple(integer_model(got.sextic.coeffs)[0]) == lifted_model(model)
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
    # the oracle by integer square roots of numerator and denominator apart;
    # it takes only the separable cubics, the ones ReductionContext admits
    sextic = inflate_palindromic(q)
    a = fraction_palindromic_reduce(sextic)
    if a.delta != 0 and a.delta_prime != 0:
        classes = (a.delta.numerator * a.delta.denominator, a.delta_prime.numerator * a.delta_prime.denominator)
        want = fraction_classify_galois(a)
        assert classify_galois(palindromic_reduce(sextic), classes) == want
        ctx = ReductionContext(sextic)
        assert (ctx.square_classes, ctx.tag, ctx.evidence) == (classes, *want)


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


def _cubic(model):
    c0, c1, c2, d = model
    return RatPoly((F(c0, d), F(c1, d), F(c2, d), F(1)))


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
    got = outcome(lambda g: _cubic(palindromic_reduce(g)), f)
    assert got == outcome(lambda g: fraction_palindromic_reduce(g).q, f)
