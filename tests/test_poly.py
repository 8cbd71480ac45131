from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2cert.errors import NotSeparableError
from g2cert.poly import (
    ModPoly,
    RatPoly,
    _ModulusEngine,
    deflate_root_one,
    degree_pattern,
    discriminant,
    format_poly,
    resultant,
)
from oracles import naive_degree_pattern, naive_poly_mod, naive_poly_mul

small_fractions = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)
small_polys = st.lists(small_fractions, min_size=1, max_size=6).map(RatPoly.from_coeffs)


@given(small_polys, small_polys)
@settings(max_examples=150, deadline=None)
def test_mul_matches_convolution(a, b):
    got = a * b
    if a.is_zero() or b.is_zero():
        assert got.is_zero()
        return
    want = [Fraction(0)] * (a.degree + b.degree + 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            want[i + j] += ai * bj
    while want and not want[-1]:
        want.pop()
    assert list(got.coeffs) == want


@given(small_polys, small_polys)
@settings(max_examples=150, deadline=None)
def test_divmod_identity(a, b):
    if b.is_zero():
        return
    q, r = a.divmod_by(b)
    assert b * q + r == a
    assert r.is_zero() or r.degree < b.degree


def test_eval_and_derivative():
    f = RatPoly.from_coeffs([Fraction(-49, 16), Fraction(-11, 4), Fraction(5, 4), 1])
    assert f.evaluate(2) == Fraction(71, 16)
    assert f.evaluate(-2) == Fraction(-9, 16)
    d = f.derivative()
    assert d.coeffs == (Fraction(-11, 4), Fraction(5, 2), Fraction(3))


def test_resultant_roots_convention():
    f = RatPoly.from_coeffs([-1, 1])  # x - 1
    g = RatPoly.from_coeffs([-2, 1])  # x - 2
    assert resultant(f, g) == -1  # product of root differences, 1 - 2
    h = RatPoly.from_coeffs([1, 0, 1])
    assert resultant(f * g, h) == resultant(f, h) * resultant(g, h)
    assert resultant(f, g) == -resultant(g, f)  # odd degree swap flips sign


def test_discriminant_known_values():
    # disc(x^2 + bx + c) = b^2 - 4c
    for b, c in [(3, 1), (0, -2), (5, 7)]:
        f = RatPoly.from_coeffs([c, b, 1])
        assert discriminant(f) == b * b - 4 * c
    # disc((x-1)(x-2)(x-3)) = product of squared root differences = 4
    f = RatPoly.from_coeffs([-6, 11, -6, 1])
    assert discriminant(f) == 4
    # depressed cubic x^3 + px + q: disc = -4p^3 - 27q^2
    for pp, qq in [(-1, 1), (2, 3), (-7, 6)]:
        f = RatPoly.from_coeffs([qq, pp, 0, 1])
        assert discriminant(f) == -4 * pp**3 - 27 * qq**2
    # repeated root means discriminant zero
    sq = RatPoly.from_coeffs([-1, 1])
    assert discriminant(sq * sq * sq) == 0


def test_deflate_root_one():
    f = RatPoly.from_coeffs([-6, 11, -6, 1])  # roots 1, 2, 3
    g = deflate_root_one(f)
    assert g.coeffs == (Fraction(6), Fraction(-5), Fraction(1))
    with pytest.raises(ValueError):
        deflate_root_one(RatPoly.from_coeffs([1, 1]))


def test_format_poly():
    f = RatPoly.from_coeffs([Fraction(-49, 16), Fraction(-11, 4), Fraction(5, 4), 1])
    assert format_poly(f.coeffs, "y") == "y^3 + 5/4*y^2 - 11/4*y - 49/16"


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_modulus_engine_ring_ops(data):
    # the operations the trace ladder runs, against schoolbook arithmetic
    p = data.draw(st.sampled_from([5, 7, 101, 997, 999983]))
    n = data.draw(st.integers(min_value=2, max_value=6))
    residues = st.integers(min_value=0, max_value=p - 1)
    f = [data.draw(residues) for _ in range(n)] + [1]
    a = [data.draw(residues) for _ in range(n)]
    b = [data.draw(residues) for _ in range(n)]
    c = data.draw(st.integers(min_value=-2 * p, max_value=2 * p))
    eng = _ModulusEngine(p, f)
    want = naive_poly_mod(naive_poly_mul(a, b, p), f, p)
    assert eng.unpack(eng.mulmod(eng.pack(a), eng.pack(b))) == want + [0] * (n - len(want))
    assert eng.unpack(eng.sub(eng.pack(a), eng.pack(b))) == [(x - y) % p for x, y in zip(a, b)]
    assert eng.unpack(eng.sub_const(eng.pack(a), c)) == [(a[0] - c) % p] + a[1:]
    assert eng.unpack(eng.x) == [0, 1] + [0] * (n - 2)
    # a constant is its own packing
    assert eng.pack([a[0]] + [0] * (n - 1)) == a[0]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_modulus_engine_pow_x_matches_naive(data):
    p = data.draw(st.sampled_from([5, 7, 101, 997]))
    n = data.draw(st.integers(min_value=2, max_value=6))
    body = [data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(n)]
    f = body + [1]
    e = data.draw(st.integers(min_value=1, max_value=2000))
    eng = _ModulusEngine(p, f)
    got = list(eng.unpack(eng.pow_x(e)))
    while got and not got[-1]:
        got.pop()
    want = naive_poly_mod([0] * e + [1], f, p)
    if want == [0]:
        want = []
    assert got == want, (p, f, e)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_degree_pattern_random_small(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    deg = data.draw(st.sampled_from([3, 6]))
    coeffs = [data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(deg)]
    coeffs.append(1)
    f = ModPoly.from_coeffs(p, coeffs)
    try:
        pattern = degree_pattern(f)
    except NotSeparableError:
        return  # oracle also needs separability; nothing to compare
    assert sum(pattern) == deg
    try:
        want = naive_degree_pattern(coeffs, p)
    except AssertionError:
        # oracle only decomposes patterns with parts in {1,2,3,6}
        assert deg == 6
        return
    assert pattern == want, (coeffs, p)


def test_degree_pattern_all_cubics_mod_5():
    p = 5
    checked = 0
    for a in range(p):
        for b in range(p):
            for c in range(p):
                f = ModPoly.from_coeffs(p, [c, b, a, 1])
                try:
                    got = degree_pattern(f)
                except NotSeparableError:
                    continue
                want = naive_degree_pattern([c, b, a, 1], p)
                assert got == want, (a, b, c)
                checked += 1
    assert checked > 50


def test_degree_pattern_rejects_repeated_factors():
    f = ModPoly.from_coeffs(7, [1, 2, 1])  # (x+1)^2
    with pytest.raises(NotSeparableError):
        degree_pattern(f)
