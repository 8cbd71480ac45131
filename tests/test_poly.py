import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2cert.errors import NotSeparableError
from g2cert.poly import (
    RatPoly,
    _cubic_pow_x,
    _cubic_ring,
    _sextic_pow_x,
    _sextic_ring,
    cubic_discriminant,
    deflate_root_one,
    degree_pattern,
    format_poly,
)
from oracles import (
    KERNEL_PRIMES,
    discriminant,
    inflate_palindromic,
    mod_poly,
    naive_degree_pattern,
    naive_derivative,
    naive_gcd_degree,
    naive_irreducibles,
    naive_poly_mod,
    naive_poly_mul,
    rat_divmod,
    rat_evaluate,
    rat_mul,
    resultant,
)

small_fractions = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)
small_polys = st.lists(small_fractions, min_size=1, max_size=6).map(RatPoly.from_coeffs)


# the oracle's rational algebra, which the discriminant identity below rests on


@given(small_polys, small_polys)
@settings(max_examples=150, deadline=None)
def test_mul_matches_convolution(a, b):
    # the product's values at 11 points, one more than its degree can be,
    # pin it down
    got = rat_mul(a, b)
    if not a.coeffs or not b.coeffs:
        assert got.coeffs == ()
        return
    assert got.degree == a.degree + b.degree <= 10
    for t in range(-5, 6):
        assert rat_evaluate(got, t) == rat_evaluate(a, t) * rat_evaluate(b, t)


@given(small_polys, small_polys)
@settings(max_examples=150, deadline=None)
def test_divmod_identity(a, b):
    if not b.coeffs:
        return
    q, r = rat_divmod(a, b)
    bq = rat_mul(b, q)
    n = max(len(bq.coeffs), len(r.coeffs), len(a.coeffs))
    assert [bq[i] + r[i] for i in range(n)] == [a[i] for i in range(n)]
    assert not r.coeffs or r.degree < b.degree


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
    assert resultant(rat_mul(f, g), h) == resultant(f, h) * resultant(g, h)
    assert resultant(f, g) == -resultant(g, f)  # odd degree swap flips sign


def test_discriminant_known_values():
    # disc(x^2 + bx + c) = b^2 - 4c
    for b, c in [(3, 1), (0, -2), (5, 7)]:
        f = RatPoly.from_coeffs([c, b, 1])
        assert discriminant(f) == b * b - 4 * c
    # disc((x-1)(x-2)(x-3)) = product of squared root differences = 4; the
    # package's closed form for monic cubics agrees with the generic one
    assert discriminant(RatPoly.from_coeffs([-6, 11, -6, 1])) == 4
    assert cubic_discriminant(-6, 11, -6) == 4
    # depressed cubic x^3 + px + q: disc = -4p^3 - 27q^2
    for pp, qq in [(-1, 1), (2, 3), (-7, 6)]:
        f = RatPoly.from_coeffs([qq, pp, 0, 1])
        assert discriminant(f) == cubic_discriminant(qq, pp, 0) == -4 * pp**3 - 27 * qq**2
    # repeated root means discriminant zero
    sq = RatPoly.from_coeffs([-1, 1])
    assert discriminant(rat_mul(rat_mul(sq, sq), sq)) == 0
    assert cubic_discriminant(-1, 3, -3) == 0


def test_deflate_root_one():
    f = RatPoly.from_coeffs([-6, 11, -6, 1])  # roots 1, 2, 3
    g = deflate_root_one(f)
    assert g.coeffs == (Fraction(6), Fraction(-5), Fraction(1))
    with pytest.raises(ValueError):
        deflate_root_one(RatPoly.from_coeffs([1, 1]))


def test_format_poly():
    f = RatPoly.from_coeffs([Fraction(-49, 16), Fraction(-11, 4), Fraction(5, 4), 1])
    assert format_poly(f.coeffs, "y") == "y^3 + 5/4*y^2 - 11/4*y - 49/16"


def _pad(a: list[int], n: int) -> tuple[int, ...]:
    return tuple(a) + (0,) * (n - len(a))


RINGS = {3: _cubic_ring, 6: _sextic_ring}
POW_X = {3: _cubic_pow_x, 6: _sextic_pow_x}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_cubic_and_sextic_mul_match_naive(data):
    # the straight-line products against schoolbook multiply-then-reduce
    p = data.draw(st.sampled_from(KERNEL_PRIMES))
    n = data.draw(st.sampled_from([3, 6]))
    residues = st.integers(min_value=0, max_value=p - 1)
    f = [data.draw(residues) for _ in range(n)] + [1]
    a = [data.draw(residues) for _ in range(n)]
    b = [data.draw(residues) for _ in range(n)]
    mul = RINGS[n](p, f)
    assert mul(tuple(a), tuple(b)) == _pad(naive_poly_mod(naive_poly_mul(a, b, p), f, p), n)
    assert mul(tuple(a), tuple(a)) == _pad(naive_poly_mod(naive_poly_mul(a, a, p), f, p), n)
    # unreduced inputs give canonical output
    shifted = tuple(c - 2 * p for c in a)
    assert mul(shifted, tuple(b)) == mul(tuple(a), tuple(b))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_pow_x_matches_naive(data):
    # each ladder step squares, and steps by x on a 1 bit, in place
    p = data.draw(st.sampled_from(KERNEL_PRIMES))
    n = data.draw(st.sampled_from([3, 6]))
    f = [data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(n)] + [1]
    e = data.draw(st.integers(min_value=1, max_value=2000))
    got = POW_X[n](p, f, e)
    assert got == _pad(naive_poly_mod([0] * e + [1], f, p), n), (p, f, e)


@pytest.mark.parametrize("p", [3, 5])
def test_pow_x_ladders_at_p_and_its_neighbours(p):
    # every monic cubic and sextic mod 3 and 5, at the exponents the
    # patterns use (e = p) and the ones on either side of it
    for n in (3, 6):
        for k in range(p**n):
            f = [k // p**i % p for i in range(n)] + [1]
            for e in (p - 1, p, p + 1):
                assert POW_X[n](p, f, e) == _pad(naive_poly_mod([0] * e + [1], f, p), n), (f, e)


PARTITIONS_OF_6 = [
    (6,), (1, 5), (2, 4), (3, 3), (1, 1, 4), (1, 2, 3), (2, 2, 2),
    (1, 1, 1, 3), (1, 1, 2, 2), (1, 1, 1, 1, 2), (1, 1, 1, 1, 1, 1),
]


def test_sextic_pattern_every_partition_mod_7():
    # a sextic built from distinct chosen irreducibles for each of the 11
    # partitions of 6: (1, 5), (2, 4), (1, 1, 4), (1, 2, 3), (1, 1, 1, 3)
    # take the single-factor shortcut, (3, 3) and (6) the x^(p^3) split
    p = 7
    irreducible = {d: naive_irreducibles(d, p, 6 // d) for d in range(1, 7)}
    assert len(PARTITIONS_OF_6) == 11
    for parts in PARTITIONS_OF_6:
        f, used = [1], {d: 0 for d in range(1, 7)}
        for d in parts:
            f = naive_poly_mul(f, irreducible[d][used[d]], p)
            used[d] += 1
        assert len(f) == 7 and f[-1] == 1
        assert degree_pattern(mod_poly(p, f)) == parts, parts


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_degree_pattern_random_small(data):
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    deg = data.draw(st.sampled_from([3, 6]))
    coeffs = [data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(deg)]
    coeffs.append(1)
    f = mod_poly(p, coeffs)
    try:
        pattern = degree_pattern(f)
    except NotSeparableError:
        return  # oracle also needs separability; nothing to compare
    assert sum(pattern) == deg
    assert pattern == naive_degree_pattern(coeffs, p), (coeffs, p)


def _irreducible_count(d: int, p: int) -> int:
    """Monic irreducibles of degree d over F_p, by Gauss's formula (1/d) sum mu(d/e) p^e."""
    mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1}  # the Moebius function up to 6
    return sum(mu[d // e] * p**e for e in range(1, d + 1) if d % e == 0) // d


@pytest.mark.parametrize("p", [3, 5])
def test_degree_pattern_every_sextic_mod_3_and_5(p):
    # every monic sextic, separable or not.  These are the primes where a
    # count of at most 6 is not its residue: at p = 3 the traces cannot tell
    # 0 roots from 3, nor 2 n2 = 0 from 6; at p = 5 they read N1 only up to
    # 4, as five roots in F_5 would leave a sixth, repeated
    found: Counter = Counter()
    for n in range(p**6):
        f = [n // p**i % p for i in range(6)] + [1]
        separable = naive_gcd_degree(f, naive_derivative(f, p), p) == 0
        try:
            got = degree_pattern(mod_poly(p, f))
        except NotSeparableError:
            assert not separable, f
            continue
        assert separable and got == naive_degree_pattern(f, p), f
        found[got] += 1
    # a pattern with n_d factors of degree d fits prod C(I_d, n_d) squarefree
    # sextics, I_d by Gauss; together they are the p^6 - p^5 squarefree ones
    for parts in PARTITIONS_OF_6:
        want = math.prod(math.comb(_irreducible_count(d, p), parts.count(d)) for d in set(parts))
        assert found[parts] == want, parts
    assert found.total() == p**6 - p**5


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_degree_pattern_refuses_a_forced_repeated_factor(data):
    # f = g^2 h for random monic g and h; the refusal must come from the
    # x^(p^L) = x proof (sextic) or the discriminant (cubic) at every size of p
    p = data.draw(st.sampled_from([3] + KERNEL_PRIMES))
    n = data.draw(st.sampled_from([3, 6]))
    k = data.draw(st.integers(min_value=1, max_value=n // 2))
    residues = st.integers(min_value=0, max_value=p - 1)
    g = [data.draw(residues) for _ in range(k)] + [1]
    h = [data.draw(residues) for _ in range(n - 2 * k)] + [1]
    f = naive_poly_mul(naive_poly_mul(g, g, p), h, p)
    with pytest.raises(NotSeparableError):
        degree_pattern(mod_poly(p, f))


def test_degree_pattern_all_cubics_mod_5():
    p = 5
    checked = 0
    for a in range(p):
        for b in range(p):
            for c in range(p):
                f = mod_poly(p, [c, b, a, 1])
                try:
                    got = degree_pattern(f)
                except NotSeparableError:
                    continue
                want = naive_degree_pattern([c, b, a, 1], p)
                assert got == want, (a, b, c)
                checked += 1
    assert checked > 50


def test_degree_pattern_rejects_repeated_factors():
    p = 7
    cubic = naive_poly_mul([1, 2, 1], [2, 1], p)  # (x+1)^2 (x+2)
    with pytest.raises(NotSeparableError):
        degree_pattern(mod_poly(p, cubic))
    quadratic = [3, 0, 1]  # x^2 + 3 is irreducible mod 7
    sextic = naive_poly_mul(naive_poly_mul(quadratic, quadratic, p), [1, 3, 1], p)
    with pytest.raises(NotSeparableError):
        degree_pattern(mod_poly(p, sextic))
    # only the two degrees in use have kernels, and only odd primes
    with pytest.raises(ValueError):
        degree_pattern(mod_poly(p, [1, 2, 1]))
    with pytest.raises(ValueError):
        degree_pattern(mod_poly(2, [1, 1, 0, 1]))


small_cubics = st.lists(small_fractions, min_size=3, max_size=3).map(
    lambda c: RatPoly.from_coeffs(c + [1])
)


def _lift_discriminant_holds(q: RatPoly) -> bool:
    # every piece from the oracle, which shares no code with the package
    lift = discriminant(inflate_palindromic(q))
    return lift == discriminant(q) ** 2 * rat_evaluate(q, 2) * rat_evaluate(q, -2)


def test_sextic_discriminant_identity_bundles(ctx_a, ctx_b):
    # disc(P) = disc(Q)^2 Q(2) Q(-2): a prime dividing neither disc(Q) nor
    # Q(2)Q(-2) (nor a denominator) keeps P mod p separable, so a good prime
    # never reaches a separability refusal
    for ctx in (ctx_a, ctx_b):
        assert ctx.sextic == inflate_palindromic(ctx.pair.q)
        assert _lift_discriminant_holds(ctx.pair.q)
        assert discriminant(ctx.sextic) == ctx.pair.delta**2 * ctx.pair.delta_prime


@given(small_cubics)
@settings(max_examples=100, deadline=None)
def test_sextic_discriminant_identity(q):
    assert _lift_discriminant_holds(q)
