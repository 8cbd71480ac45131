from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2cert.arith import is_prime, primes_up_to
from g2cert.errors import NotSeparableError
from g2cert.poly import (
    RatPoly,
    _cubic_pattern,
    _cubic_ring,
    _dickson,
    _frobenius,
    _sextic_pattern,
    cubic_discriminant,
    deflate_root_one,
    format_poly,
)
from oracles import (
    KERNEL_PRIMES,
    _degree_pattern,
    discriminant,
    inflate_palindromic,
    mod_poly,
    naive_degree_pattern,
    naive_derivative,
    naive_gcd_degree,
    naive_poly_mod,
    naive_poly_mul,
    naive_pow_x_mod,
    rat_coeff,
    rat_derivative,
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
    coeff_sums = [rat_coeff(bq, i) + rat_coeff(r, i) for i in range(n)]
    assert coeff_sums == [rat_coeff(a, i) for i in range(n)]
    assert not r.coeffs or r.degree < b.degree


def test_eval_and_derivative():
    f = RatPoly.from_coeffs([Fraction(-49, 16), Fraction(-11, 4), Fraction(5, 4), 1])
    assert rat_evaluate(f, 2) == Fraction(71, 16)
    assert rat_evaluate(f, -2) == Fraction(-9, 16)
    d = rat_derivative(f)
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
    # a negative leading coefficient prints a bare "-", later ones " - "
    assert format_poly((Fraction(1, 2), 0, Fraction(-3, 7)), "x") == "-3/7*x^2 + 1/2"
    assert format_poly((-5, 2, -1), "x") == "-x^2 + 2*x - 5"
    # a coefficient of +-1 drops its "1" except at degree 0
    assert format_poly((1, 1, 1, 1), "x") == "x^3 + x^2 + x + 1"
    assert format_poly((-1, -1, -1, -1), "x") == "-x^3 - x^2 - x - 1"
    assert format_poly((-1,), "x") == "-1"
    assert format_poly((1,), "x") == "1"
    assert format_poly((0, -1), "x") == "-x"
    assert format_poly((Fraction(-1), 0, Fraction(1)), "x") == "x^2 - 1"
    # plain ints print as Fractions do
    assert format_poly((-12, 0, 0, 7), "x") == "7*x^3 - 12"
    assert format_poly((Fraction(-12), 0, 0, Fraction(7)), "x") == "7*x^3 - 12"
    # the zero polynomial, empty or all zeros
    assert format_poly((), "x") == "0"
    assert format_poly((0, 0, 0), "x") == "0"
    assert format_poly((Fraction(0),), "x") == "0"
    # the variable is the caller's
    assert format_poly((1, -1, 1), "q") == "q^2 - q + 1"
    assert format_poly((0, 3, 0, -2), "q") == "-2*q^3 + 3*q"


def _pad(a: list[int], n: int) -> tuple[int, ...]:
    return tuple(a) + (0,) * (n - len(a))


def _naive_power(base: list[int], e: int, f: list[int], p: int) -> tuple[int, ...]:
    """base^e mod monic f by binary powering on schoolbook products, deg f coefficients."""
    acc = [1]
    while e:
        if e & 1:
            acc = naive_poly_mod(naive_poly_mul(acc, base, p), f, p)
        base = naive_poly_mod(naive_poly_mul(base, base, p), f, p)
        e >>= 1
    return _pad(acc, len(f) - 1)


def _naive_frobenius(f: list[int], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(y^p, (y^2 - 4)^((p-1)/2)) mod monic cubic f, each by its own powering."""
    return _naive_power([0, 1], p, f, p), _naive_power([-4 % p, 0, 1], (p - 1) // 2, f, p)


def _palindromic_mod(q: list[int], p: int) -> list[int]:
    """x^3 Q(x + 1/x) mod p for a monic cubic Q, by the oracle's lift."""
    lift = inflate_palindromic(RatPoly.from_coeffs(q))
    return [int(c) % p for c in lift.coeffs]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_cubic_mul_matches_naive(data):
    # the straight-line product against schoolbook multiply-then-reduce
    p = data.draw(st.sampled_from(KERNEL_PRIMES))
    residues = st.integers(min_value=0, max_value=p - 1)
    f = [data.draw(residues) for _ in range(3)] + [1]
    a = [data.draw(residues) for _ in range(3)]
    b = [data.draw(residues) for _ in range(3)]
    mul = _cubic_ring(p, f)
    assert mul(tuple(a), tuple(b)) == _pad(naive_poly_mod(naive_poly_mul(a, b, p), f, p), 3)
    assert mul(tuple(a), tuple(a)) == _pad(naive_poly_mod(naive_poly_mul(a, a, p), f, p), 3)
    # unreduced inputs give canonical output
    shifted = tuple(c - 2 * p for c in a)
    assert mul(shifted, tuple(b)) == mul(tuple(a), tuple(b))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_pow_x_matches_naive(data):
    # one pass over the bits of p gives y^p and (y^2 - 4)^((p-1)/2), here at
    # primes up to the largest below 10^12
    p = data.draw(st.sampled_from(KERNEL_PRIMES))
    f = [data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(3)] + [1]
    assert _frobenius(p, f) == _naive_frobenius(f, p), (p, f)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_frobenius_every_cubic_mod_small_primes(p):
    # every monic cubic mod 3, 5 and 7, where the pass has 0, 1 and 1 bits
    # before U is read
    for k in range(p**3):
        f = [k // p**i % p for i in range(3)] + [1]
        assert _frobenius(p, f) == _naive_frobenius(f, p), f


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_tower_frobenius_is_x_to_the_p(data):
    # in R[x]/(x^2 - yx + 1), R = F_p[y]/(Q), with V = y^p, U = (y^2 - 4)^((p-1)/2)
    # and z = x - 1/x: z^p = U z, so x^p = (V + U z)/2 = (V - yU)/2 + U x;
    # mapped back to F_p[x]/(P) by y -> x + 1/x these are z^p and x^p mod P
    p = data.draw(st.sampled_from(KERNEL_PRIMES))
    q = [data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(3)] + [1]
    sextic = _palindromic_mod(q, p)
    v, u = _frobenius(p, q)
    yu = _pad(naive_poly_mod(naive_poly_mul([0, 1], list(u), p), q, p), 3)
    a = [(vi - yi) * pow(2, -1, p) % p for vi, yi in zip(v, yu)]
    # 1/x = -(f1 + f2 x + ... + x^5), as P = 1 + x (f1 + f2 x + ... + x^5)
    inverse = [-c % p for c in sextic[1:]]
    y = list(inverse)
    y[1] = (y[1] + 1) % p
    z = [-c % p for c in inverse]
    z[1] = (z[1] + 1) % p

    def at_y(r):  # r(x + 1/x) mod P, by Horner
        acc = [0]
        for c in reversed(r):
            acc = naive_poly_mod(naive_poly_mul(acc, y, p), sextic, p)
            acc[0] = (acc[0] + c) % p
        return _pad(acc, 6)

    uz = _pad(naive_poly_mod(naive_poly_mul(list(at_y(u)), z, p), sextic, p), 6)
    assert _naive_power(z, p, sextic, p) == uz, (p, q)
    x_p = _pad(naive_pow_x_mod(sextic, p, p), 6)
    half = pow(2, -1, p)
    assert tuple((s + t) * half % p for s, t in zip(at_y(v), uz)) == x_p, (p, q)
    ux = _pad(naive_poly_mod(naive_poly_mul(list(at_y(u)), [0, 1], p), sextic, p), 6)
    got = tuple((s + t) % p for s, t in zip(at_y(a), ux))
    assert got == x_p, (p, q)


# a squarefree palindromic sextic has its roots in pairs x, 1/x with x != +-1
# (a root at 1 or -1 is repeated), so an even number of linear factors: of
# the 11 partitions of 6, (1, 5), (1, 2, 3) and (1, 1, 1, 3) cannot occur
REACHABLE_PATTERNS = {
    (6,), (2, 4), (3, 3), (1, 1, 4), (2, 2, 2), (1, 1, 2, 2), (1, 1, 1, 1, 2), (1, 1, 1, 1, 1, 1),
}


def _good_primes_above(ctx, n: int, count: int) -> list[int]:
    out = []
    while len(out) < count:
        n += 1
        if is_prime(n) and ctx.exclusion(n) is None:
            out.append(n)
    return out


def test_dickson_at_p_is_the_frobenius_image(ctx_a, ctx_b):
    # D_p(y) = y^p in characteristic p: the Dickson ladder and the Frobenius
    # pass are two ladders in F_p[y]/(Q), and where they overlap they agree
    for ctx in (ctx_a, ctx_b):
        good = [p for p in primes_up_to(20000) if ctx.exclusion(p) is None]
        primes = good + _good_primes_above(ctx, 10**6, 50) + _good_primes_above(ctx, 10**12, 50)
        for p in primes:
            q = ctx._q_mod(p)
            assert _dickson(p, q, (0, 1, 0), p) == _frobenius(p, q)[0], (ctx.q, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_degree_pattern_every_palindromic_sextic(p):
    # every monic palindromic sextic P = x^3 Q(x + 1/x), one for each monic
    # cubic Q, separable or not.  3 and 5 are the primes where a count of at
    # most 6 is not its residue: at p = 3 the traces cannot tell 0 roots from
    # 3, nor 2 n2 = 0 from 6, and at p = 5 they read N1 only up to 4; at
    # p = 11 every reachable pattern occurs
    found = set()
    for k in range(p**3):
        q = [k // p**i % p for i in range(3)] + [1]
        f = _palindromic_mod(q, p)
        separable = naive_gcd_degree(f, naive_derivative(f, p), p) == 0
        # disc(P) = disc(Q)^2 Q(2) Q(-2)
        witness = discriminant(RatPoly.from_coeffs(q)) * rat_evaluate(
            RatPoly.from_coeffs(q), 2) * rat_evaluate(RatPoly.from_coeffs(q), -2)
        assert separable == (witness % p != 0), q
        # once through _degree_pattern and once from the oracle's V, V^2 and U
        v, u = _naive_frobenius(q, p)
        mul = _cubic_ring(p, q)
        given = _sextic_pattern(p, mul, v, mul(v, v), u)
        try:
            got = _degree_pattern(p, mod_poly(p, f))
        except NotSeparableError:
            assert not separable and given is None, f
            continue
        assert separable and got == naive_degree_pattern(f, p), f
        assert given == got, f
        found.add(got)
    assert found <= REACHABLE_PATTERNS
    assert p < 11 or found == REACHABLE_PATTERNS


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_degree_pattern_random_small(data):
    # primes above the exhaustive ones, where the oracle's sweeps stay cheap
    p = data.draw(st.sampled_from([13, 17, 19, 23, 29, 31]))
    q = [data.draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(3)] + [1]
    coeffs = q if data.draw(st.booleans()) else _palindromic_mod(q, p)
    try:
        pattern = _degree_pattern(p, mod_poly(p, coeffs))
    except NotSeparableError:
        assert naive_gcd_degree(coeffs, naive_derivative(coeffs, p), p) > 0, (coeffs, p)
        return
    assert sum(pattern) == len(coeffs) - 1
    assert pattern == naive_degree_pattern(coeffs, p), (coeffs, p)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_degree_pattern_refuses_a_forced_repeated_factor(data):
    # a cubic (x + a)^2 (x + b), and palindromic sextics with a square factor:
    # (x^2 + ax + 1)^2 (x^2 + bx + 1), (g g*)^2 (x^2 + bx + 1) with g = x - r
    # and g* its monic reciprocal, and (x -+ 1)^2 times a palindromic
    # quartic.  The refusal must come from the x^(p^L) = x proof (sextic)
    # or the discriminant (cubic) at every size of p
    p = data.draw(st.sampled_from([3] + KERNEL_PRIMES))
    residues = st.integers(min_value=0, max_value=p - 1)
    a, b = data.draw(residues), data.draw(residues)
    kind = data.draw(st.sampled_from(["cubic", "square", "reciprocal pair", "unit root"]))
    if kind == "cubic":
        f = naive_poly_mul(naive_poly_mul([a, 1], [a, 1], p), [b, 1], p)
    elif kind == "square":
        f = naive_poly_mul(naive_poly_mul([1, a, 1], [1, a, 1], p), [1, b, 1], p)
    elif kind == "reciprocal pair":
        r = data.draw(st.integers(min_value=1, max_value=p - 1))
        pair = naive_poly_mul([-r, 1], [-pow(r, -1, p), 1], p)  # (x - r)(x - 1/r)
        f = naive_poly_mul(naive_poly_mul(pair, pair, p), [1, b, 1], p)
    else:
        s = data.draw(st.sampled_from([1, -1]))
        f = naive_poly_mul([1, -2 * s, 1], [1, a, b, a, 1], p)
    with pytest.raises(NotSeparableError):
        _degree_pattern(p, mod_poly(p, f))


def test_degree_pattern_all_cubics_mod_5():
    p = 5
    checked = 0
    for a in range(p):
        for b in range(p):
            for c in range(p):
                f = mod_poly(p, [c, b, a, 1])
                if naive_gcd_degree(f, naive_derivative(f, p), p):
                    with pytest.raises(NotSeparableError):
                        _degree_pattern(p, f)
                    continue
                # once through _degree_pattern and once from the oracle's V and V^2
                v = _naive_frobenius([c, b, a, 1], p)[0]
                w = _cubic_ring(p, f)(v, v)
                got = _degree_pattern(p, f)
                want = naive_degree_pattern([c, b, a, 1], p)
                assert got == want, (a, b, c)
                assert _cubic_pattern(p, v, w) == want, (a, b, c)
                checked += 1
    assert checked > 50


def test_degree_pattern_rejects_repeated_factors():
    p = 7
    cubic = naive_poly_mul([1, 2, 1], [2, 1], p)  # (x+1)^2 (x+2)
    with pytest.raises(NotSeparableError):
        _degree_pattern(p, mod_poly(p, cubic))
    quadratic = [1, 3, 1]  # x^2 + 3x + 1 is irreducible mod 7
    sextic = naive_poly_mul(naive_poly_mul(quadratic, quadratic, p), [1, 1, 1], p)
    with pytest.raises(NotSeparableError):
        _degree_pattern(p, mod_poly(p, sextic))


@pytest.mark.parametrize("p, coeffs, reason", [
    (7, [1, 2, 1], "degrees 3 and 6"),  # only the two degrees in use have kernels
    (2, [1, 1, 0, 1], "odd p"),
    (4, [1, 1, 0, 1], "odd p"),
    (7, [1, 2, 3, 4], "monic"),
    (7, [2, 1, 3, 5, 3, 1, 2], "monic"),
    (7, [2, 2, 3, 4, 3, 2, 1], "palindromic"),  # each of the three mirror pairs differs
    (7, [1, 2, 3, 4, 3, 6, 1], "palindromic"),
    (7, [1, 2, 3, 4, 5, 2, 1], "palindromic"),
])
def test_degree_pattern_refuses_inputs_outside_its_contract(p, coeffs, reason):
    # a monic cubic or a monic palindromic sextic mod an odd p, and nothing else
    with pytest.raises(ValueError, match=reason):
        _degree_pattern(p, mod_poly(p, coeffs))


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
        assert ctx.sextic == inflate_palindromic(ctx.q)
        assert _lift_discriminant_holds(ctx.q)
        assert discriminant(ctx.sextic) == ctx.delta**2 * ctx.delta_prime


@given(small_cubics)
@settings(max_examples=100, deadline=None)
def test_sextic_discriminant_identity(q):
    assert _lift_discriminant_holds(q)
