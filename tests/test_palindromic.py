import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2cert.arith import factor_integer
from g2cert.certify import Pair
from g2cert.errors import G2CertError, NotMonicError, NotPalindromicError, NotSeparableError
from g2cert.palindromic import (
    TAG_D6,
    _cubic_irreducible,
    classify_galois,
    g2_lift_check,
    palindromic_reduce,
    scaled_discriminant,
    separability_check,
    temperedness_check,
    trace_values,
)
from g2cert.poly import RatPoly
from g2cert.reduction import ReductionContext
from oracles import (
    cubic_model,
    discriminant,
    factored_square_kernels,
    inflate_palindromic,
    naive_has_rational_root,
    naive_is_square,
    rat_derivative,
    rat_evaluate,
    rat_mul,
)

F = Fraction


def test_reduce_first_bundle_goldens(ctx_a):
    assert ctx_a.model == (-49, -44, 20, 16)
    assert ctx_a.q.coeffs == (F(-49, 16), F(-11, 4), F(5, 4), F(1))
    assert ctx_a.q_at_2 == F(71, 16)
    assert ctx_a.q_at_minus_2 == F(-9, 16)
    assert ctx_a.delta == F(71 * 199, 2**8)
    assert ctx_a.delta_prime == F(-639, 256)
    assert ctx_a.delta_prime == ctx_a.q_at_2 * ctx_a.q_at_minus_2
    assert ctx_a.square_classes == (71 * 199 * 2**8, -639 * 256)


def test_reduce_second_bundle_goldens(ctx_b):
    assert ctx_b.q.coeffs == (F(-520, 729), F(-572, 243), F(-2, 27), F(1))
    assert ctx_b.q_at_2 == F(2**7 * 13, 3**6)
    assert ctx_b.q_at_minus_2 == F(-(2**6) * 7**2, 3**6)
    assert ctx_b.delta == F(2**14 * 13 * 7321, 3**16)
    assert ctx_b.delta_prime == F(-(2**13) * 7**2 * 13, 3**12)


def test_inflate_reduce_roundtrip_explicit():
    q = RatPoly.from_coeffs([F(-1), F(2), F(3), F(1)])
    sextic = inflate_palindromic(q)
    assert sextic.is_palindromic()
    assert sextic.is_monic()
    assert palindromic_reduce(sextic) == cubic_model(q) == (-1, 2, 3, 1)
    assert ReductionContext(sextic).q == q


random_cubics = st.lists(
    st.fractions(min_value=F(-9), max_value=F(9), max_denominator=8),
    min_size=3,
    max_size=3,
).map(lambda body: RatPoly.from_coeffs(body + [F(1)]))


@given(random_cubics)
@settings(max_examples=200, deadline=None)
def test_inflate_reduce_roundtrip(q):
    assert palindromic_reduce(inflate_palindromic(q)) == cubic_model(q)


@given(random_cubics)
@settings(max_examples=200, deadline=None)
def test_closed_form_discriminant_matches_generic(q):
    # the closed-form cubic discriminant against the oracle's Euclidean resultant
    model = palindromic_reduce(inflate_palindromic(q))
    assert F(scaled_discriminant(model), model[3] ** 6) == discriminant(q)
    at2, atm2 = trace_values(model)
    assert (F(at2, model[3]), F(atm2, model[3])) == (rat_evaluate(q, 2), rat_evaluate(q, -2))


def test_reduce_rejects_bad_inputs():
    with pytest.raises(NotPalindromicError):
        palindromic_reduce(RatPoly.from_coeffs([2, 1, 1, 1, 1, 1, 1]))
    with pytest.raises(NotMonicError):
        palindromic_reduce(RatPoly.from_coeffs([2, 1, 1, 1, 1, 1, 2]))
    with pytest.raises(NotPalindromicError):
        # odd degree cannot be handled
        palindromic_reduce(RatPoly.from_coeffs([1, 1, 1, 1, 1, 1]))
    with pytest.raises(NotPalindromicError):
        # only sextics are reduced
        palindromic_reduce(RatPoly.from_coeffs([1, 1, 1, 1, 1]))


def test_separability():
    good = ReductionContext(inflate_palindromic(RatPoly.from_coeffs([F(-1), F(2), F(3), F(1)])))
    assert separability_check(good.square_classes)
    # (x^2 - 3x + 1)^2 (x^2 + x + 1) is monic palindromic with a repeated
    # root pair, so its reduction is (y - 3)^2 (y + 1) and the discriminant
    # vanishes
    f = RatPoly.from_coeffs([1, -3, 1])
    sextic = rat_mul(rat_mul(f, f), RatPoly.from_coeffs([1, 1, 1]))
    model = palindromic_reduce(sextic)
    assert model == (9, 3, -5, 1)
    at2, atm2 = trace_values(model)
    assert not separability_check((scaled_discriminant(model), at2 * atm2))
    with pytest.raises(NotSeparableError, match=r"^disc\(Q\) = 0"):
        ReductionContext(sextic)


@pytest.mark.parametrize(
    "q",
    [
        RatPoly.from_coeffs([-1, 3, 0, -1]),  # -(y^3 - 3y + 1): roots in (-2, 2), Q(-2) > 0
        RatPoly.from_coeffs([2, -6, 0, 2]),  # 2 (y^3 - 3y + 1)
        RatPoly.from_coeffs([-16, 0, 0, 2]),  # 2 (y^3 - 8): Q(2) = 0, so no sign test is run
        RatPoly.from_coeffs([-1, 0, 1]),  # a monic quadratic
        RatPoly.from_coeffs([1, 0, -3, 0, 1]),  # a monic quartic
    ],
)
def test_hand_built_pairs_outside_monic_cubics_are_refused(q):
    # the checks read the integer model of a monic cubic, and only
    # palindromic_reduce builds one: the lift x^n Q(x + 1/x) of any other Q
    # is refused before a check runs (the sign test would misread the first Q)
    lead = q.coeffs[-1]
    lift = inflate_palindromic(RatPoly.from_coeffs([c / lead for c in q.coeffs]))
    lift = RatPoly.from_coeffs([lead * c for c in lift.coeffs])
    with pytest.raises((NotMonicError, NotPalindromicError)):
        palindromic_reduce(lift)
    with pytest.raises((ValueError, G2CertError)):
        ReductionContext(lift)


def test_temperedness_true_for_bundles(ctx_a, ctx_b):
    assert temperedness_check(ctx_a.model) and ctx_a.tempered
    assert temperedness_check(ctx_b.model) and ctx_b.tempered


def test_temperedness_false_for_root_outside_interval():
    # roots of q are 3, -1, 1: the root at 3 pulls x off the unit circle
    q = RatPoly.from_coeffs([F(3), F(-1), F(-3), F(1)])
    assert not temperedness_check(palindromic_reduce(inflate_palindromic(q)))


def test_temperedness_sign_chain_boundary():
    # q = y (y + 9)(y + 10): q(-2) = -112 < 0, q(2) = 264 > 0, q(0) = 0 with
    # the remaining roots at -9 and -10, far outside [-2, 2].  Checks on the
    # values at -2, 0, 2 alone would pass this; the derivative-sign condition
    # is what catches it.
    q = RatPoly.from_coeffs([F(0), F(90), F(19), F(1)])
    assert not temperedness_check(palindromic_reduce(inflate_palindromic(q)))


def test_temperedness_interior_roots_pass():
    # roots -3/2, 1/2, 1: all inside (-2, 2)
    q = RatPoly.from_coeffs([F(3, 4), F(-7, 4), F(0), F(1)])
    assert temperedness_check(palindromic_reduce(inflate_palindromic(q)))


def test_temperedness_roots_on_one_side_of_zero():
    # Q = y^3 - 11/4 y^2 + 7/4 y - 1/16 satisfies the lift identity
    # a^2 = c + 2b + 4 (121/16 = 1/16 + 14/4 + 4), and its roots lie in
    # (0, 1/2), (1/2, 3/2) and (3/2, 2) by the sign changes checked below.
    # Q'(0) = 7/4 > 0, so a test that asks for Q'(0) < 0 rejects it.
    q = RatPoly.from_coeffs([F(-1, 16), F(7, 4), F(-11, 4), F(1)])
    assert [rat_evaluate(q, t) for t in (0, F(1, 2), F(3, 2), 2)] == [
        F(-1, 16), F(1, 4), F(-1, 4), F(7, 16)
    ]
    assert g2_lift_check(cubic_model(q))
    assert rat_evaluate(rat_derivative(q), 0) > 0
    ctx = ReductionContext(inflate_palindromic(q))
    assert temperedness_check(ctx.model)
    assert ctx.tag == TAG_D6


def _root_test_cubics() -> list[tuple[RatPoly, bool]]:
    """(monic cubic, built with a rational root) over small denominators.

    Half are (y - r)(y^2 + s y + t), with r such as 3/4 and s, t over 16,
    so the root is rational but not an integer; the other half have
    random coefficients and are mostly irreducible.
    """
    rng = random.Random(20140612)

    def rat(dens):
        return F(rng.randint(-40, 40), rng.choice(dens))

    out = [(RatPoly.from_coeffs([F(21, 64), F(-7, 16), F(-3, 4), 1]), True)]  # (y - 3/4)(y^2 - 7/16)
    for _ in range(60):
        r, s, t = rat((1, 2, 3, 4, 8, 16)), rat((16,)), rat((16,))
        # (y - r)(y^2 + s y + t) = y^3 + (s - r) y^2 + (t - r s) y - r t
        out.append((RatPoly.from_coeffs([-r * t, t - r * s, s - r, 1]), True))
        out.append((RatPoly.from_coeffs([rat((1, 2, 4, 16, 27)) for _ in range(3)] + [1]), None))
    return out


def _small_cubics():
    # every monic cubic with coefficients in {-7, ..., 7} / den: roots at,
    # beside and between the critical points, double and triple roots, and
    # a monotone F among them; a critical point's bracket one off, or a
    # search bound below the largest coefficient, misses some of these roots
    for den in (1, 2):
        for c in itertools.product(range(-7, 8), repeat=3):
            yield RatPoly.from_coeffs([F(k, den) for k in c] + [1]), None


def test_cubic_root_test_matches_oracle():
    irreducible = 0
    for q, built_reducible in itertools.chain(_root_test_cubics(), _small_cubics()):
        has_root = naive_has_rational_root(list(q.coeffs))
        if built_reducible:
            assert has_root, q
        assert _cubic_irreducible(cubic_model(q)) == (not has_root), q
        irreducible += not has_root
    assert 0 < irreducible < 121 + 2 * 15**3


def test_cubic_root_test_matches_sympy():
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    for q, _ in _root_test_cubics():
        expr = sum(sympy.Rational(c.numerator, c.denominator) * y**k for k, c in enumerate(q.coeffs))
        assert _cubic_irreducible(cubic_model(q)) == sympy.Poly(expr, y, domain="QQ").is_irreducible, q


def test_lift_identity_bundles(ctx_a, ctx_b):
    assert g2_lift_check(ctx_a.model) and ctx_a.unit_product
    assert g2_lift_check(ctx_b.model) and ctx_b.unit_product


def test_lift_identity_fails_generic():
    q = RatPoly.from_coeffs([F(1), F(1), F(1), F(1)])
    assert not g2_lift_check(cubic_model(q))


def test_classification_bundles(ctx_a, ctx_b):
    for ctx in (ctx_a, ctx_b):
        assert ctx.tag == TAG_D6
        assert classify_galois(ctx.model, ctx.square_classes) == (ctx.tag, ctx.evidence)


def test_classification_rejects_square_discriminant():
    # y^3 - 3y + 1 has discriminant 81, a square; Galois group C3, not S3
    q = RatPoly.from_coeffs([F(1), F(-3), F(0), F(1)])
    ctx = ReductionContext(inflate_palindromic(q))
    assert ctx.tag != TAG_D6
    assert ctx.evidence["delta_nonsquare"] is False


def test_ramified_primes_bundles(ctx_a, ctx_b):
    assert ctx_a.ramified == {q for n in ctx_a.square_classes for q in factor_integer(n)} == {2, 3, 71, 199}
    assert ctx_b.ramified == {2, 3, 7, 13, 7321}


def test_independence_bundles(ctx_a, ctx_b):
    # the kernel sets do not meet, so Pair accepts the bundled inputs
    assert ctx_a.square_kernels == frozenset({14129, -71, -199})
    assert ctx_b.square_kernels == frozenset({95173, -26, -14642})
    assert not ctx_a.square_kernels & ctx_b.square_kernels
    Pair(ctx_a, ctx_b)


@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=9), min_size=3, max_size=3))
@example([F(-4), F(-4), F(-4)])  # delta_prime a square
@example([F(4), F(-1), F(-4)])  # delta a square
@example([F(0), F(-3), F(-4)])  # only the product a square
@example([F(-1), F(-4), F(-3)])  # all three squares
@settings(max_examples=200, deadline=None)
def test_square_evidence_matches_oracle(body):
    # squareness read off two kernels agrees with integer square roots
    try:
        ctx = ReductionContext(inflate_palindromic(RatPoly.from_coeffs(body + [F(1)])))
    except NotSeparableError:
        return
    d, dp = ctx.delta, ctx.delta_prime
    evidence = ctx.evidence
    assert evidence["delta_nonsquare"] == (not naive_is_square(d))
    assert evidence["delta_prime_nonsquare"] == (not naive_is_square(dp))
    assert evidence["product_nonsquare"] == (not naive_is_square(d * dp))
    # the kernel of v is the one squarefree k with v / k a rational square
    values, kernels = (d, dp, d * dp), ctx.square_kernels
    assert kernels == factored_square_kernels(ctx)
    assert all(all(e == 1 for e in factor_integer(k).values()) for k in kernels)
    assert all(any(naive_is_square(v / k) for k in kernels) for v in values)
    assert all(any(naive_is_square(v / k) for v in values) for k in kernels)
