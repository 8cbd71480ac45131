import pickle
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2cert import reduction
from g2cert.arith import factor_integer, is_prime, primes_up_to
from g2cert.errors import ExcludedPrimeError, G2CertError, WitnessMismatchError
from g2cert.poly import RatPoly, _degree_pattern
from g2cert.reduction import (
    REASON_DENOMINATOR,
    REASON_EVEN,
    REASON_RAMIFIED,
    REASON_STEINBERG,
    ReductionContext,
    _dickson,
    frobenius_class,
)
from g2cert.weyl import FROBENIUS_LOOKUP, WEYL_CLASSES, torus_order
from oracles import (
    KERNEL_PRIMES,
    cofactor_descent_order,
    derive_weyl_classes,
    inflate_palindromic,
    mod_poly,
    naive_degree_pattern,
    naive_legendre,
    naive_order_of_x,
    naive_poly_mod,
    naive_poly_mul,
    naive_pow_x_mod,
    reduce_rational_coeffs,
)

# classification table for the first bundle, frozen after being computed
# once and cross-checked below against the exhaustive oracle
FROZEN_A = {
    7: ("2b", (1, 2), -1, -1, 48, 24),
    11: ("6a", (3,), -1, 1, 111, 37),
    13: ("2b", (1, 2), -1, -1, 168, 21),
    17: ("6a", (3,), -1, 1, 273, 273),
    19: ("2a", (1, 2), 1, -1, 360, 120),
    23: ("2b", (1, 2), -1, -1, 528, 176),
    29: ("3a", (3,), 1, 1, 871, 871),
}


def test_frozen_classification_table(sextic_a, ctx_a):
    for p, (label, pattern, chi_dp, chi_d, torus, order) in FROZEN_A.items():
        cls = frobenius_class(sextic_a, p)
        assert cls.weyl_class == label, p
        assert cls.y_pattern == pattern, p
        assert cls.chi_delta_prime == chi_dp, p
        assert cls.chi_delta == chi_d, p
        assert torus_order(cls.weyl_class, p) == torus, p
        assert ctx_a.order_report(p, cls) == order, p
        assert torus % order == 0, p


def test_frozen_table_against_oracle(ctx_a):
    for p, (label, pattern, chi_dp, chi_d, torus, order) in FROZEN_A.items():
        cubic = reduce_rational_coeffs(list(ctx_a.q.coeffs), p)
        assert naive_degree_pattern(cubic, p) == pattern, p
        dp = ctx_a.delta_prime
        assert naive_legendre(dp.numerator * dp.denominator, p) == chi_dp, p
        d = ctx_a.delta
        assert naive_legendre(d.numerator * d.denominator, p) == chi_d, p
        sextic = reduce_rational_coeffs(list(ctx_a.sextic.coeffs), p)
        assert naive_order_of_x(sextic, p, (p + 1) ** 2 + 1) == order, p


def test_classify_returns_the_verified_table_row(ctx_a, ctx_b):
    # the row itself, not a copy, at every good prime to 10^4: its label is
    # looked up by the oracle's y-pattern and chi(delta') in the table the
    # group model derives, apart from weyl.py
    by_witnesses = {(c.pattern_on_y, c.epsilon_prime): label for label, c in derive_weyl_classes().items()}
    cases = 0
    for ctx in (ctx_a, ctx_b):
        dp = ctx.delta_prime
        for p in primes_up_to(10**4):
            if p == 2 or ctx.exclusion(p) is not None:
                continue
            cubic = reduce_rational_coeffs(list(ctx.q.coeffs), p)
            chi_dp = naive_legendre(dp.numerator * dp.denominator, p)
            label = by_witnesses[(naive_degree_pattern(cubic, p), chi_dp)]
            assert ctx.classify(p) is WEYL_CLASSES[label], p
            cases += 1
    assert cases == 2447


def test_x_pattern_against_oracle(sextic_a, sextic_b):
    for sextic in (sextic_a, sextic_b):
        for p in (11, 17, 19, 23, 29, 31):
            cls = frobenius_class(sextic, p)
            mod = reduce_rational_coeffs(list(sextic.coeffs), p)
            assert cls.x_pattern == naive_degree_pattern(mod, p), (p, sextic)


def test_classify_at_3_and_5_on_a_real_input():
    # Q = y^3 - a y^2 + b y - c with a = -7/4, b = -11/4 and c = a^2 - 2b - 4
    # = 73/16 (the lift identity) is D6 and tempered, and its bad primes are
    # 2, 11 and 79, so classify reaches p = 3, where 3 = 6 = 0 hides factor
    # counts from the Frobenius traces, and p = 5
    a, b = F(-7, 4), F(-11, 4)
    q = RatPoly.from_coeffs([-(a * a - 2 * b - 4), b, -a, 1])
    ctx = ReductionContext(inflate_palindromic(q))
    assert ctx.tag == "D6" and ctx.tempered
    assert tuple(ctx.excluded) == (2, 11, 79)
    d, dp = ctx.delta, ctx.delta_prime
    for p, label in ((3, "6a"), (5, "3a")):
        cls = ctx.classify(p)
        assert cls.weyl_class == label, p
        assert cls.y_pattern == naive_degree_pattern(reduce_rational_coeffs(list(q.coeffs), p), p)
        sextic = reduce_rational_coeffs(list(ctx.sextic.coeffs), p)
        assert cls.x_pattern == naive_degree_pattern(sextic, p), p
        assert cls.chi_delta == naive_legendre(d.numerator * d.denominator, p), p
        assert cls.chi_delta_prime == naive_legendre(dp.numerator * dp.denominator, p), p
        assert ctx.order_report(p, cls) == naive_order_of_x(sextic, p, p**3), p


def test_excluded_primes_first_bundle(ctx_a):
    assert ctx_a.excluded == {
        2: REASON_DENOMINATOR,
        3: REASON_RAMIFIED,
        5: REASON_STEINBERG,
        71: REASON_RAMIFIED,
        199: REASON_RAMIFIED,
    }
    assert tuple(ctx_a.excluded) == (2, 3, 5, 71, 199)


def test_excluded_primes_second_bundle(ctx_b):
    ex = ctx_b.excluded
    assert tuple(ex) == (2, 3, 5, 7, 13, 7321)
    assert ex[3] == REASON_DENOMINATOR
    assert ex[2] == REASON_RAMIFIED
    assert ex[7321] == REASON_RAMIFIED


def test_excluded_primes_rejects_composite_steinberg(sextic_a):
    with pytest.raises(ValueError):
        ReductionContext(sextic_a, 6)


def test_excluded_prime_set_union(bundled_pair):
    # the pair excludes what either input excludes, in ascending p
    assert tuple(bundled_pair.excluded) == (2, 3, 5, 7, 13, 71, 199, 7321)
    # the first input's reason wins on overlap: frobenius2 has 2 in a
    # denominator and 3 ramified, frobenius3 the other way round
    assert bundled_pair.excluded[2] == REASON_DENOMINATOR
    assert bundled_pair.excluded[3] == REASON_RAMIFIED
    assert bundled_pair.excluded[5] == REASON_STEINBERG
    assert bundled_pair.excluded[7] == REASON_RAMIFIED


def test_bad_primes_raise_typed_errors(sextic_a):
    # intrinsic exclusion beats the oddness check: 2 divides a denominator
    with pytest.raises(ExcludedPrimeError) as exc2:
        frobenius_class(sextic_a, 2)
    assert exc2.value.reason == REASON_DENOMINATOR
    with pytest.raises(ExcludedPrimeError) as exc71:
        frobenius_class(sextic_a, 71)
    assert exc71.value.reason == REASON_RAMIFIED
    with pytest.raises(ValueError):
        frobenius_class(sextic_a, 4)
    with pytest.raises(ValueError):
        frobenius_class(sextic_a, 9)
    # Q = y^3 + 7/3 y^2 - 4/3 y - 37/9 is D6 and tempered, and 2 divides no
    # denominator, disc(Q) or Q(2)Q(-2); the residue-symbol witness still
    # needs an odd prime
    q = RatPoly.from_coeffs([F(-37, 9), F(-4, 3), F(7, 3), 1])
    ctx = ReductionContext(inflate_palindromic(q))
    assert ctx.tag == "D6"
    assert tuple(ctx.excluded) == (3, 5, 19)
    with pytest.raises(ExcludedPrimeError) as exc_even:
        ctx.classify(2)
    assert exc_even.value.reason == REASON_EVEN


def test_exclusion_is_the_reason_ensure_good_raises(ctx_a):
    # 2 divides a denominator of frobenius2, so that reason wins over EvenPrime
    assert [ctx_a.exclusion(p) for p in (2, 3, 5, 7, 71)] == [
        REASON_DENOMINATOR, REASON_RAMIFIED, REASON_STEINBERG, None, REASON_RAMIFIED
    ]
    q = RatPoly.from_coeffs([F(-37, 9), F(-4, 3), F(7, 3), 1])
    ctx = ReductionContext(inflate_palindromic(q))
    assert [ctx.exclusion(p) for p in (2, 3, 7)] == [REASON_EVEN, REASON_DENOMINATOR, None]
    for p in primes_up_to(200):
        try:
            ctx_a.ensure_good(p)
            raised = None
        except ExcludedPrimeError as e:
            raised = e.reason
        assert raised == ctx_a.exclusion(p), p


def test_excluded_prime_error_survives_pickling(ctx_a):
    # how a pool worker's error would reach the parent
    with pytest.raises(ExcludedPrimeError) as exc:
        ctx_a.classify(71)
    copy = pickle.loads(pickle.dumps(exc.value))
    assert type(copy) is ExcludedPrimeError
    assert (copy.p, copy.reason, copy.args) == (71, REASON_RAMIFIED, exc.value.args)


def test_primes_above_the_proof_bound_are_refused(ctx_a):
    # 10^30 + 3349 is prime, but is_prime is a proof only below psi_13
    with pytest.raises(ValueError, match="need a prime below 3317044064679887385961981"):
        ctx_a.classify(10**30 + 3349)


def test_classify_refuses_every_excluded_prime(bundle_a):
    # one exclusion policy: the Steinberg prime is refused like a ramified one
    ctx = ReductionContext.from_polyfile(replace(bundle_a, steinberg_prime=29))
    assert ctx.excluded[29] == REASON_STEINBERG
    with pytest.raises(ExcludedPrimeError) as exc:
        ctx.classify(29)
    assert exc.value.reason == REASON_STEINBERG
    assert ctx.classify(31).weyl_class == frobenius_class(ctx.sextic, 31).weyl_class


def test_rejects_non_d6_inputs():
    # y^3 - 3y + 1 reduces with square discriminant: wrong Galois type
    # the analysis exists; the per-prime methods refuse it
    q = RatPoly.from_coeffs([1, -3, 0, 1])
    ctx = ReductionContext(inflate_palindromic(q))
    assert ctx.tag != "D6"
    with pytest.raises(G2CertError):
        ctx.classify(7)
    with pytest.raises(G2CertError):
        frobenius_class(ctx.sextic, 7)


def test_naive_order_agreement_sample(sextic_a, sextic_b):
    for sextic in (sextic_a, sextic_b):
        ctx = ReductionContext(sextic)
        for p in (7, 11, 31, 97, 103):
            try:
                ctx.ensure_good(p)
            except ExcludedPrimeError:
                continue
            cls = ctx.classify(p)
            got = ctx.order_report(p, cls)
            mod = reduce_rational_coeffs(list(sextic.coeffs), p)
            assert got == naive_order_of_x(mod, p, (p + 1) ** 2 + 1), (p, sextic)


def test_classification_is_deterministic(sextic_a):
    first = frobenius_class(sextic_a, 101)
    second = frobenius_class(sextic_a, 101)
    assert first == second


def _good_primes_from(ctx, start: int, count: int) -> list[int]:
    out, p = [], start
    while len(out) < count:
        p += 1
        if is_prime(p) and p not in ctx.excluded:
            out.append(p)
    return out


def test_cofactor_descent_near_1e12(ctx_a, ctx_b):
    # x^m = 1 for every root of P exactly when V_m = 2, so the exact order
    # is checked on the sextic side by plain powering of x mod P
    classes = set()
    for ctx in (ctx_a, ctx_b):
        for p in _good_primes_from(ctx, 10**12, 12):
            cls = ctx.classify(p)
            order = ctx.order_report(p, cls)
            classes.add(cls.weyl_class)
            assert torus_order(cls.weyl_class, p) % order == 0, p
            sextic = reduce_rational_coeffs(list(ctx.sextic.coeffs), p)
            assert naive_pow_x_mod(sextic, order, p) == [1], p
            for q in factor_integer(order):
                assert naive_pow_x_mod(sextic, order // q, p) != [1], (p, q)
    assert len(classes) >= 4


def _wrong_torus(monkeypatch, wrong: int) -> None:
    # order_report reads the torus order through this binding
    monkeypatch.setattr(reduction, "torus_order", lambda label, q: wrong)


def test_order_report_raises_off_the_torus(ctx_a, monkeypatch):
    # a torus order that the element's order does not divide is a witness
    # mismatch
    p = 101
    cls = ctx_a.classify(p)
    order = ctx_a.order_report(p, cls)
    # order/q misses the element's order by one factor q, order + 1 by far
    for wrong in (order // max(factor_integer(order)), torus_order(cls.weyl_class, p) + 1):
        _wrong_torus(monkeypatch, wrong)
        with pytest.raises(WitnessMismatchError, match=f"p={p}") as raised:
            ctx_a.order_report(p, cls)
        e = raised.value
        assert (e.p, e.witness, e.expected) == (p, "torus", (2, 0, 0))
        assert len(e.actual) == 3 and e.actual != e.expected


@pytest.mark.parametrize(
    "wrong",
    [
        17,  # a prime: the element's order is 10200
        5**4,  # a prime power that holds the 5-part 25 and nothing else
        10200 // 17 * 43,  # parts 3, 8, 25, 43: only the largest, peeled first, misses 17
    ],
)
def test_order_report_raises_on_each_shape_of_wrong_torus(ctx_a, wrong, monkeypatch):
    # the split chain checks V_T = 2 once, at the end of the smallest
    # part's descent; a miss anywhere in T must still be a witness mismatch
    p = 101
    cls = ctx_a.classify(p)
    assert ctx_a.order_report(p, cls) == 10200
    message = rf"^p={p}: V_{wrong} != 2, so the element of class 2a"
    _wrong_torus(monkeypatch, wrong)
    with pytest.raises(WitnessMismatchError, match=message) as raised:
        ctx_a.order_report(p, cls)
    # actual is V_T itself: the ladder from y to the wrong T lands on it
    f = reduce_rational_coeffs(list(ctx_a.q.coeffs), p)
    v_t = _dickson(p, f, (0, 1, 0), wrong)
    e = raised.value
    assert (e.p, e.witness, e.expected, e.actual) == (p, "torus", (2, 0, 0), v_t)


def test_split_chain_equals_the_per_factor_descent(ctx_a, ctx_b):
    # every good prime to 6*10^4 for both inputs, and 50 above each of 10^9
    # and 10^12, against a descent with one ladder per prime factor of T
    cases = repeated = 0
    seen = set()
    for ctx in (ctx_a, ctx_b):
        small = [p for p in primes_up_to(6 * 10**4) if p > 2 and p not in ctx.excluded]
        large = [p for start in (10**9, 10**12) for p in _good_primes_from(ctx, start, 50)]
        for p in small + large:
            cls = ctx.classify(p)
            f = reduce_rational_coeffs(list(ctx.q.coeffs), p)
            torus = torus_order(cls.weyl_class, p)
            factors = factor_integer(torus)
            assert ctx.order_report(p, cls) == cofactor_descent_order(p, f, torus, factors), p
            seen.add(cls.weyl_class)
            cases += 1
            repeated += p < 6 * 10**4 and max(factors.values()) >= 2
    # 8,384 of the small cases have a repeated prime in T, so leaves with e >= 2 run
    assert (cases, len(seen), repeated) == (12303, 6, 8384)


def test_order_report_checked_skips_only_the_input_checks(ctx_a):
    cls = ctx_a.classify(29)
    assert ctx_a.order_report(29, cls, checked=True) == ctx_a.order_report(29, cls) == 871
    with pytest.raises(ExcludedPrimeError):
        ctx_a.order_report(71, cls)


def test_shared_frobenius_gives_each_witness_its_own_pattern(ctx_a, ctx_b):
    # classify computes y^p once and hands it to both patterns; each must be
    # what _degree_pattern finds on Q mod p and on P mod p when it runs its
    # own ladder, with both reductions done here by the oracle
    for ctx in (ctx_a, ctx_b):
        small = [p for p in primes_up_to(2 * 10**4) if p > 2 and p not in ctx.excluded]
        large = [p for start in (10**6, 10**9, 10**12) for p in _good_primes_from(ctx, start, 50)]
        for p in small + large:
            cls = ctx.classify(p)
            q = mod_poly(p, reduce_rational_coeffs(list(ctx.q.coeffs), p))
            sextic = mod_poly(p, reduce_rational_coeffs(list(ctx.sextic.coeffs), p))
            want = (_degree_pattern(p, q), _degree_pattern(p, sextic))
            assert (cls.y_pattern, cls.x_pattern) == want, p


def test_sextic_in_6a_has_x_to_the_p_cubed_equal_to_its_inverse(ctx_a, ctx_b):
    # _sextic_pattern reads the pattern (6) as x^(p^3) = 1/x instead of
    # x^(p^6) = x; the oracle's schoolbook powering checks that identity at
    # every 6a prime of both inputs
    checked = 0
    for ctx in (ctx_a, ctx_b):
        for p in primes_up_to(2 * 10**4):
            if p == 2 or p in ctx.excluded or ctx.classify(p).weyl_class != "6a":
                continue
            sextic = reduce_rational_coeffs(list(ctx.sextic.coeffs), p)
            power = naive_pow_x_mod(sextic, p**3, p)
            assert naive_poly_mod(naive_poly_mul(power, [0, 1], p), sextic, p) == [1], p
            checked += 1
    assert checked == 755  # pinned, so a silently skipped prime cannot hide


@pytest.mark.parametrize("shift", [{3: 1}, {4: 1}, {5: 1}, {3: 2, 5: 1}])
def test_classify_checks_the_trace_cubic_of_p_against_q(bundle_a, shift):
    # P = x^3 Q(x + 1/x) over Q, so the trace cubic (f3 - 2 f5, f4 - 3, f5, 1)
    # read off P mod p is Q mod p; a change to the coefficients it reads
    # breaks that at every prime (the last shift changes q2 = f5 alone)
    ctx = ReductionContext.from_polyfile(bundle_a)
    ctx.x_num = tuple(c + shift.get(i, 0) for i, c in enumerate(ctx.x_num))
    for p in (7, 101, 999983, 10**12 + 39):
        with pytest.raises(WitnessMismatchError, match=f"p={p}: P mod p has trace cubic") as raised:
            ctx.classify(p)
        e = raised.value
        want = tuple(reduce_rational_coeffs(list(ctx.q.coeffs), p))
        f = [c * pow(ctx.model[3], -1, p) % p for c in ctx.x_num]
        got = ((f[3] - 2 * f[5]) % p, (f[4] - 3) % p, f[5], 1)
        assert (e.p, e.witness, e.expected, e.actual) == (p, "trace_cubic", want, got)
        assert got != want


@pytest.mark.parametrize("index, reason", [
    (0, "palindromic"), (1, "palindromic"), (2, "palindromic"), (6, "monic"),
])
def test_classify_refuses_p_mod_p_off_the_trace_cubic(bundle_a, index, reason):
    # the trace cubic reads only f3, f4 and f5; the monic and palindromic
    # check on P mod p is what ties classify to f0, f1, f2 and f6, so a
    # change to one of them alone is refused at every prime
    ctx = ReductionContext.from_polyfile(bundle_a)
    ctx.x_num = tuple(c + ctx.model[3] * (i == index) for i, c in enumerate(ctx.x_num))
    for p in (7, 101, 999983, 10**12 + 39):
        with pytest.raises(ValueError, match=f"need a {reason} .* \\(mod {p}\\)$"):
            ctx.classify(p)


def _nonresidue(p):
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


@pytest.mark.parametrize("p", [7, 29, 101, 999983])
def test_classify_checks_chi_delta_against_the_class(bundle_a, p):
    # delta times a nonresidue mod p flips chi(delta) alone; the class, read
    # off the y-pattern and chi(delta'), still requires the true symbol
    ctx = ReductionContext.from_polyfile(bundle_a)
    cls = ctx.classify(p)
    nd, nd_prime = ctx.square_classes
    ctx.square_classes = (nd * _nonresidue(p), nd_prime)
    message = rf"^p={p}: chi\(delta\) = {-cls.chi_delta} but class"
    with pytest.raises(WitnessMismatchError, match=message) as raised:
        ctx.classify(p)
    e = raised.value
    assert (e.p, e.witness, e.expected, e.actual) == (p, "chi_delta", cls.chi_delta, -cls.chi_delta)


@pytest.mark.parametrize("p", [7, 29, 101, 999983])
def test_classify_checks_the_x_pattern_against_the_class(bundle_a, p):
    # delta' times a nonresidue mod p flips chi(delta'), so the lookup picks
    # the other class with the same y-pattern and the same chi(delta); the
    # sextic's own pattern, from P mod p, no longer fits it
    ctx = ReductionContext.from_polyfile(bundle_a)
    cls = ctx.classify(p)
    nd, nd_prime = ctx.square_classes
    ctx.square_classes = (nd, nd_prime * _nonresidue(p))
    with pytest.raises(WitnessMismatchError, match=rf"^p={p}: sextic splits as") as raised:
        ctx.classify(p)
    e = raised.value
    want = FROBENIUS_LOOKUP[(cls.y_pattern, -cls.chi_delta_prime)].x_pattern
    assert (e.p, e.witness, e.expected, e.actual) == (p, "x_pattern", want, cls.x_pattern)
    assert want != cls.x_pattern


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_dickson_matches_the_three_term_recurrence(data):
    # V_0 = 2, V_1 = s, V_(k+1) = s V_k - V_(k-1) in F_p[y]/(f), one
    # schoolbook product at a time, against the doubling ladder
    p = data.draw(st.sampled_from(KERNEL_PRIMES))
    residues = st.integers(min_value=0, max_value=p - 1)
    f = [data.draw(residues) for _ in range(3)] + [1]
    s = data.draw(st.one_of(st.just([0, 1, 0]), st.lists(residues, min_size=3, max_size=3)))
    m = data.draw(st.integers(min_value=1, max_value=500))
    previous, current = [2, 0, 0], s
    for _ in range(m - 1):
        step = naive_poly_mod(naive_poly_mul(s, current, p), f, p)
        step += [0] * (3 - len(step))
        previous, current = current, [(a - b) % p for a, b in zip(step, previous)]
    assert _dickson(p, f, tuple(s), m) == tuple(current), (p, f, s, m)
