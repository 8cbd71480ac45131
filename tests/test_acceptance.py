"""Full acceptance sweep for the shipped pipeline.

One test per release checklist item, in order; each ends with a single
PASS line carrying the measured numbers, so a verbose run reads as the
acceptance report.
"""

import functools
import hashlib
import itertools
import time
from collections import Counter
from fractions import Fraction

import pytest

from g2cert.arith import is_prime, primes_up_to
from g2cert.certify import VERDICT_CERTIFIED, Pair, scan
from g2cert.errors import ExcludedPrimeError, NotSeparableError, WitnessMismatchError
from g2cert.palindromic import TAG_D6, classify_galois, g2_lift_check, temperedness_check
from g2cert.weyl import CLASS_LABELS, WEYL_CLASSES, torus_order
from oracles import (
    _degree_pattern,
    ddf_degree_pattern,
    derive_weyl_classes,
    mod_poly,
    naive_degree_pattern,
    naive_derivative,
    naive_gcd_degree,
    naive_order_of_x,
    reduce_rational_coeffs,
)

F = Fraction

WITNESS_PRIME_COUNT = 10**4

# (base, count): the DDF oracle's primes, the first count good primes above base
DDF_HEIGHTS = ((2 * 10**4, 100), (10**6, 100), (10**9, 50), (10**12, 50))


@functools.cache
def _naive_pattern(p: int, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """naive_degree_pattern, computed once per case for the two tests that read it."""
    return naive_degree_pattern(list(coeffs), p)


@pytest.fixture(scope="module")
def witness_sweep(ctx_a, ctx_b):
    """Per polynomial: the first 10^4 good primes with class and exact order."""
    out = {}
    for key, ctx in (("a", ctx_a), ("b", ctx_b)):
        rows = []
        mismatches = 0
        for p in primes_up_to(110000):
            if len(rows) == WITNESS_PRIME_COUNT:
                break
            if p <= 5:
                continue
            try:
                ctx.ensure_good(p)
            except ExcludedPrimeError:
                continue
            try:
                cls = ctx.classify(p)
            except WitnessMismatchError:
                mismatches += 1
                continue
            rows.append((p, cls, ctx.order_report(p, cls)))
        assert len(rows) == WITNESS_PRIME_COUNT
        out[key] = (rows, mismatches)
    return out


def test_a1_golden_reduction_tables(sextic_a, sextic_b):
    t0 = time.perf_counter()
    from g2cert.reduction import ReductionContext

    pa = ReductionContext(sextic_a)
    pb = ReductionContext(sextic_b)
    assert pa.q.coeffs == (F(-49, 16), F(-11, 4), F(5, 4), F(1))
    assert pb.q.coeffs == (F(-520, 729), F(-572, 243), F(-2, 27), F(1))
    assert pa.q_at_2 == F(71, 16)
    assert pa.q_at_minus_2 == F(-9, 16)
    assert pa.delta == F(71 * 199, 2**8)
    assert pb.q_at_2 == F(2**7 * 13, 3**6)
    assert pb.q_at_minus_2 == F(-(2**6) * 7**2, 3**6)
    assert pb.delta == F(2**14 * 13 * 7321, 3**16)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS golden reduction tables reproduced exactly in {elapsed*1000:.1f} ms")


def test_a2_classification_and_independence(ctx_a, ctx_b):
    assert classify_galois(ctx_a.model, ctx_a.square_classes)[0] == ctx_a.tag == TAG_D6
    assert classify_galois(ctx_b.model, ctx_b.square_classes)[0] == ctx_b.tag == TAG_D6
    assert temperedness_check(ctx_a.model)
    assert temperedness_check(ctx_b.model)
    Pair(ctx_a, ctx_b)  # refuses inputs whose square kernels other than 1 meet
    kernels_a, kernels_b = ctx_a.square_kernels - {1}, ctx_b.square_kernels - {1}
    assert not kernels_a & kernels_b
    print(
        "PASS both inputs classify as D6, tempered, with independent "
        f"square classes {sorted(kernels_a)} vs {sorted(kernels_b)}"
    )


def test_a3_lift_identity(ctx_a, ctx_b):
    for ctx in (ctx_a, ctx_b):
        c0, c1, c2, c3 = ctx.q.coeffs
        assert c3 == 1
        a, b, c = -c2, c1, -c0
        assert a * a == c + 2 * b + 4
        assert g2_lift_check(ctx.model) and ctx.unit_product
    print("PASS lift identity a^2 = c + 2b + 4 holds exactly for both cubics")


def test_a4_torus_table():
    expected_polys = {
        "1a": (1, -2, 1),
        "2a": (-1, 0, 1),
        "2b": (-1, 0, 1),
        "2c": (1, 2, 1),
        "3a": (1, 1, 1),
        "6a": (1, -1, 1),
    }
    for label, cls in WEYL_CLASSES.items():
        assert cls.torus_poly == expected_polys[label], label
    derived = derive_weyl_classes()
    assert tuple(c.size for c in derived.values()) == (1, 3, 3, 1, 2, 2)
    assert tuple(c.element_order for c in derived.values()) == (1, 2, 2, 2, 3, 6)
    print("PASS torus polynomial table, class sizes (1,3,3,1,2,2), orders (1,2,2,2,3,6)")


# sha256 of the 10^6 scan's rows (p, class_a, class_b, order_a, order_b,
# verdict), each as a line of the scan's CSV, computed before the sextic
# tower moved to the basis 1, z
SCAN_1E6_ROWS_SHA256 = "7ff88f134392287b82c3f460915c56f41fb3c434e224868ab890f3cb0a3bb0c0"

# the same digest of the 10^5 scan's rows, computed with jobs=1 before the
# trace-cubic re-check of P mod p left classify
SCAN_1E5_ROWS_SHA256 = "80afebfbab20fb2cea6dc3e7fbbe43362f9f7c4446e8c2b874aaae4ebc7511eb"

# the 0.999 quantile of chi^2 with 35 degrees of freedom is about 66.6
JOINT_CHI2_BOUND = 70


def _joint_chi2(class_pairs, sizes: dict[str, int]) -> Fraction:
    """chi^2 of the joint class table against independence, n |C_A| |C_B| / 144, exactly."""
    n = len(class_pairs)
    observed = Counter(class_pairs)
    return sum(
        (Fraction(observed[a, b]) - Fraction(n * sizes[a] * sizes[b], 144)) ** 2
        / Fraction(n * sizes[a] * sizes[b], 144)
        for a in CLASS_LABELS
        for b in CLASS_LABELS
    )


def _scan_rows(pair, limit: int, jobs: int = 1):
    """The scan's summary and its rows (p, class_a, class_b, order_a, order_b, verdict)."""
    rows = []
    summary = scan(pair, limit, jobs=jobs, record_sink=lambda r: rows.append(
        (r.p, r.class_a, r.class_b, r.order_a, r.order_b, r.verdict)))
    return summary, rows


def _rows_sha256(rows) -> str:
    """sha256 of the rows, each as a line of the scan's CSV."""
    text = "".join(",".join("" if v is None else str(v) for v in row) + "\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def test_a5_chebotarev_statistics(bundled_pair):
    t0 = time.perf_counter()
    summary, rows = _scan_rows(bundled_pair, 10**6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"scan took {elapsed:.1f}s, budget is 120s"
    assert _rows_sha256(rows) == SCAN_1E6_ROWS_SHA256
    sizes = {label: cls.size for label, cls in derive_weyl_classes().items()}
    # a fault that correlates the two inputs' classes (a shared cache, a
    # swapped context, batches merged out of order) can keep both marginals
    chi2 = _joint_chi2([(a, b) for _, a, b, *_ in rows], sizes)
    assert chi2 < JOINT_CHI2_BOUND, float(chi2)
    worst = 0.0
    for counts in (summary.class_counts_a, summary.class_counts_b):
        assert sum(counts.values()) == summary.scanned
        for label in CLASS_LABELS:
            freq = counts[label] / summary.scanned
            err = abs(freq - sizes[label] / 12)
            worst = max(worst, err)
            assert err <= 0.01, (label, freq)
    pattern_err = abs(float(summary.pattern_density) - 1 / 18)
    assert pattern_err <= 0.006, summary.pattern_density
    print(
        f"PASS p<=1e6 scan in {elapsed:.1f}s: worst class frequency error "
        f"{worst:.5f} <= 0.01, pattern density {float(summary.pattern_density):.5f} "
        f"vs 1/18 (err {pattern_err:.5f} <= 0.006), joint chi^2 {float(chi2):.1f} "
        f"< {JOINT_CHI2_BOUND}, rows digest pinned"
    )


def test_a5_joint_table_refutes_a_dependent_pair(ctx_a):
    # the control: frobenius2 classified twice at every good prime up to
    # 10^5, a pair that Pair refuses, must fail the joint-table bound
    good = [p for p in primes_up_to(10**5) if p > 5 and ctx_a.exclusion(p) is None]
    class_pairs = [(ctx_a.classify(p).weyl_class, ctx_a.classify(p).weyl_class) for p in good]
    sizes = {label: cls.size for label, cls in derive_weyl_classes().items()}
    chi2 = _joint_chi2(class_pairs, sizes)
    assert chi2 >= JOINT_CHI2_BOUND, float(chi2)
    print(f"PASS dependent control, {len(good)} primes: joint chi^2 {float(chi2):.0f} >= {JOINT_CHI2_BOUND}")


def test_a5_pooled_scan_keeps_the_rows_and_the_joint_table(bundled_pair):
    # jobs=2 cuts the 9,584 primes into batches over a real pool; a batch
    # merged out of order or a context swapped in a worker changes the digest,
    # and one that correlates the two inputs' classes fails the table too
    summary, rows = _scan_rows(bundled_pair, 10**5, jobs=2)
    assert len(rows) == summary.scanned == 9584
    assert _rows_sha256(rows) == SCAN_1E5_ROWS_SHA256
    sizes = {label: cls.size for label, cls in derive_weyl_classes().items()}
    chi2 = _joint_chi2([(a, b) for _, a, b, *_ in rows], sizes)
    assert chi2 < JOINT_CHI2_BOUND, float(chi2)
    print(f"PASS pooled p<=1e5 scan: rows digest pinned, joint chi^2 {float(chi2):.1f} < {JOINT_CHI2_BOUND}")


def test_a6_triple_witness_and_order_divisibility(witness_sweep):
    for key in ("a", "b"):
        rows, mismatches = witness_sweep[key]
        assert mismatches == 0
        assert len(rows) == WITNESS_PRIME_COUNT
        for p, cls, order in rows:
            assert cls is WEYL_CLASSES[cls.weyl_class]
            assert torus_order(cls.weyl_class, p) % order == 0, (p, cls.weyl_class, order)
    print(
        f"PASS {WITNESS_PRIME_COUNT} primes per polynomial: zero witness "
        "mismatches, exact order divides the torus order in 100% of cases"
    )


def test_a7_oracle_equivalence(ctx_a, ctx_b):
    pattern_checks = 0
    inseparable_checks = 0
    for ctx in (ctx_a, ctx_b):
        sextic = ctx.sextic
        cubic_coeffs = list(ctx.q.coeffs)
        sextic_coeffs = list(sextic.coeffs)
        for p in primes_up_to(199):
            if p < 7:
                continue
            try:
                cubic_mod = reduce_rational_coeffs(cubic_coeffs, p)
                sextic_mod = reduce_rational_coeffs(sextic_coeffs, p)
            except ZeroDivisionError:
                continue
            for coeffs in (cubic_mod, sextic_mod):
                f = mod_poly(p, coeffs)
                try:
                    got = _degree_pattern(p, f)
                except NotSeparableError:
                    # a refusal is only correct when the polynomial really
                    # has a repeated factor; Euclid is the referee
                    d = naive_derivative(coeffs, p)
                    assert naive_gcd_degree(coeffs, d, p) > 0, (p, coeffs)
                    inseparable_checks += 1
                    continue
                assert got == _naive_pattern(p, tuple(coeffs)), (p, coeffs)
                pattern_checks += 1
    # 43 primes in [7, 199] x 2 polynomials x (cubic + sextic); the split
    # is pinned so a silently skipped case cannot hide
    assert pattern_checks + inseparable_checks == 172
    assert inseparable_checks == 7
    order_checks = 0
    for ctx in (ctx_a, ctx_b):
        sextic = ctx.sextic
        for p in primes_up_to(200):
            try:
                ctx.ensure_good(p)
            except (ExcludedPrimeError, ValueError):
                continue
            cls = ctx.classify(p)
            got = ctx.order_report(p, cls)
            mod = reduce_rational_coeffs(list(sextic.coeffs), p)
            want = naive_order_of_x(mod, p, (p + 1) ** 2 + 1)
            assert got == want, (p, got, want)
            order_checks += 1
    print(
        f"PASS oracle equivalence: {pattern_checks} factorization patterns, "
        f"{inseparable_checks} inseparable refusals, {order_checks} exact orders, "
        "zero mismatches"
    )


def test_a7_ddf_oracle_at_scan_heights(ctx_a, ctx_b):
    # the schoolbook DDF first meets the exhaustive oracle on test_a7's cases
    separable = 0
    for ctx in (ctx_a, ctx_b):
        for p in primes_up_to(199):
            if p < 7:
                continue
            for coeffs in (reduce_rational_coeffs(list(f.coeffs), p) for f in (ctx.q, ctx.sextic)):
                if naive_gcd_degree(coeffs, naive_derivative(coeffs, p), p) > 0:
                    with pytest.raises(NotSeparableError):
                        ddf_degree_pattern(coeffs, p)
                    continue
                assert ddf_degree_pattern(coeffs, p) == _naive_pattern(p, tuple(coeffs)), (p, coeffs)
                separable += 1
    assert separable == 165
    # then it referees classify's row where the exhaustive oracle cannot go:
    # the y-pattern of Q mod p and the x-pattern of P mod p, from the Fractions
    checks = 0
    for ctx in (ctx_a, ctx_b):
        seen = Counter()
        for base, count in DDF_HEIGHTS:
            good = (p for p in itertools.count(base + 1) if is_prime(p) and ctx.exclusion(p) is None)
            for p in itertools.islice(good, count):
                row = ctx.classify(p)
                q_mod = reduce_rational_coeffs(list(ctx.q.coeffs), p)
                p_mod = reduce_rational_coeffs(list(ctx.sextic.coeffs), p)
                assert ddf_degree_pattern(q_mod, p) == row.y_pattern, (p, row.weyl_class)
                assert ddf_degree_pattern(p_mod, p) == row.x_pattern, (p, row.weyl_class)
                seen[row.weyl_class] += 1
        assert set(seen) == set(CLASS_LABELS), seen
        checks += sum(seen.values())
    assert checks == 2 * sum(count for _, count in DDF_HEIGHTS)
    print(f"PASS DDF oracle: {separable} patterns at p <= 199, {checks} good primes above 2*10^4 to 10^12")


def test_a8_stickelberger_parity(witness_sweep):
    split_patterns = {(1, 1, 1), (3,)}
    for key in ("a", "b"):
        rows, _ = witness_sweep[key]
        for p, cls, _order in rows:
            even_pattern = cls.y_pattern in split_patterns
            assert (cls.chi_delta == 1) == even_pattern, (p, cls)
    print(
        f"PASS Stickelberger parity over {2 * WITNESS_PRIME_COUNT} primes: "
        "chi(delta) = +1 exactly on even permutation patterns {1,1,1} and {3}"
    )


def test_a9_certification_soundness_replay(bundled_pair, ctx_a, ctx_b):
    records = []
    summary = scan(bundled_pair, 10**5, record_sink=records.append)
    certified = [r for r in records if r.verdict == VERDICT_CERTIFIED]
    assert len(certified) == len(summary.certified) > 0
    for r in certified:
        # condition 1: the pair of classes is the Coxeter pairing
        assert {r.class_a, r.class_b} == {"3a", "6a"}
        # condition 2: recomputed orders agree and exceed 3
        for ctx, cls_label, order in (
            (ctx_a, r.class_a, r.order_a),
            (ctx_b, r.class_b, r.order_b),
        ):
            cls = ctx.classify(r.p)
            assert cls.weyl_class == cls_label
            fresh = ctx.order_report(r.p, cls)
            assert fresh == order
            assert order > 3
        ord_u = r.order_a if r.class_a == "3a" else r.order_b
        ord_t = r.order_b if r.class_a == "3a" else r.order_a
        # condition 3: Lagrange exclusion of every applicable bounded
        # subgroup; element orders here are odd, so divisibility into the
        # full order is equivalent to divisibility into these parts
        constants = [21, 189]
        if pow(13, (r.p - 1) // 2, r.p) == 1:
            constants.append(273)
        if r.p % 9 in (1, 8):
            constants.append(63)
        if r.p == 11:
            constants.append(43890)
        assert ord_u % 2 == 1 and ord_t % 2 == 1
        for c in constants:
            assert not (c % ord_u == 0 and c % ord_t == 0), (r.p, c)
    print(
        f"PASS certification replay: all {len(certified)} certified primes "
        f"below 1e5 satisfy the three conditions, including Lagrange "
        f"exclusion with constants 21, 273, 189, 63, 43890"
    )
