import concurrent.futures
import math
import pickle
from fractions import Fraction

import pytest

from g2cert import certify
from g2cert.arith import primes_up_to
from g2cert.certify import (
    BOUNDED_SUBGROUPS,
    PREDICTED_PATTERN_DENSITY,
    VERDICT_BOUNDED_NOT_EXCLUDED,
    VERDICT_CERTIFIED,
    VERDICT_EXCLUDED,
    VERDICT_NOT_COXETER,
    Pair,
    certify_prime,
    scan,
)
from g2cert.errors import G2CertError, WitnessMismatchError
from g2cert.poly import RatPoly
from g2cert.reduction import ReductionContext
from g2cert.weyl import WEYL_CLASSES
from oracles import (
    BOUNDED_SUBGROUP_ORDERS,
    inflate_palindromic,
    naive_irreducibles,
    naive_legendre,
    naive_order_of_x,
)

# the primes the certificate's proofs are checked over
PROOF_PRIMES = [p for p in primes_up_to(2 * 10**5) if p >= 7]


def test_subgroup_table_shape():
    # the table's factored constants against the order formulas, row by row
    assert [(label, m) for label, m, _ in BOUNDED_SUBGROUPS] == list(BOUNDED_SUBGROUP_ORDERS.items())
    assert list(BOUNDED_SUBGROUP_ORDERS) == ["2^3.L3(2)", "L2(13)", "G2(2)", "L2(8)", "J1"]


def test_subgroup_applicability():
    applies = {label: cond for label, _, cond in BOUNDED_SUBGROUPS}
    # L2(13) needs 13 to be a square mod p: true at 29, false at 7
    assert applies["L2(13)"](29)
    assert not applies["L2(13)"](7)
    # L2(8) needs 5 to be a square mod p: true at 11, false at 7
    assert applies["L2(8)"](11)
    assert not applies["L2(8)"](7)
    assert applies["J1"](11)
    assert not applies["J1"](29)
    assert applies["G2(2)"](29)
    # every row on every prime 7 <= p <= 3000, against the square sweep
    for p in primes_up_to(3000)[3:]:
        assert applies["2^3.L3(2)"](p) and applies["G2(2)"](p), p
        assert applies["L2(13)"](p) == (naive_legendre(13, p) == 1), p
        assert applies["L2(8)"](p) == (naive_legendre(5, p) == 1), p
        assert applies["J1"](p) == (p == 11), p


def test_unbounded_families_hold_at_most_one_element():
    # The prime-to-p orders of the unbounded maximal subgroups, up to powers
    # of 2, as products of Phi_1 = p - 1, Phi_2 = p + 1, Phi_3 = p^2 + p + 1
    # and Phi_6 = p^2 - p + 1: the maximal parabolic (Levi GL2(p)), SL3(p).2
    # (|SL3(p)| = p^3 (p^2 - 1)(p^3 - 1)), SU3(p).2, SO4+(p) and PGL2(p)
    # (order p (p^2 - 1)).  The element of class 3a has odd order u > 3
    # dividing Phi_3(p); if gcd(Phi_3(p), |M|) <= 3 then u does not divide
    # |M|.  Likewise for the class-6a element, its order and Phi_6(p).
    families = {  # exponents of (Phi_1, Phi_2, Phi_3, Phi_6)
        "maximal parabolic": (2, 1, 0, 0),
        "SL3(p).2": (2, 1, 1, 0),
        "SU3(p).2": (1, 2, 0, 1),
        "SO4+(p)": (2, 2, 0, 0),
        "PGL2(p)": (1, 1, 0, 0),
    }
    # with the five bounded rows they are the ten maximal subgroup classes
    assert len(families) + len(BOUNDED_SUBGROUPS) == 10
    assert not families.keys() & {label for label, _, _ in BOUNDED_SUBGROUPS}
    for p in PROOF_PRIMES:
        phi = (p - 1, p + 1, p * p + p + 1, p * p - p + 1)
        for label, exponents in families.items():
            m = math.prod(f**e for f, e in zip(phi, exponents))
            if label != "SL3(p).2":
                assert math.gcd(phi[2], m) <= 3, (label, p)
            if label != "SU3(p).2":
                assert math.gcd(phi[3], m) <= 3, (label, p)


def test_orders_in_classes_3a_and_6a_are_at_least_7():
    # Q is irreducible mod p exactly in classes 3a and 6a.  An element of
    # order n <= 6 has y = x + 1/x in F_p (n = 1, 2, 3, 4, 6: y is one of
    # 2, -2, -1, 0, 1) or in F_p^2 (n = 5: y^2 + y - 1 = 0), never a root
    # of an irreducible cubic, so OrderTooSmall is unreachable at a good
    # prime.  Checked over every monic irreducible cubic mod small p.
    assert {c.weyl_class for c in WEYL_CLASSES.values() if c.y_pattern == (3,)} == {"3a", "6a"}
    for p in (7, 11, 13):
        cubics = naive_irreducibles(3, p, p**3)
        assert len(cubics) == (p**3 - p) // 3, p
        for q in cubics:
            sextic = inflate_palindromic(RatPoly.from_coeffs(q))
            mod = [int(c) % p for c in sextic.coeffs]
            with pytest.raises(AssertionError, match="within 6 steps"):
                naive_order_of_x(mod, p, 6)


def test_only_l2_13_can_block():
    # u | Phi_3(p) and t | Phi_6(p) are odd, coprime (gcd(Phi_3, Phi_6)
    # divides 2p) and not divisible by 9 (Phi_3(p), Phi_6(p) = 3 mod 9
    # when 3 divides them)
    for p in PROOF_PRIMES:
        f3, f6 = p * p + p + 1, p * p - p + 1
        assert math.gcd(f3, f6) == 1 and f3 % 9 and f6 % 9, p
    blocking = {}
    for label, m, applies in BOUNDED_SUBGROUPS:
        divisors = [d for d in range(5, m + 1, 2) if m % d == 0 and d % 9]
        pairs = [(u, t) for u in divisors for t in divisors if math.gcd(u, t) == 1]
        if label == "J1":
            # J1 occurs only at p = 11, where Phi_3 = 133 = 7 * 19 and
            # Phi_6 = 111 = 3 * 37, and 37 does not divide |J1|
            assert [p for p in PROOF_PRIMES[:200] if applies(p)] == [11]
            pairs = [(u, t) for u, t in pairs if 133 % u == 0 and 111 % t == 0]
        if pairs:
            blocking[label] = pairs
    assert list(blocking) == ["L2(13)"]
    assert (7, 13) in blocking["L2(13)"]


def test_certified_at_29(bundled_pair):
    report = certify_prime(bundled_pair, 29)
    assert report.verdict == VERDICT_CERTIFIED
    assert (report.class_a, report.class_b) == ("3a", "6a")
    assert (report.order_a, report.order_b) == (871, 813)
    labels = [label for label, why in report.excluded_subgroups]
    assert labels == ["2^3.L3(2)", "L2(13)", "G2(2)", "L2(8)"]
    for label, why in report.excluded_subgroups:
        assert why.startswith("excluded")


def test_not_coxeter_at_11(bundled_pair):
    report = certify_prime(bundled_pair, 11)
    assert report.verdict == VERDICT_NOT_COXETER
    assert (report.class_a, report.class_b) == ("6a", "6a")
    assert report.order_a is None


def test_excluded_primes_get_verdict_not_exception(bundled_pair):
    # the small-prime gate fires first, then the named exclusion reasons
    for p in (2, 3, 5):
        report = certify_prime(bundled_pair, p)
        assert report.verdict == VERDICT_EXCLUDED
        assert "outside the certification range" in report.note
    for p, reason in ((71, "RamifiedDiscriminant"), (7321, "RamifiedDiscriminant")):
        report = certify_prime(bundled_pair, p)
        assert report.verdict == VERDICT_EXCLUDED
        assert report.note == reason


def test_small_primes_excluded_even_when_not_in_set(sextic_a, sextic_b):
    # without Steinberg primes neither input excludes 5
    pair = Pair(ReductionContext(sextic_a), ReductionContext(sextic_b))
    assert 5 not in pair.excluded
    report = certify_prime(pair, 5)
    assert report.verdict == VERDICT_EXCLUDED
    assert "outside the certification range" in report.note


def test_order_too_small_branch(bundled_pair, monkeypatch):
    # orders in classes 3a and 6a are at least 7 (proven above), so an
    # order of 3 is a broken witness, not a verdict
    def tiny_order(self, p, cls, *, checked=False):
        return 3

    monkeypatch.setattr(ReductionContext, "order_report", tiny_order)
    with pytest.raises(WitnessMismatchError, match=r"p=29: element orders \(3, 3\)") as raised:
        certify_prime(bundled_pair, 29)
    e = raised.value
    assert (e.p, e.witness, e.expected, e.actual) == (29, "element_orders", 7, (3, 3))
    # a pooled scan's worker raises it in a child process: the parent's copy
    # keeps the message and the context
    copy = pickle.loads(pickle.dumps(e))
    assert type(copy) is WitnessMismatchError
    assert (str(copy), copy.p, copy.witness, copy.expected, copy.actual) == (
        str(e), e.p, e.witness, e.expected, e.actual)

def test_bounded_not_excluded_branch(bundled_pair, monkeypatch):
    # orders 7 and 21 both divide |2^3.L3(2)| = 1344, so the Lagrange
    # argument cannot rule that subgroup out
    fake = {29: iter([7, 21])}

    def fake_order(self, p, cls, *, checked=False):
        return next(fake[p])

    monkeypatch.setattr(ReductionContext, "order_report", fake_order)
    report = certify_prime(bundled_pair, 29)
    assert report.verdict == VERDICT_BOUNDED_NOT_EXCLUDED
    bad = [label for label, why in report.excluded_subgroups if "not excluded" in why]
    assert "2^3.L3(2)" in bad


def test_certify_rejects_dependent_pair(ctx_a):
    with pytest.raises(G2CertError, match="not independent"):
        Pair(ctx_a, ctx_a)


def test_scan_summary_consistency(bundled_pair):
    records = []
    summary = scan(bundled_pair, 2000, record_sink=records.append)
    assert summary.limit == 2000
    assert summary.scanned == len(records)
    assert summary.primes_total == summary.scanned + summary.excluded_count
    assert sum(summary.verdict_counts.values()) == summary.scanned
    assert sum(summary.class_counts_a.values()) == summary.scanned
    assert sum(summary.class_counts_b.values()) == summary.scanned
    assert summary.certified == tuple(
        r.p for r in records if r.verdict == VERDICT_CERTIFIED
    )
    assert summary.pattern_count == sum(
        1 for r in records if {r.class_a, r.class_b} == {"3a", "6a"}
    )
    # records arrive in ascending prime order
    assert [r.p for r in records] == sorted(r.p for r in records)
    assert PREDICTED_PATTERN_DENSITY == Fraction(1, 18)


def test_scan_deterministic_and_parallel_equal(bundled_pair):
    # 1,221 scanned primes in two batches: jobs=2 starts a real pool
    r1, r2, r3 = [], [], []
    s1 = scan(bundled_pair, 10000, record_sink=r1.append)
    s2 = scan(bundled_pair, 10000, record_sink=r2.append)
    s3 = scan(bundled_pair, 10000, record_sink=r3.append, jobs=2)
    assert s1.scanned == 1221
    assert r1 == r2 == r3
    assert s1 == s2 == s3


def test_scan_pool_size_is_clamped(bundled_pair, monkeypatch):
    # a serial stand-in records the pool size scan asks for, so no real
    # pool is started: below 20000 the pair scans 2254 primes in three
    # batches of at most 1000
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # scan imports the pool class when it pools, so the stand-in goes where
    # that import reads it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    for jobs, cpus, want in ((2, 64, 2), (10**5, 64, 3), (10**5, None, 1)):
        monkeypatch.setattr(certify.os, "cpu_count", lambda: cpus)
        records = []
        summary = scan(bundled_pair, 20000, record_sink=records.append, jobs=jobs)
        assert asked[-1] == want, (jobs, cpus)
        assert len(records) == summary.scanned == 2254


def test_scan_certified_orders_present(bundled_pair):
    records = []
    scan(bundled_pair, 500, record_sink=records.append)
    for r in records:
        if r.verdict == VERDICT_CERTIFIED:
            assert r.order_a is not None and r.order_a > 3
            assert r.order_b is not None and r.order_b > 3
        if r.verdict == VERDICT_NOT_COXETER:
            assert r.order_a is None and r.order_b is None
