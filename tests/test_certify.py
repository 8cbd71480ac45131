from fractions import Fraction

import pytest

from g2cert import certify
from g2cert.certify import (
    BOUNDED_SUBGROUPS,
    MAXIMAL_SUBGROUPS,
    VERDICT_BOUNDED_NOT_EXCLUDED,
    VERDICT_CERTIFIED,
    VERDICT_EXCLUDED,
    VERDICT_NOT_COXETER,
    VERDICT_ORDER_TOO_SMALL,
    Pair,
    certify_prime,
    cyclotomic_value,
    scan,
)
from g2cert.errors import G2CertError
from g2cert.reduction import ElementOrderReport, ReductionContext


def test_cyclotomic_values():
    assert cyclotomic_value(1, 11) == 10
    assert cyclotomic_value(2, 11) == 12
    assert cyclotomic_value(3, 11) == 133
    assert cyclotomic_value(6, 11) == 111
    with pytest.raises(ValueError):
        cyclotomic_value(4, 11)


def test_subgroup_table_shape():
    items = [entry.item for entry in MAXIMAL_SUBGROUPS]
    assert sorted(set(items)) == [1, 2, 3, 4, 5, 6, 7, 8, 9]
    bounded_orders = {entry.label: entry.order_value for entry in BOUNDED_SUBGROUPS}
    assert bounded_orders == {
        "2^3.L3(2)": 1344,
        "L2(13)": 1092,
        "G2(2)": 12096,
        "L2(8)": 504,
        "J1": 175560,
    }
    # factorizations behind the Lagrange constants
    assert 1344 == 2**6 * 3 * 7
    assert 1092 == 2**2 * 3 * 7 * 13
    assert 12096 == 2**6 * 3**3 * 7
    assert 504 == 2**3 * 3**2 * 7
    assert 175560 == 2**3 * 3 * 5 * 7 * 11 * 19


def test_subgroup_applicability():
    by_label = {e.label: e for e in MAXIMAL_SUBGROUPS}
    assert by_label["PGL2(p)"].applicable(7)
    assert not by_label["PGL2(p)"].applicable(5)
    # L2(13) needs 13 to be a square mod p: true at 29, false at 7
    assert by_label["L2(13)"].applicable(29)
    assert not by_label["L2(13)"].applicable(7)
    # L2(8) needs 5 to be a square mod p: true at 11, false at 7
    assert by_label["L2(8)"].applicable(11)
    assert not by_label["L2(8)"].applicable(7)
    assert by_label["J1"].applicable(11)
    assert not by_label["J1"].applicable(29)
    assert by_label["G2(2)"].applicable(29)


def test_unbounded_orders_prime_to_p():
    by_label = {e.label: e for e in MAXIMAL_SUBGROUPS}
    # SL3(p).2 carries (p-1)^2 (p^2+p+1) away from p
    assert by_label["SL3(p).2"].order_prime_to_p(7) == 36 * 57
    assert by_label["SU3(p).2"].order_prime_to_p(7) == 6 * 8 * 43
    assert by_label["SO4+(p)"].order_prime_to_p(7) == 36 * 64
    assert by_label["PGL2(p)"].order_prime_to_p(7) == 36 * 8


def test_certified_at_29(bundled_pair):
    report = certify_prime(bundled_pair, 29)
    assert report.verdict == VERDICT_CERTIFIED
    assert (report.class_a, report.class_b) == ("3a", "6a")
    assert (report.order_a, report.order_b) == (871, 813)
    # the report carries both order descents, so no caller has to redo them
    assert report.order_report_a.order_divides_torus
    assert report.order_report_b.order_divides_torus
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
    def tiny_order(self, p, cls):
        return ElementOrderReport(p=p, exact_order=3, order_divides_torus=True)

    monkeypatch.setattr(ReductionContext, "order_report", tiny_order)
    report = certify_prime(bundled_pair, 29)
    assert report.verdict == VERDICT_ORDER_TOO_SMALL


def test_bounded_not_excluded_branch(bundled_pair, monkeypatch):
    # orders 7 and 21 both divide |2^3.L3(2)| = 1344, so the Lagrange
    # argument cannot rule that subgroup out
    fake = {29: iter([7, 21])}

    def fake_order(self, p, cls):
        return ElementOrderReport(p=p, exact_order=next(fake[p]), order_divides_torus=True)

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
    assert summary.predicted_density == Fraction(1, 18)


def test_scan_deterministic_and_parallel_equal(bundled_pair):
    r1, r2, r3 = [], [], []
    s1 = scan(bundled_pair, 3000, record_sink=r1.append)
    s2 = scan(bundled_pair, 3000, record_sink=r2.append)
    s3 = scan(bundled_pair, 3000, record_sink=r3.append, jobs=2)
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

    monkeypatch.setattr(certify, "ProcessPoolExecutor", SerialPool)
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
