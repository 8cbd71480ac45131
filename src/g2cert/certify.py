"""Generation certificates over F_p from two independent sextics.

A prime is certified when the two Frobenius elements land in the two
large-torus classes (one of order 3, one of order 6) and Lagrange's
theorem rules out every applicable bounded maximal subgroup of G_2(p).
Both element orders then exceed 3: that is an invariant, not a verdict,
and an order of 3 or less raises WitnessMismatchError.  The unbounded
maximal subgroups need no per-prime work: an element of odd order > 3
dividing p^2+p+1 fits in none of them except the SL_3 normalizer, and
its partner with order dividing p^2-p+1 fits only in the SU_3
normalizer, so the pair jointly escapes all of them.  The bounded ones
are checked explicitly against their constant orders, the one table
below.

tests/test_certify.py checks both steps exhaustively: the unbounded
families against their standard orders over every prime up to 2*10^5,
that the orders in the two classes are at least 7, and that among the
bounded rows only L2(13) can ever contain both elements.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .arith import is_square, primes_up_to, require_proven_prime
from .errors import G2CertError, WitnessMismatchError
from .polyfile import PolyFile
from .reduction import REASON_EVEN, ReductionContext
from .weyl import CLASS_LABELS, WeylClassInfo

VERDICT_CERTIFIED = "Certified"
VERDICT_NOT_COXETER = "NotCoxeterPair"
VERDICT_ORDER_TOO_SMALL = "OrderTooSmall"
VERDICT_BOUNDED_NOT_EXCLUDED = "BoundedSubgroupNotExcluded"
VERDICT_EXCLUDED = "ExcludedPrime"

# OrderTooSmall is unreachable (_certify_good_prime raises instead); the
# name stays so that scan's verdict_counts keep their keys until schema 2.
VERDICTS = (
    VERDICT_CERTIFIED,
    VERDICT_NOT_COXETER,
    VERDICT_ORDER_TOO_SMALL,
    VERDICT_BOUNDED_NOT_EXCLUDED,
    VERDICT_EXCLUDED,
)

PREDICTED_PATTERN_DENSITY = Fraction(1, 18)


# The bounded maximal subgroups of G_2(p): (label, order, whether the
# subgroup occurs at p).  p is a prime above 5 that the caller has proven
# (certify_prime by is_prime, scan by its sieve), so the square tests are
# Euler's criterion with no further check.
BOUNDED_SUBGROUPS: tuple[tuple[str, int, Callable[[int], bool]], ...] = (
    ("2^3.L3(2)", 2**6 * 3 * 7, lambda p: True),
    ("L2(13)", 2**2 * 3 * 7 * 13, lambda p: pow(13, (p - 1) // 2, p) == 1),
    ("G2(2)", 2**6 * 3**3 * 7, lambda p: True),
    ("L2(8)", 2**3 * 3**2 * 7, lambda p: pow(5, (p - 1) // 2, p) == 1),
    ("J1", 2**3 * 3 * 5 * 7 * 11 * 19, lambda p: p == 11),
)


class Pair:
    """Two analysed inputs with independent splitting fields.

    Construction checks that both inputs classify as D6 and that no
    quadratic subfield is shared; two D6 fields that meet at all share
    one.  An input's are cut out by the nonsquares n, n', n n' (n and n'
    num * den of delta and delta'), and two are one field exactly when
    their product is a square, so no s_a s_b may be one.  Only a refusal
    factors, to name the shared kernels.  exclusion(p) is the first
    input's reason, else the second's, EvenPrime last; excluded factors.
    """

    def __init__(self, a: ReductionContext, b: ReductionContext):
        a.require_d6()
        b.require_d6()
        s_a, s_b = [(n, n_prime, n * n_prime) for n, n_prime in (a.square_classes, b.square_classes)]
        if any(is_square(s * t) for s in s_a for t in s_b):
            shared = sorted(a.square_kernels & b.square_kernels)
            raise G2CertError(f"splitting fields are not independent: shared quadratic kernel(s) {shared}")
        self.a = a
        self.b = b

    def exclusion(self, p: int) -> str | None:
        reason_a, reason_b = self.a.exclusion(p), self.b.exclusion(p)
        return reason_b if reason_a in (None, REASON_EVEN) else reason_a

    @functools.cached_property
    def excluded(self) -> dict[int, str]:
        return dict(sorted({**self.b.excluded, **self.a.excluded}.items()))

    @classmethod
    def from_files(cls, file_a: PolyFile, file_b: PolyFile) -> "Pair":
        return cls(ReductionContext.from_polyfile(file_a), ReductionContext.from_polyfile(file_b))


@dataclass(frozen=True)
class CertificationReport:
    """One prime's verdict; evidence_a/evidence_b are the WEYL_CLASSES rows classify verified."""

    p: int
    verdict: str
    evidence_a: WeylClassInfo | None = None
    evidence_b: WeylClassInfo | None = None
    order_a: int | None = None
    order_b: int | None = None
    excluded_subgroups: tuple[tuple[str, str], ...] = ()
    note: str = ""

    @property
    def class_a(self) -> str | None:
        return None if self.evidence_a is None else self.evidence_a.weyl_class

    @property
    def class_b(self) -> str | None:
        return None if self.evidence_b is None else self.evidence_b.weyl_class


def certify_prime(pair: Pair, p: int) -> CertificationReport:
    """Full evidence chain for one prime; never raises for a merely
    unsuitable prime, only for broken witnesses or a p that is_prime does
    not prove prime (ValueError, also at or above PRIME_PROOF_BOUND)."""
    require_proven_prime(p)
    if p <= 5:
        return CertificationReport(p=p, verdict=VERDICT_EXCLUDED, note="p <= 5 is outside the certification range")
    reason = pair.exclusion(p)
    if reason is not None:
        return CertificationReport(p=p, verdict=VERDICT_EXCLUDED, note=reason)
    return _certify_good_prime(pair, p)


def _certify_good_prime(pair: Pair, p: int) -> CertificationReport:
    # p is a prime above 5 with no exclusion, and Pair checked D6
    cls_a = pair.a.classify(p, checked=True)
    cls_b = pair.b.classify(p, checked=True)
    if {cls_a.weyl_class, cls_b.weyl_class} != {"3a", "6a"}:
        return CertificationReport(p=p, verdict=VERDICT_NOT_COXETER, evidence_a=cls_a, evidence_b=cls_b)
    order_a = pair.a.order_report(p, cls_a, checked=True)
    order_b = pair.b.order_report(p, cls_b, checked=True)
    common = dict(p=p, evidence_a=cls_a, evidence_b=cls_b, order_a=order_a, order_b=order_b)
    if cls_a.weyl_class == "3a":
        order_u, order_t = order_a, order_b
    else:
        order_u, order_t = order_b, order_a
    if order_u <= 3 or order_t <= 3:
        raise WitnessMismatchError(
            f"p={p}: element orders ({order_a}, {order_b}) in classes "
            f"({cls_a.weyl_class}, {cls_b.weyl_class}), but both must be at least 7",
            p=p, witness="element_orders", expected=7, actual=(order_a, order_b),
        )
    checks: list[tuple[str, str]] = []
    blocked = False
    for label, m, applies in BOUNDED_SUBGROUPS:
        if not applies(p):
            continue
        if m % order_u == 0 and m % order_t == 0:
            blocked = True
            checks.append((label, f"not excluded: both element orders divide |M| = {m}"))
        else:
            checks.append((label, f"excluded: orders ({order_u}, {order_t}) do not both divide {m}"))
    verdict = VERDICT_BOUNDED_NOT_EXCLUDED if blocked else VERDICT_CERTIFIED
    return CertificationReport(verdict=verdict, excluded_subgroups=tuple(checks), **common)


@dataclass(frozen=True)
class ScanSummary:
    limit: int
    primes_total: int
    excluded_count: int
    scanned: int
    verdict_counts: Mapping[str, int]
    class_counts_a: Mapping[str, int]
    class_counts_b: Mapping[str, int]
    pattern_count: int
    certified: tuple[int, ...]
    density: Fraction
    density_all: Fraction
    pattern_density: Fraction


def _scan_chunk(args: tuple[Pair, list[int]]) -> list[CertificationReport]:
    pair, primes = args
    return [_certify_good_prime(pair, p) for p in primes]


def scan(
    pair: Pair,
    limit: int,
    *,
    record_sink: Callable[[CertificationReport], None] | None = None,
    jobs: int = 1,
) -> ScanSummary:
    """Certify every prime p > 5 up to limit that the pair does not exclude, ascending.

    The record sink, when given, sees one report per scanned prime in
    ascending order.  jobs > 1 fans the prime ranges out over at most
    jobs processes, no more than there are batches or CPUs; chunk
    boundaries are fixed by the input alone, so the merged output is
    identical to a serial run.
    """
    all_primes = primes_up_to(limit)
    scan_primes = [p for p in all_primes if p > 5 and pair.exclusion(p) is None]
    excluded_count = len(all_primes) - len(scan_primes)

    verdict_counts = {v: 0 for v in VERDICTS}
    class_counts_a = {c: 0 for c in CLASS_LABELS}
    class_counts_b = {c: 0 for c in CLASS_LABELS}
    pattern_count = 0
    certified: list[int] = []

    def consume(report: CertificationReport) -> None:
        nonlocal pattern_count
        verdict_counts[report.verdict] += 1
        class_counts_a[report.class_a] += 1
        class_counts_b[report.class_b] += 1
        if {report.class_a, report.class_b} == {"3a", "6a"}:
            pattern_count += 1
        if report.verdict == VERDICT_CERTIFIED:
            certified.append(report.p)
        if record_sink is not None:
            record_sink(report)

    if jobs > 1 and len(scan_primes) > 1000:
        chunk = max(1000, len(scan_primes) // (jobs * 8))
        batches = [scan_primes[i : i + chunk] for i in range(0, len(scan_primes), chunk)]
        workers = min(jobs, len(batches), os.cpu_count() or 1)
        # imported here, so that a process that never pools never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for reports in pool.map(_scan_chunk, [(pair, batch) for batch in batches]):
                for report in reports:
                    consume(report)
    else:
        for p in scan_primes:
            consume(_certify_good_prime(pair, p))

    scanned = len(scan_primes)
    certified_n = len(certified)
    return ScanSummary(
        limit=limit,
        primes_total=len(all_primes),
        excluded_count=excluded_count,
        scanned=scanned,
        verdict_counts=verdict_counts,
        class_counts_a=class_counts_a,
        class_counts_b=class_counts_b,
        pattern_count=pattern_count,
        certified=tuple(certified),
        density=Fraction(certified_n, scanned) if scanned else Fraction(0),
        density_all=Fraction(certified_n, len(all_primes)) if all_primes else Fraction(0),
        pattern_density=Fraction(pattern_count, scanned) if scanned else Fraction(0),
    )
