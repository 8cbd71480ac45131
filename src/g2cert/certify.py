"""Generation certificates over F_p from two independent sextics.

A prime is certified when the two Frobenius elements land in the two
large-torus classes (one of order 3, one of order 6), both have element
order above 3, and Lagrange's theorem rules out every applicable
bounded maximal subgroup of G_2(p).  The unbounded maximal subgroups
need no per-prime work: an element of odd order > 3 dividing p^2+p+1
fits in none of them except the SL_3 normalizer, and its partner with
order dividing p^2-p+1 fits only in the SU_3 normalizer, so the pair
jointly escapes all of them.  The bounded ones are checked explicitly
against their constant orders.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .arith import legendre_symbol, primes_up_to
from .errors import G2CertError
from .polyfile import PolyFile
from .reduction import ElementOrderReport, FrobeniusClassification, ReductionContext
from .weyl import CLASS_LABELS

VERDICT_CERTIFIED = "Certified"
VERDICT_NOT_COXETER = "NotCoxeterPair"
VERDICT_ORDER_TOO_SMALL = "OrderTooSmall"
VERDICT_BOUNDED_NOT_EXCLUDED = "BoundedSubgroupNotExcluded"
VERDICT_EXCLUDED = "ExcludedPrime"

VERDICTS = (
    VERDICT_CERTIFIED,
    VERDICT_NOT_COXETER,
    VERDICT_ORDER_TOO_SMALL,
    VERDICT_BOUNDED_NOT_EXCLUDED,
    VERDICT_EXCLUDED,
)

PREDICTED_PATTERN_DENSITY = Fraction(1, 18)


def cyclotomic_value(k: int, p: int) -> int:
    """Phi_k(p) for the k that occur in torus and subgroup orders here."""
    if k == 1:
        return p - 1
    if k == 2:
        return p + 1
    if k == 3:
        return p * p + p + 1
    if k == 6:
        return p * p - p + 1
    raise ValueError(f"unsupported cyclotomic index {k}")


@dataclass(frozen=True)
class MaximalSubgroupEntry:
    """One row of the maximal-subgroup list for G_2(p), p > 3.

    Bounded rows carry their constant group order.  Unbounded reductive
    rows carry the prime-to-p part of their order as a product of
    cyclotomic values Phi_k(p)^e; the various index-2 extensions only
    contribute powers of 2, which never matter for the odd element
    orders this table is checked against.
    """

    item: int
    label: str
    bounded: bool
    order_value: int | None = None
    cyclotomic_orders: tuple[tuple[int, int], ...] | None = None
    condition: str = "always"

    def applicable(self, p: int) -> bool:
        if self.condition == "always":
            return True
        if self.condition == "p>5":
            return p > 5
        if self.condition == "chi13":
            return legendre_symbol(13, p) == 1
        if self.condition == "chi5":
            return legendre_symbol(5, p) == 1
        if self.condition == "p=11":
            return p == 11
        raise ValueError(f"unknown condition {self.condition}")

    def order_prime_to_p(self, p: int) -> int | None:
        if self.bounded:
            return self.order_value
        if self.cyclotomic_orders is None:
            return None
        out = 1
        for k, e in self.cyclotomic_orders:
            out *= cyclotomic_value(k, p) ** e
        return out


MAXIMAL_SUBGROUPS: tuple[MaximalSubgroupEntry, ...] = (
    MaximalSubgroupEntry(1, "maximal parabolic", bounded=False),
    MaximalSubgroupEntry(2, "SL3(p).2", bounded=False, cyclotomic_orders=((1, 2), (3, 1))),
    MaximalSubgroupEntry(2, "SU3(p).2", bounded=False, cyclotomic_orders=((1, 1), (2, 1), (6, 1))),
    MaximalSubgroupEntry(3, "SO4+(p)", bounded=False, cyclotomic_orders=((1, 2), (2, 2))),
    MaximalSubgroupEntry(4, "PGL2(p)", bounded=False, cyclotomic_orders=((1, 2), (2, 1)), condition="p>5"),
    MaximalSubgroupEntry(5, "2^3.L3(2)", bounded=True, order_value=2**6 * 3 * 7),
    MaximalSubgroupEntry(6, "L2(13)", bounded=True, order_value=2**2 * 3 * 7 * 13, condition="chi13"),
    MaximalSubgroupEntry(7, "G2(2)", bounded=True, order_value=2**6 * 3**3 * 7),
    MaximalSubgroupEntry(8, "L2(8)", bounded=True, order_value=2**3 * 3**2 * 7, condition="chi5"),
    MaximalSubgroupEntry(9, "J1", bounded=True, order_value=2**3 * 3 * 5 * 7 * 11 * 19, condition="p=11"),
)

BOUNDED_SUBGROUPS = tuple(e for e in MAXIMAL_SUBGROUPS if e.bounded)


class Pair:
    """Two analysed inputs with independent splitting fields.

    Construction checks the global hypotheses once, from the stored
    analyses: both inputs classify as D6 and their quadratic subfields,
    cut out by the square kernels other than 1, do not meet.  The excluded primes are
    those of both inputs, Steinberg primes included; on a prime excluded
    by both, the first input's reason is kept.
    """

    def __init__(self, a: ReductionContext, b: ReductionContext):
        a.require_d6()
        b.require_d6()
        shared = (a.square_kernels & b.square_kernels) - {1}
        if shared:
            raise G2CertError(
                f"splitting fields are not independent: shared quadratic kernel(s) {sorted(shared)}"
            )
        self.a = a
        self.b = b
        self.excluded = dict(sorted({**b.excluded, **a.excluded}.items()))

    @classmethod
    def from_files(cls, file_a: PolyFile, file_b: PolyFile) -> "Pair":
        return cls(ReductionContext.from_polyfile(file_a), ReductionContext.from_polyfile(file_b))


@dataclass(frozen=True)
class CertificationReport:
    p: int
    verdict: str
    evidence_a: FrobeniusClassification | None = None
    evidence_b: FrobeniusClassification | None = None
    order_report_a: ElementOrderReport | None = None
    order_report_b: ElementOrderReport | None = None
    excluded_subgroups: tuple[tuple[str, str], ...] = ()
    note: str = ""

    @property
    def class_a(self) -> str | None:
        return None if self.evidence_a is None else self.evidence_a.weyl_class

    @property
    def class_b(self) -> str | None:
        return None if self.evidence_b is None else self.evidence_b.weyl_class

    @property
    def order_a(self) -> int | None:
        return None if self.order_report_a is None else self.order_report_a.exact_order

    @property
    def order_b(self) -> int | None:
        return None if self.order_report_b is None else self.order_report_b.exact_order


def certify_prime(pair: Pair, p: int) -> CertificationReport:
    """Full evidence chain for one prime; never raises for a merely
    unsuitable prime, only for broken witnesses or a p that is not prime."""
    if p <= 5:
        return CertificationReport(p=p, verdict=VERDICT_EXCLUDED, note="p <= 5 is outside the certification range")
    if p in pair.excluded:
        return CertificationReport(p=p, verdict=VERDICT_EXCLUDED, note=pair.excluded[p])
    return _certify_good_prime(pair, p)


def _certify_good_prime(pair: Pair, p: int) -> CertificationReport:
    cls_a = pair.a.classify(p)
    cls_b = pair.b.classify(p)
    if {cls_a.weyl_class, cls_b.weyl_class} != {"3a", "6a"}:
        return CertificationReport(p=p, verdict=VERDICT_NOT_COXETER, evidence_a=cls_a, evidence_b=cls_b)
    rep_a = pair.a.order_report(p, cls_a)
    rep_b = pair.b.order_report(p, cls_b)
    common = dict(p=p, evidence_a=cls_a, evidence_b=cls_b, order_report_a=rep_a, order_report_b=rep_b)
    order_a, order_b = rep_a.exact_order, rep_b.exact_order
    if cls_a.weyl_class == "3a":
        order_u, order_t = order_a, order_b
    else:
        order_u, order_t = order_b, order_a
    if order_u <= 3 or order_t <= 3:
        return CertificationReport(verdict=VERDICT_ORDER_TOO_SMALL, **common)
    checks: list[tuple[str, str]] = []
    blocked = False
    for entry in BOUNDED_SUBGROUPS:
        if not entry.applicable(p):
            continue
        m = entry.order_value
        assert m is not None
        if m % order_u == 0 and m % order_t == 0:
            blocked = True
            checks.append(
                (entry.label, f"not excluded: both element orders divide |M| = {m}")
            )
        else:
            checks.append(
                (entry.label, f"excluded: orders ({order_u}, {order_t}) do not both divide {m}")
            )
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
    predicted_density: Fraction = PREDICTED_PATTERN_DENSITY


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
    skip = pair.excluded.keys() | {2, 3, 5}
    all_primes = primes_up_to(limit)
    scan_primes = [p for p in all_primes if p not in skip]
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
