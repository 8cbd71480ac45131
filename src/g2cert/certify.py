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

sweep yields each prime's result; scan and the frobenius command own the loop.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterator, Mapping

from .arith import is_square, primes_up_to, require_proven_prime
from .errors import G2CertError, WitnessMismatchError
from .polyfile import PolyFile
from .reduction import REASON_EVEN, ReductionContext
from .weyl import CLASS_LABELS

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


# The bounded maximal subgroups of G_2(p), p > 5 a prime the caller proves
# (Kleidman, J. Algebra 117, 1988): (label, order, whether it occurs at p).
# The derived rows need the field of their 7-dimensional characters in F_p:
# for L2(13) sqrt 13, by Euler's criterion; for L2(8) 2cos(2pi/9), so p =
# +-1 mod 9 (tests/test_certify.py).  The cited rows are Kleidman's alone.
BOUNDED_SUBGROUPS: tuple[tuple[str, int, Callable[[int], bool]], ...] = (
    ("2^3.L3(2)", 2**6 * 3 * 7, lambda p: True),  # Kleidman, cited
    ("L2(13)", 2**2 * 3 * 7 * 13, lambda p: pow(13, (p - 1) // 2, p) == 1),  # Kleidman, derived
    ("G2(2)", 2**6 * 3**3 * 7, lambda p: True),  # Kleidman, cited
    ("L2(8)", 2**3 * 3**2 * 7, lambda p: p % 9 in (1, 8)),  # Kleidman, derived
    ("J1", 2**3 * 3 * 5 * 7 * 11 * 19, lambda p: p == 11),  # Kleidman, cited
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
        return {q: self.exclusion(q) for q in sorted(self.a.excluded.keys() | self.b.excluded.keys())}

    @classmethod
    def from_files(cls, file_a: PolyFile, file_b: PolyFile) -> "Pair":
        return cls(ReductionContext.from_polyfile(file_a), ReductionContext.from_polyfile(file_b))


@dataclass(frozen=True)
class CertificationReport:
    """One prime's verdict; class_a/class_b label the WEYL_CLASSES rows classify verified."""

    p: int
    verdict: str
    class_a: str | None = None
    class_b: str | None = None
    order_a: int | None = None
    order_b: int | None = None
    excluded_subgroups: tuple[tuple[str, str], ...] = ()
    note: str = ""


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
    class_a, class_b = cls_a.weyl_class, cls_b.weyl_class
    if {class_a, class_b} != {"3a", "6a"}:
        return CertificationReport(p=p, verdict=VERDICT_NOT_COXETER, class_a=class_a, class_b=class_b)
    order_a = pair.a.order_report(p, cls_a, checked=True)
    order_b = pair.b.order_report(p, cls_b, checked=True)
    common = dict(p=p, class_a=class_a, class_b=class_b, order_a=order_a, order_b=order_b)
    if class_a == "3a":
        order_u, order_t = order_a, order_b
    else:
        order_u, order_t = order_b, order_a
    if order_u <= 3 or order_t <= 3:
        raise WitnessMismatchError(
            f"p={p}: element orders ({order_a}, {order_b}) in classes "
            f"({class_a}, {class_b}), but both must be at least 7",
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
    """What scan counts; its fields, in order, are the keys of a scan report's summary."""

    limit: int
    primes_total: int
    excluded_count: int
    scanned: int
    verdict_counts: Mapping[str, int]
    class_counts_a: Mapping[str, int]
    class_counts_b: Mapping[str, int]
    pattern_count: int
    certified_count: int
    certified: tuple[int, ...]
    density: Fraction
    density_all: Fraction
    pattern_density: Fraction
    predicted_pattern_density: Fraction = field(default=PREDICTED_PATTERN_DENSITY, init=False)


def sweep(primes: list[int], work: Callable[[int], Any], jobs: int = 1) -> Iterator[Any]:
    """Yield work(p) for every p in primes, in order.

    jobs > 1 fans the primes out in batches (Pool.imap's chunks) over at most
    jobs processes, no more than there are batches or CPUs.  Batch boundaries
    are fixed by the primes alone and results come back in order, so the
    caller sees what a serial run yields, or a prefix of that when work
    raises.  The pool lives as long as the loop: its with block terminates
    the workers when the last result is out, when work raises, or when the
    caller stops and the generator closes.  Each batch pickles work: a
    module-level function, or a functools.partial of one.
    """
    if jobs > 1 and len(primes) > 1000:
        chunk = max(1000, len(primes) // (jobs * 8))
        workers = min(jobs, math.ceil(len(primes) / chunk), os.cpu_count() or 1)
        # imported here, so that a process that never pools never loads multiprocessing
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            yield from pool.imap(work, primes, chunksize=chunk)
    else:
        yield from map(work, primes)


def scan(
    pair: Pair,
    limit: int,
    *,
    record_sink: Callable[[CertificationReport], None],
    jobs: int = 1,
) -> ScanSummary:
    """Certify every prime p > 5 up to limit that the pair does not exclude, ascending.

    record_sink sees each report that sweep yields, after scan counts it: one
    per scanned prime, ascending.  jobs is sweep's: the output does not depend on it.
    """
    all_primes = primes_up_to(limit)
    scan_primes = [p for p in all_primes if p > 5 and pair.exclusion(p) is None]
    excluded_count = len(all_primes) - len(scan_primes)

    verdict_counts = {v: 0 for v in VERDICTS}
    class_counts_a = {c: 0 for c in CLASS_LABELS}
    class_counts_b = {c: 0 for c in CLASS_LABELS}
    certified: list[int] = []

    for report in sweep(scan_primes, functools.partial(_certify_good_prime, pair), jobs):
        verdict_counts[report.verdict] += 1
        class_counts_a[report.class_a] += 1
        class_counts_b[report.class_b] += 1
        if report.verdict == VERDICT_CERTIFIED:
            certified.append(report.p)
        record_sink(report)

    scanned = len(scan_primes)
    pattern_count = scanned - verdict_counts[VERDICT_NOT_COXETER]  # every other verdict is a {3a, 6a} pair
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
        certified_count=certified_n,
        certified=tuple(certified),
        density=Fraction(certified_n, scanned or 1),  # each numerator is 0 when its denominator is
        density_all=Fraction(certified_n, len(all_primes) or 1),
        pattern_density=Fraction(pattern_count, scanned or 1),
    )
