"""Correctness checks that do not trust the code under test.

Every expected value here is recomputed from first principles: primes by
our own sieve and Miller-Rabin, torus orders by their closed forms, the
certificate verdict by re-running the Lagrange test on the five bounded
maximal subgroups, discriminants by the closed-form cubic formula, and
the Galois classification of a reduced file by an exact integer root
search, exact square tests and sign tests that confine the roots of Q to
(-2, 2).  Each checker returns a list of problems; an empty list means the
record passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from corpus import CorpusItem

CLASS_LABELS = ("1a", "2a", "2b", "2c", "3a", "6a")
COXETER = frozenset({"3a", "6a"})
CERTIFIED = "Certified"
NOT_COXETER = "NotCoxeterPair"
ORDER_TOO_SMALL = "OrderTooSmall"
BOUNDED_NOT_EXCLUDED = "BoundedSubgroupNotExcluded"
VERDICTS = (CERTIFIED, NOT_COXETER, ORDER_TOO_SMALL, BOUNDED_NOT_EXCLUDED, "ExcludedPrime")

# The bounded maximal subgroups of G2(p), p > 5, with their orders and
# applicability conditions: 2^3.L3(2), L2(13) when (13|p) = 1, G2(2),
# L2(8) when (5|p) = 1, J1 when p = 11.
BOUNDED = (
    (1344, lambda p: True),
    (1092, lambda p: legendre(13, p) == 1),
    (12096, lambda p: True),
    (504, lambda p: legendre(5, p) == 1),
    (175560, lambda p: p == 11),
)

ROW_FIELDS = ("p", "class_a", "class_b", "order_a", "order_b", "verdict")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in bases:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\x00\x00"
    for q in range(2, int(n**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, n + 1, q)))
    return [i for i, f in enumerate(flags) if f]


def legendre(a: int, p: int) -> int:
    s = pow(a % p, (p - 1) // 2, p)
    return -1 if s == p - 1 else s


def torus_order(label: str, p: int) -> int:
    return {"3a": p * p + p + 1, "6a": p * p - p + 1}[label]


def expected_verdict(p: int, class_a: str, class_b: str, order_a, order_b) -> str:
    if {class_a, class_b} != COXETER:
        return NOT_COXETER
    u, t = (order_a, order_b) if class_a == "3a" else (order_b, order_a)
    if u <= 3 or t <= 3:
        return ORDER_TOO_SMALL
    blocked = any(m % u == 0 and m % t == 0 for m, applies in BOUNDED if applies(p))
    return BOUNDED_NOT_EXCLUDED if blocked else CERTIFIED


def check_row(row: tuple) -> list[str]:
    """One (p, class_a, class_b, order_a, order_b, verdict) row."""
    p, ca, cb, oa, ob, verdict = row
    where = f"p={p}"
    if ca not in CLASS_LABELS or cb not in CLASS_LABELS:
        return [f"{where}: unknown class ({ca}, {cb})"]
    if {ca, cb} != COXETER:
        if oa is not None or ob is not None:
            return [f"{where}: orders reported for a non-Coxeter pair"]
        return [] if verdict == NOT_COXETER else [f"{where}: verdict {verdict}, expected {NOT_COXETER}"]
    problems = []
    for label, order in ((ca, oa), (cb, ob)):
        if not isinstance(order, int) or order < 1:
            return [f"{where}: bad order {order!r}"]
        if torus_order(label, p) % order:
            problems.append(f"{where}: order {order} does not divide the {label} torus order")
    want = expected_verdict(p, ca, cb, oa, ob)
    if verdict != want:
        problems.append(f"{where}: verdict {verdict}, recomputed {want}")
    return problems


def row_hash(rows) -> str:
    """sha256 over the (p, class_A, class_B, order_A, order_B, verdict) stream."""
    h = hashlib.sha256()
    for p, ca, cb, oa, ob, verdict in rows:
        cells = (p, ca, cb, "" if oa is None else oa, "" if ob is None else ob, verdict)
        h.update((",".join(map(str, cells)) + "\n").encode())
    return h.hexdigest()


def rows_from_json(text: str) -> tuple[list[tuple], dict]:
    doc = json.loads(text)
    rows = [tuple(r.get(k) for k in ROW_FIELDS) for r in doc["records"]]
    return rows, doc["summary"]


def rows_from_csv(text: str) -> tuple[list[tuple], dict]:
    body, _, trailer = text.rpartition("\n# ")
    reader = csv.reader(io.StringIO(body))
    header = next(reader)
    if header != ["p", "class_A", "class_B", "order_A", "order_B", "verdict"]:
        raise ValueError(f"unexpected CSV header {header}")
    rows = [
        (int(p), ca, cb, int(oa) if oa else None, int(ob) if ob else None, v)
        for p, ca, cb, oa, ob, v in reader
    ]
    return rows, json.loads(trailer)


def rows_disagree(rows_a: list[tuple], rows_b: list[tuple]) -> list[str]:
    """Rows of two scans that differ on a prime both of them scanned."""
    by_p = {r[0]: r for r in rows_b}
    return [f"p={r[0]}: {r} vs {by_p[r[0]]}" for r in rows_a if r[0] in by_p and by_p[r[0]] != r]


def check_scan(rows: list[tuple], summary: dict, limit: int,
               pinned: tuple[int, str] | None) -> list[str]:
    """A whole scan: the pinned row hash, every row, and the summary arithmetic.

    pinned is (pin_limit, sha256) for the rows with p <= pin_limit.
    """
    problems = []
    if pinned is not None:
        pin_limit, want = pinned
        got = row_hash(r for r in rows if r[0] <= pin_limit)
        if got != want:
            problems.append(f"row hash up to {pin_limit} is {got}, pinned {want}")
    primes = sieve(limit)
    ps = [r[0] for r in rows]
    if ps != sorted(set(ps)) or not set(ps) <= set(primes) or any(p <= 5 for p in ps):
        problems.append("scanned primes are not distinct primes > 5 in ascending order")
    for row in rows:
        problems.extend(check_row(row))
    counts = summary["verdict_counts"]
    coxeter = sum(1 for r in rows if {r[1], r[2]} == COXETER)
    certified = [r[0] for r in rows if r[5] == CERTIFIED]
    for label, got, want in (
        ("primes_total", summary["primes_total"], len(primes)),
        ("scanned", summary["scanned"], len(rows)),
        ("sum of verdict_counts", sum(counts.values()), summary["scanned"]),
        ("primes_total - excluded_count",
         summary["primes_total"] - summary["excluded_count"], summary["scanned"]),
        ("pattern_count", summary["pattern_count"], coxeter),
        ("certified_count", summary["certified_count"], len(certified)),
    ):
        if got != want:
            problems.append(f"summary {label} = {got}, expected {want}")
    if summary["certified"] != certified:
        problems.append("summary certified list differs from the Certified rows")
    if summary["certified_count"] > summary["pattern_count"]:
        problems.append("more certified primes than Coxeter pairs")
    for v in VERDICTS:
        n = sum(1 for r in rows if r[5] == v)
        if counts.get(v, 0) != n:
            problems.append(f"verdict_counts[{v}] = {counts.get(v)}, rows say {n}")
    return problems


def check_certify(doc: dict | None, exit_code: int, p: int) -> list[str]:
    """One `certify A B --prime p` call at a prime chosen for classes {3a, 6a}."""
    if doc is None:
        return [f"p={p}: no report (exit {exit_code})"]
    if doc.get("p") != p:
        return [f"p={p}: report is for p={doc.get('p')}"]
    ca, cb, oa, ob = doc.get("class_a"), doc.get("class_b"), doc.get("order_a"), doc.get("order_b")
    if {ca, cb} != COXETER:
        return [f"p={p}: classes ({ca}, {cb}), the sampler saw a Coxeter pair"]
    problems = check_row((p, ca, cb, oa, ob, doc.get("verdict")))
    for side, label, order in (("a", ca, oa), ("b", cb, ob)):
        if isinstance(order, int) and order <= 3:
            problems.append(f"p={p}: order_{side} = {order} is not above 3")
        if doc.get(f"torus_order_{side}") != torus_order(label, p):
            problems.append(f"p={p}: torus_order_{side} is not the {label} torus order")
        evidence = doc.get(f"order_evidence_{side}", {})
        if evidence.get("exact_order") != order or evidence.get("order_divides_torus") is not True:
            problems.append(f"p={p}: order_evidence_{side} disagrees with order_{side}")
    want_exit = 0 if doc.get("verdict") == CERTIFIED else 1
    if exit_code != want_exit:
        problems.append(f"p={p}: exit {exit_code} for verdict {doc.get('verdict')}")
    return problems


def cubic_discriminant(q: tuple[Fraction, ...]) -> Fraction:
    """Closed-form discriminant of a monic cubic given ascending coefficients."""
    d, c, b, _ = q
    return 18 * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * c**3 - 27 * d * d


def evaluate(q: tuple[Fraction, ...], x: int) -> Fraction:
    acc = Fraction(0)
    for coeff in reversed(q):
        acc = acc * x + coeff
    return acc


def _integer_model(q: tuple[Fraction, ...]) -> tuple[int, int, int]:
    """(A, B, C) with z^3 + A z^2 + B z + C = D^3 Q(z / D), D the lcm of the denominators.

    Q has a rational root exactly when this monic integer cubic has an
    integer root (Gauss's lemma).
    """
    d = 1
    for coeff in q:
        d = d * coeff.denominator // math.gcd(d, coeff.denominator)
    q0, q1, q2, _ = q
    return int(q2 * d), int(q1 * d * d), int(q0 * d**3)


def has_rational_root(q: tuple[Fraction, ...]) -> bool:
    """Exact integer root search on the integer model, no factoring.

    Between its critical points a cubic is monotone, so each monotone
    stretch of [-M, M] (M the Cauchy bound) is bisected on the integers;
    the few integers next to each critical point are tried one by one.
    """
    a, b, c = _integer_model(q)

    def f(z: int) -> int:
        return ((z + a) * z + b) * z + c

    bound = 1 + max(abs(a), abs(b), abs(c))
    cuts = {-bound, bound}
    if a * a - 3 * b >= 0:  # critical points (-a -+ sqrt(a^2 - 3b)) / 3
        s = math.isqrt(a * a - 3 * b)
        for centre in ((-a - s) // 3, (-a + s) // 3):
            if any(f(z) == 0 for z in range(centre - 2, centre + 3)):
                return True
            cuts |= {centre - 2, centre + 2}
    ends = sorted(z for z in cuts if -bound <= z <= bound)
    for lo, hi in zip(ends, ends[1:]):
        f_lo, f_hi = f(lo), f(hi)
        if f_lo == 0 or f_hi == 0:
            return True
        if (f_lo < 0) == (f_hi < 0):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            f_mid = f(mid)
            if f_mid == 0:
                return True
            if (f_mid < 0) == (f_lo < 0):
                lo = mid
            else:
                hi = mid
    return False


def is_rational_square(r: Fraction) -> bool:
    return r > 0 and math.isqrt(r.numerator) ** 2 == r.numerator \
        and math.isqrt(r.denominator) ** 2 == r.denominator


def _sign_chain(q: tuple[Fraction, ...], delta: Fraction, at2: Fraction, atm2: Fraction) -> bool:
    """The program's documented test: disc > 0, Q(-2) < 0 < Q(2), Q'(-2) > 0, Q'(0) < 0, Q'(2) > 0."""
    q0, q1, q2, _ = q
    dq = lambda y: 3 * y * y + 2 * q2 * y + q1  # noqa: E731
    return delta > 0 and atm2 < 0 and at2 > 0 and dq(-2) > 0 and dq(0) < 0 and dq(2) > 0


def _roots_in_interval(q: tuple[Fraction, ...], delta: Fraction, at2: Fraction, atm2: Fraction) -> bool:
    """All three roots of Q real, distinct and inside (-2, 2).

    Three distinct real roots (disc > 0) lie inside (-2, 2) exactly when
    both critical points do (Q' > 0 at +-2 and the vertex -q2/3 of Q'
    inside) and Q(-2) < 0 < Q(2).  Q'(0) < 0 is not needed: the roots
    may all lie on one side of 0.
    """
    q0, q1, q2, _ = q
    dq = lambda y: 3 * y * y + 2 * q2 * y + q1  # noqa: E731
    return delta > 0 and atm2 < 0 and at2 > 0 and dq(-2) > 0 and dq(2) > 0 and -6 < q2 < 6


def expected_galois(q: tuple[Fraction, ...], lift: bool, tempered_test=_roots_in_interval) -> dict:
    """classification, tempered and evidence that `reduce` must report for Q."""
    delta, at2, atm2 = cubic_discriminant(q), evaluate(q, 2), evaluate(q, -2)
    dprime = at2 * atm2
    separable = delta != 0 and dprime != 0
    tempered = tempered_test(q, delta, at2, atm2)
    evidence = {
        "q_irreducible": not has_rational_root(q),
        "delta_nonsquare": separable and not is_rational_square(delta),
        "delta_prime_nonsquare": separable and not is_rational_square(dprime),
        "product_nonsquare": separable and not is_rational_square(delta * dprime),
        "roots_in_interval": separable and tempered,
    }
    if not all(evidence[k] for k in ("q_irreducible", "delta_nonsquare",
                                     "delta_prime_nonsquare", "product_nonsquare")):
        tag = "Other"
    elif not evidence["roots_in_interval"]:
        tag = "Inconclusive"
    else:
        tag = "D6" if lift else "WeylBC_n"
    return {"classification": tag, "tempered": tempered, "evidence": evidence}


# Known defects of `reduce` at the time the benchmark was written; see
# NOTES.md.  The timed reduce-corpus stream avoids both, and a fixed probe
# stream run outside the timed loop shows them.
INSEPARABLE_EXIT_2 = "inseparable-exit-2"
TEMPERED_SIGN_CHAIN = "tempered-sign-chain"


def known_defect(q: tuple[Fraction, ...]) -> str | None:
    """The known defect of `reduce` that the cubic Q runs into, if any."""
    delta, at2, atm2 = cubic_discriminant(q), evaluate(q, 2), evaluate(q, -2)
    if delta == 0 or at2 * atm2 == 0:
        return INSEPARABLE_EXIT_2
    # The program tests Q'(0) < 0, which fails when all roots of Q lie on
    # one side of 0: such a Q is reported untempered.
    if _sign_chain(q, delta, at2, atm2) != _roots_in_interval(q, delta, at2, atm2):
        return TEMPERED_SIGN_CHAIN
    return None


def check_reduce(doc: dict | None, exit_code: int, item: CorpusItem) -> tuple[list[str], str | None]:
    """(problems, known defect) for one `reduce FILE` call on a generated file.

    Every expected value is recomputed from the generated Q.  An inseparable
    input has no Galois analysis; the right answer is a typed error with
    exit 1, and a report, if any, is still checked.
    """
    where = f"file {item.index} ({item.kind})"
    defect = known_defect(item.cubic)
    if doc is None:
        if defect == INSEPARABLE_EXIT_2 and exit_code == 1:
            return [], None
        known = defect if defect == INSEPARABLE_EXIT_2 and exit_code == 2 else None
        return [f"{where}: no report (exit {exit_code})"], known
    q = item.cubic
    problems = []
    if [Fraction(s) for s in doc["cubic"]] != list(q):
        problems.append(f"{where}: recovered cubic {doc['cubic']} is not the generated Q")
    delta, at2, atm2 = cubic_discriminant(q), evaluate(q, 2), evaluate(q, -2)
    for key, want in (
        ("discriminant", delta),
        ("discriminant_product", at2 * atm2),
        ("cubic_at_2", at2),
        ("cubic_at_minus_2", atm2),
    ):
        if Fraction(doc[key]) != want:
            problems.append(f"{where}: {key} = {doc[key]}, expected {want}")
    if doc["unit_product"] != item.lift:
        problems.append(f"{where}: unit_product = {doc['unit_product']}, generator lift = {item.lift}")
    got = {k: doc[k] for k in ("classification", "tempered", "evidence")}
    want = expected_galois(q, item.lift)
    known = None
    if got != want:
        if defect == TEMPERED_SIGN_CHAIN and got == expected_galois(q, item.lift, _sign_chain):
            known = TEMPERED_SIGN_CHAIN
            problems.append(f"{where}: tempered = false although all roots of Q lie in (-2, 2)")
        else:
            problems.append(f"{where}: reported {got}, recomputed {want}")
    want_exit = 0 if got["classification"] == "D6" and got["tempered"] else 1
    if exit_code != want_exit:
        problems.append(f"{where}: exit {exit_code}, expected {want_exit}")
    return problems, known if len(problems) == 1 else None
