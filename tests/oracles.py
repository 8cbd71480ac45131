"""Independent reference implementations used to validate the package.

Everything here is written the slow, obvious way on purpose: trial
division, root sweeps, multiply-until-identity loops, the Euclidean
resultant, and the Weyl group of G2 enumerated element by element.  None
of it shares code with the fast paths in the package, so agreement is
meaningful.  There are exceptions.  _degree_pattern is the package's
own factor-pattern kernels behind one call, the seam at which the tests
check them against naive_degree_pattern.  cofactor_descent_order, an
exact-order descent with one ladder per prime factor of the torus order,
takes the factorization from the caller and reuses the package's Dickson
ladder (checked on its own against the three-term recurrence), so it
checks only the order in which order_report composes the ladders.  The
fraction_* functions are the package's input analysis as it ran in
Fraction arithmetic before the integer model of Q; fraction_cubic_irreducible
keeps the former sign-change root search, which reads no direction, so
against it both the integer model's coefficients and the package's
directed bisection are checked.  factored_exclusions and
factored_square_kernels are the input decisions as they ran on
factorizations, before they became divisibility and square-root tests;
they take their factors from the package's factor_integer, which
test_arith checks on its own.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from g2cert.arith import factor_integer
from g2cert.errors import NotMonicError, NotPalindromicError, NotSeparableError
from g2cert.palindromic import TAG_D6, TAG_INCONCLUSIVE, TAG_OTHER, TAG_WEYL_BC
from g2cert.poly import (
    RatPoly,
    _cubic_pattern,
    _cubic_ring,
    _dickson,
    _frobenius,
    _sextic_pattern,
    cubic_discriminant,
    format_poly,
)
from g2cert.reduction import REASON_DENOMINATOR, REASON_RAMIFIED, REASON_STEINBERG, ReductionContext

# primes the F_p kernels are checked at, up to the largest prime below
# 10^12, where products of residues exceed 2^64
KERNEL_PRIMES = [5, 7, 101, 997, 999983, 999999999989]


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_legendre(a: int, p: int) -> int:
    """Quadratic residue test by sweeping all squares mod p."""
    a %= p
    if a == 0:
        return 0
    squares = {(x * x) % p for x in range(1, p)}
    return 1 if a in squares else -1


def naive_is_square(r: Fraction) -> bool:
    """Whether r is the square of a rational, by integer square roots."""
    num, den = r.numerator, r.denominator
    return num >= 0 and math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den


def naive_poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def naive_poly_mod(a: list[int], f: list[int], p: int) -> list[int]:
    """Remainder of a by monic f, coefficients ascending."""
    assert f[-1] % p == 1
    a = [c % p for c in a]
    n = len(f) - 1
    while len(a) > n:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - n
            for i, fi in enumerate(f):
                a[shift + i] = (a[shift + i] - lead * fi) % p
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def mod_poly(p: int, coeffs: list[int]) -> tuple[int, ...]:
    """coeffs reduced mod p, zero leading terms dropped, as the package's F_p kernels take them."""
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def naive_pow_x_mod(f: list[int], e: int, p: int) -> list[int]:
    """x^e mod monic f by binary powering on schoolbook products."""
    acc, base = [1], naive_poly_mod([0, 1], f, p)
    while e:
        if e & 1:
            acc = naive_poly_mod(naive_poly_mul(acc, base, p), f, p)
        base = naive_poly_mod(naive_poly_mul(base, base, p), f, p)
        e >>= 1
    return acc


def naive_irreducibles(d: int, p: int, count: int) -> list[list[int]]:
    """The first `count` monic irreducibles of degree d over F_p, ascending
    coefficients, by trial division against every monic divisor of degree <= d/2."""
    def monics(k):
        for n in range(p**k):
            yield [(n // p**i) % p for i in range(k)] + [1]

    divisors = [g for k in range(1, d // 2 + 1) for g in monics(k)]
    out = []
    for f in monics(d):
        if all(any(naive_poly_mod(f, g, p)) for g in divisors):
            out.append(f)
            if len(out) == count:
                break
    return out


def reduce_rational_coeffs(coeffs: list[Fraction], p: int) -> list[int]:
    out = []
    for c in coeffs:
        den = c.denominator % p
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes mod {p}")
        out.append(c.numerator * pow(den, -1, p) % p)
    return out


def naive_order_of_x(f: list[int], p: int, cap: int) -> int:
    """Multiplicative order of x in F_p[x]/(f) by repeated multiplication.

    f must be monic with nonzero constant term.  Walks x, x^2, x^3, ...
    until the residue is 1; raises if no identity is seen within cap steps.
    """
    n = len(f) - 1
    one = [1] + [0] * (n - 1)
    state = [0] * n
    if n == 1:
        state[0] = (-f[0]) % p
    else:
        state[1] = 1
    if state == one:
        return 1
    # multiply by x each step: shift up, then clear the overflow using
    # x^n = -(f[n-1] x^{n-1} + ... + f[0])
    acc = state[:]
    for k in range(2, cap + 1):
        lead = acc[-1]
        acc = [0] + acc[:-1]
        if lead:
            for i in range(n):
                acc[i] = (acc[i] - lead * f[i]) % p
        if acc == one:
            return k
    raise AssertionError(f"no order found within {cap} steps")


def cofactor_descent_order(p: int, f: list[int], torus: int, factors: dict[int, int]) -> int:
    """Order of y's root x, as the least m | torus with V_m = 2 in F_p[y]/(f).

    factors is the factorization {q: e} of torus.  One descent per q: a
    ladder to V_(torus/q^e), then at most e ladders of length log q, each
    mapping w to D_q(w); the q-part is q^k for the k at which w first
    equals 2.  Every descent ends at V_torus, so each one checks it;
    raises AssertionError when the element is off the torus.
    """
    f = tuple(f)
    order = 1
    for q, e in factors.items():
        w = _dickson(p, f, (0, 1, 0), torus // q**e)
        k = 0
        while w != (2, 0, 0):
            if k == e:
                raise AssertionError(f"p={p}: V_{torus} != 2")
            w = _dickson(p, f, w, q)
            k += 1
        order *= q**k
    return order


def naive_derivative(f: list[int], p: int) -> list[int]:
    """Formal derivative over F_p, coefficients ascending."""
    return [i * c % p for i, c in enumerate(f)][1:]


def naive_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """gcd(a, b) over F_p by plain Euclid on coefficient lists: monic unless b = 0,
    when it is a mod p without leading zeros."""

    def trim(v: list[int]) -> list[int]:
        v = [c % p for c in v]
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        bm = [c * inv % p for c in b]
        a, b = bm, trim(naive_poly_mod(a, bm, p))
    return a


def naive_gcd_degree(a: list[int], b: list[int], p: int) -> int:
    """Degree of gcd(a, b) over F_p by plain Euclid on coefficient lists."""
    return len(naive_gcd(a, b, p)) - 1


def naive_poly_div(a: list[int], f: list[int], p: int) -> list[int]:
    """Quotient of a by a monic f that divides it over F_p, coefficients ascending."""
    a, n = [c % p for c in a], len(f) - 1
    q = [0] * (len(a) - n)
    for shift in reversed(range(len(q))):
        q[shift] = lead = a[shift + n]
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - lead * fi) % p
    assert not any(a), "the divisor leaves a remainder"
    return q


def _root_count(f: list[int], p: int) -> int:
    xs = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in reversed(f):
        vals = (vals * xs + c) % p
    return int(np.count_nonzero(vals == 0))


def _quadratic_divisors(f: list[int], p: int) -> list[tuple[int, int]]:
    """All (b, c) with x^2 + b x + c dividing monic f, by full remainder sweep."""
    n = len(f) - 1
    b = np.repeat(np.arange(p, dtype=np.int64), p)
    c = np.tile(np.arange(p, dtype=np.int64), p)
    # synthetic division by x^2 + b x + c: (hi, lo) are the top two
    # coefficients of the running remainder, hi doubling as the next
    # quotient coefficient at each step
    hi = np.full(p * p, f[n] % p, dtype=np.int64)
    lo = np.full(p * p, f[n - 1] % p, dtype=np.int64)
    for k in range(n - 2, -1, -1):
        hi, lo = (lo - b * hi) % p, (f[k] - c * hi) % p
    hits = np.flatnonzero((hi == 0) & (lo == 0))
    return [(int(b[i]), int(c[i])) for i in hits]


def _cubic_divisors(f: list[int], p: int) -> list[tuple[int, int, int]]:
    """All (a, b, c) with x^3 + a x^2 + b x + c dividing monic f (degree 6)."""
    assert len(f) - 1 == 6
    out = []
    b = np.repeat(np.arange(p, dtype=np.int64), p)
    c = np.tile(np.arange(p, dtype=np.int64), p)
    for a in range(p):
        q3 = f[6] % p
        q2 = (f[5] - a * q3) % p
        q1 = (f[4] - a * q2 - b * q3) % p
        q0 = (f[3] - a * q1 - b * q2 - c * q3) % p
        r2 = (f[2] - a * q0 - b * q1 - c * q2) % p
        r1 = (f[1] - b * q0 - c * q1) % p
        r0 = (f[0] - c * q0) % p
        hits = np.flatnonzero((r2 == 0) & (r1 == 0) & (r0 == 0))
        out.extend((a, int(b[i]), int(c[i])) for i in hits)
    return out


def naive_degree_pattern(f: list[int], p: int) -> tuple[int, ...]:
    """Factorization degree pattern of a separable monic cubic or sextic.

    Exhaustive: counts linear factors by root sweep, quadratic and cubic
    irreducible factors by trial division against every candidate; the
    factors of degree 4, 5 or 6 are what is left.
    """
    n = len(f) - 1
    n1 = _root_count(f, p)
    if n == 3:
        if n1 == 3:
            return (1, 1, 1)
        if n1 == 1:
            return (1, 2)
        assert n1 == 0
        return (3,)
    assert n == 6
    n2 = 0
    for qb, qc in _quadratic_divisors(f, p):
        if naive_legendre(qb * qb - 4 * qc, p) == -1:
            n2 += 1
    n3 = 0
    for a, qb, qc in _cubic_divisors(f, p):
        if _root_count([qc, qb, a, 1], p) == 0:
            n3 += 1
    # every factor left has degree >= 4, so it is one factor
    rest = n - n1 - 2 * n2 - 3 * n3
    assert rest in (0, 4, 5, 6), (f, p, n1, n2, n3)
    pattern = [1] * n1 + [2] * n2 + [3] * n3 + ([rest] if rest else [])
    return tuple(sorted(pattern))


def ddf_degree_pattern(f: list[int], p: int) -> tuple[int, ...]:
    """Factorization degree pattern of a monic f over F_p by schoolbook
    distinct-degree factorization (Knuth, TAOCP vol. 2, 4.6.2).

    For d = 1, 2, ... the product of f's factors of degree d is
    g = gcd(f, x^(p^d) - x), once the factors of lower degree are divided
    out; x^(p^d) mod f is plain binary powering.  When 2d exceeds the degree
    of what is left, that is one irreducible factor.  Raises
    NotSeparableError for a repeated factor, which the gcds do not see.
    Unlike naive_degree_pattern it costs O(d log p) products, not a sweep of
    F_p, so it reaches the heights a scan runs at.
    """
    f = list(mod_poly(p, f))
    assert f[-1] == 1, "f must be monic"
    if naive_gcd_degree(f, naive_derivative(f, p), p) > 0:
        raise NotSeparableError(f"{_mod_str(p, tuple(f))} has a repeated factor")
    pattern: list[int] = []
    d = 0
    while len(f) > 1:
        d += 1
        if 2 * d > len(f) - 1:
            pattern.append(len(f) - 1)
            break
        h = naive_pow_x_mod(f, p**d, p) + [0, 0]
        h[1] -= 1
        g = naive_gcd(f, h, p)
        count, rest = divmod(len(g) - 1, d)
        assert rest == 0, (p, f, d, g)
        if count:
            pattern += [d] * count
            f = naive_poly_div(f, g, p)
    return tuple(sorted(pattern))


def _mod_str(p: int, coeffs: tuple[int, ...]) -> str:
    """A polynomial over F_p as error messages name it: "x^3 + 2*x + 1 (mod 7)"."""
    return format_poly(coeffs, "x") + f" (mod {p})"


def _require_pattern_input(p: int, c: tuple[int, ...]) -> None:
    """ValueError naming the reason unless c is a monic cubic or monic palindromic sextic, p odd."""
    if len(c) not in (4, 7) or p < 3 or p % 2 == 0:
        raise ValueError(
            f"degree patterns are computed for degrees 3 and 6 mod odd p, got {_mod_str(p, c)}")
    if (c[-1] - 1) % p:
        raise ValueError(f"degree patterns need a monic polynomial, got {_mod_str(p, c)}")
    if len(c) == 7 and ((c[0] - c[6]) % p or (c[1] - c[5]) % p or (c[2] - c[4]) % p):
        raise ValueError(f"sextic degree patterns need a palindromic sextic, got {_mod_str(p, c)}")


def _degree_pattern(p: int, c: tuple[int, ...]) -> tuple[int, ...]:
    """Degrees of the irreducible factors of a squarefree monic cubic, or of a
    squarefree monic palindromic sextic, mod an odd p, sorted.

    Both read one Frobenius pass in F_p[y]/(Q), Q = f itself (cubic) or the
    trace cubic (f3 - 2 f5, f4 - 3, f5, 1) of f = x^3 Q(x + 1/x) (sextic).
    A cubic is squarefree by its discriminant, a sextic by _sextic_pattern.

    Raises NotSeparableError for a repeated factor, and ValueError that
    names the reason for any other input: a degree other than 3 or 6, an
    even p, a leading coefficient other than 1, or a sextic that is not
    palindromic.  classify runs the same kernels on Q mod p alone: the
    sextic it reads is Q mod p's lift, which passes these checks.
    """
    _require_pattern_input(p, c)
    q = c if len(c) == 4 else (c[3] - 2 * c[5], c[4] - 3, c[5], 1)  # P = x^3 Q(x + 1/x)
    v, u = _frobenius(p, q)
    mul = _cubic_ring(p, q)
    w = mul(v, v)
    if len(c) == 4:  # _cubic_pattern takes a squarefree cubic
        pattern = _cubic_pattern(p, v, w) if cubic_discriminant(*q[:3]) % p else None
    else:
        pattern = _sextic_pattern(p, mul, v, w, u)
    if pattern is None:
        raise NotSeparableError(f"{_mod_str(p, c)} has a repeated factor")
    return pattern


def _trial_divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out |= {d, n // d}
        d += 1
    return sorted(out)


def naive_has_rational_root(coeffs: list[Fraction]) -> bool:
    """Rational root theorem on the primitive integer model, by brute force.

    Clears denominators (leading coefficient kept), then tries every
    +-n/d with n dividing the constant term and d dividing the leading
    coefficient, evaluating in Fractions.
    """
    den = 1
    for c in coeffs:
        den = den * c.denominator // _gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    if ints[0] == 0:
        return True
    for n in _trial_divisors(ints[0]):
        for d in _trial_divisors(ints[-1]):
            for cand in (Fraction(n, d), Fraction(-n, d)):
                acc = Fraction(0)
                for c in reversed(coeffs):
                    acc = acc * cand + c
                if acc == 0:
                    return True
    return False


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


# ---------------------------------------------------------------------------
# polynomials over Q: schoolbook products, long division and the Euclidean
# resultant, on RatPoly used only as a container of Fraction coefficients


def rat_coeff(f: RatPoly, i: int) -> Fraction:
    """The x^i coefficient of f, 0 past its degree."""
    return f.coeffs[i] if 0 <= i < len(f.coeffs) else Fraction(0)


def _rat_trim(coeffs: list[Fraction]) -> RatPoly:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return RatPoly(tuple(coeffs))


def rat_mul(a: RatPoly, b: RatPoly) -> RatPoly:
    if not a.coeffs or not b.coeffs:
        return RatPoly(())
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            out[i + j] += ai * bj
    return _rat_trim(out)


def rat_divmod(a: RatPoly, b: RatPoly) -> tuple[RatPoly, RatPoly]:
    """(quotient, remainder) of a by nonzero b, remainder of degree < deg b."""
    if not b.coeffs:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    dn = len(b.coeffs) - 1
    quo = [Fraction(0)] * max(0, len(rem) - dn)
    for i in range(len(rem) - dn - 1, -1, -1):
        c = rem[i + dn] / b.coeffs[-1]
        quo[i] = c
        for j, bj in enumerate(b.coeffs):
            rem[i + j] -= c * bj
    return _rat_trim(quo), _rat_trim(rem[:dn])


def resultant(f: RatPoly, g: RatPoly) -> Fraction:
    """Resultant of two nonzero polynomials, by the Euclidean recurrence."""
    if not f.coeffs or not g.coeffs:
        raise ValueError("resultant of the zero polynomial")
    m, n = len(f.coeffs) - 1, len(g.coeffs) - 1
    if n == 0:
        return g.coeffs[0] ** m
    if m == 0:
        return f.coeffs[0] ** n
    r = rat_divmod(f, g)[1]
    if not r.coeffs:
        return Fraction(0)
    sign = -1 if (m * n) % 2 else 1
    return sign * g.coeffs[-1] ** (m - len(r.coeffs) + 1) * resultant(g, r)


def discriminant(f: RatPoly) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f), n = deg f >= 1."""
    n = len(f.coeffs) - 1
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    df = _rat_trim([i * c for i, c in enumerate(f.coeffs)][1:])
    if not df.coeffs:
        return Fraction(0)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, df) / f.coeffs[-1]


def rat_evaluate(f: RatPoly, x: Fraction | int) -> Fraction:
    return sum((c * Fraction(x) ** i for i, c in enumerate(f.coeffs)), Fraction(0))


def rat_derivative(f: RatPoly) -> RatPoly:
    return _rat_trim([i * c for i, c in enumerate(f.coeffs)][1:])


def torus_cubic(m1: Fraction, m2: Fraction, ea: Fraction, eb: Fraction) -> tuple[Fraction, ...]:
    """(c0, c1, c2) of a monic cubic with the lift identity near a torus element's.

    (cos t, sin t) = ((1 - m^2) / (1 + m^2), 2m / (1 + m^2)) for rational m;
    the roots 2 cos t1, 2 cos t2 and 2 cos(t1 + t2) satisfy the lift
    identity, and moving a and b by ea and eb with c = a^2 - 2b - 4 keeps it.
    """
    (c1, s1), (c2, s2) = [((1 - m * m) / (1 + m * m), 2 * m / (1 + m * m)) for m in (m1, m2)]
    r1, r2, r3 = 2 * c1, 2 * c2, 2 * (c1 * c2 - s1 * s2)
    a, b = r1 + r2 + r3 + ea, r1 * r2 + r1 * r3 + r2 * r3 + eb
    return 4 + 2 * b - a * a, b, -a


def lifted_model(model: tuple[int, int, int, int]) -> tuple[int, ...]:
    """P's integer numerators over D for Q's model (c0, c1, c2, D), P = x^3 Q(x + 1/x):
    Q's coefficients are c_i / D, so P's x^5, x^4, x^3 are q2, q1 + 3, q0 + 2 q2."""
    c0, c1, c2, d = model
    return d, c2, c1 + 3 * d, c0 + 2 * c2, c1 + 3 * d, c2, d


def inflate_palindromic(q: RatPoly) -> RatPoly:
    """x^n q(x + 1/x) for monic q of degree n >= 1, monic palindromic of degree 2n.

    y^k lifts to x^(n-k) (x^2 + 1)^k, the sum over j of C(k, j) x^(n-k+2j).
    """
    n = len(q.coeffs) - 1
    assert n >= 1 and q.coeffs[-1] == 1, q
    out = [Fraction(0)] * (2 * n + 1)
    for k, c in enumerate(q.coeffs):
        for j in range(k + 1):
            out[n - k + 2 * j] += math.comb(k, j) * c
    return RatPoly(tuple(out))


# ---------------------------------------------------------------------------
# the input analysis in Fraction arithmetic, as the package ran it before it
# moved to the integer model of Q: every value is a Fraction expression in
# the coefficients, and squareness is read by integer square roots instead
# of squarefree kernels


def fraction_deflate_root_one(f: RatPoly) -> RatPoly:
    if f.degree < 1:
        raise ValueError("cannot deflate a constant")
    out = [Fraction(0)] * f.degree
    acc = Fraction(0)
    for i in range(f.degree, 0, -1):
        acc += f.coeffs[i]
        out[i - 1] = acc
    if acc + f.coeffs[0] != 0:
        raise ValueError("1 is not a root, remainder {}".format(acc + f.coeffs[0]))
    return _rat_trim(out)


@dataclass(frozen=True)
class FractionReduction:
    """Q and its invariants as Fractions, the values ReductionContext keeps."""

    q: RatPoly
    delta: Fraction
    delta_prime: Fraction
    q_at_2: Fraction
    q_at_minus_2: Fraction


def cubic_model(q: RatPoly) -> tuple[int, int, int, int]:
    """(c0, c1, c2, D) with q = (c0 + c1 y + c2 y^2 + D y^3) / D for a monic cubic q, D least."""
    assert q.degree == 3 and q.coeffs[3] == 1, q
    d = math.lcm(*(c.denominator for c in q.coeffs))
    c0, c1, c2 = (int(c * d) for c in q.coeffs[:3])
    return c0, c1, c2, d


def fraction_palindromic_reduce(poly: RatPoly) -> FractionReduction:
    if poly.degree != 6:
        raise NotPalindromicError(f"degree {poly.degree}: only sextics are reduced")
    if not poly.is_monic():
        raise NotMonicError("not monic")
    if not poly.is_palindromic():
        raise NotPalindromicError("coefficients are not palindromic")
    p3, p4, p5, one = poly.coeffs[3:]
    q = RatPoly((p3 - 2 * p5, p4 - 3, p5, one))
    at2, atm2 = rat_evaluate(q, 2), rat_evaluate(q, -2)
    return FractionReduction(q=q, delta=discriminant(q), delta_prime=at2 * atm2,
                             q_at_2=at2, q_at_minus_2=atm2)


def fraction_temperedness_check(pair: FractionReduction) -> bool:
    q = pair.q
    qp = rat_derivative(q)
    return (
        pair.delta > 0
        and pair.q_at_minus_2 < 0
        and pair.q_at_2 > 0
        and rat_evaluate(qp, -2) > 0
        and rat_evaluate(qp, 2) > 0
        and -6 < rat_coeff(q, 2) < 6
    )


def fraction_g2_lift_check(q: RatPoly) -> bool:
    a, b, c = -rat_coeff(q, 2), rat_coeff(q, 1), -rat_coeff(q, 0)
    return a * a == c + 2 * b + 4


def fraction_cubic_irreducible(q: RatPoly) -> bool:
    """No rational root: no integer root of F(z) = D^3 q(z / D), searched on
    the stretches where F is monotone by the former sign-change bisection,
    which compares the signs at both ends and reads no direction."""
    den = math.lcm(*(c.denominator for c in q.coeffs))
    c2, c1, c0 = (int(rat_coeff(q, 2) * den), int(rat_coeff(q, 1) * den**2),
                  int(rat_coeff(q, 0) * den**3))

    def value(z: int) -> int:
        return ((z + c2) * z + c1) * z + c0

    def has_root(a: int, b: int) -> bool:
        if a > b:
            return False
        fa, fb = value(a), value(b)
        if fa == 0 or fb == 0:
            return True
        if (fa > 0) == (fb > 0):
            return False
        while b - a > 1:
            mid = (a + b) // 2
            fm = value(mid)
            if fm == 0:
                return True
            if (fm > 0) == (fa > 0):
                a, fa = mid, fm
            else:
                b = mid
        return False

    bound = 1 + max(abs(c2), abs(c1), abs(c0))
    d = c2 * c2 - 3 * c1
    if d <= 0:
        return not has_root(-bound, bound)
    s = math.isqrt(d)
    k1, k2 = (-c2 - s - 1) // 3, (s - c2) // 3
    return not (has_root(-bound, k1) or has_root(k1 + 1, k2) or has_root(k2 + 1, bound))


def fraction_classify_galois(pair: FractionReduction) -> tuple[str, dict[str, bool]]:
    """(tag, evidence), as classify_galois returns them, for a separable pair
    (delta and delta' nonzero), the only kind ReductionContext admits."""
    d, dp = pair.delta, pair.delta_prime
    evidence = {
        "q_irreducible": fraction_cubic_irreducible(pair.q),
        "delta_nonsquare": not naive_is_square(d),
        "delta_prime_nonsquare": not naive_is_square(dp),
        "product_nonsquare": not naive_is_square(d * dp),
        "roots_in_interval": fraction_temperedness_check(pair),
    }
    if not all(evidence[k] for k in list(evidence)[:4]):
        tag = TAG_OTHER
    elif not evidence["roots_in_interval"]:
        tag = TAG_INCONCLUSIVE
    else:
        tag = TAG_D6 if fraction_g2_lift_check(pair.q) else TAG_WEYL_BC
    return tag, evidence


# ---------------------------------------------------------------------------
# the input decisions on factorizations: the excluded primes from the
# factored denominator and discriminants, independence from squarefree kernels


def _fraction_exponents(r: Fraction) -> dict[int, int]:
    """Prime exponents of r != 0, negative in the denominator."""
    out = factor_integer(r.numerator)
    for q, e in factor_integer(r.denominator).items():
        out[q] = out.get(q, 0) - e
    return out


def factored_exclusions(ctx: ReductionContext) -> dict[int, str]:
    """D's primes, then the primes of delta and delta', then the Steinberg
    prime, each with the first reason that names it, in ascending p."""
    bad = dict.fromkeys(factor_integer(ctx.model[3]), REASON_DENOMINATOR)
    for r in (ctx.delta, ctx.delta_prime):
        for q in _fraction_exponents(r):
            bad.setdefault(q, REASON_RAMIFIED)
    if ctx.steinberg_prime is not None:
        bad.setdefault(ctx.steinberg_prime, REASON_STEINBERG)
    return dict(sorted(bad.items()))


def factored_square_kernels(ctx: ReductionContext) -> frozenset[int]:
    """Signed squarefree kernels of delta, delta' and their product, from their prime exponents."""
    return frozenset(
        (1 if r > 0 else -1) * math.prod(q for q, e in _fraction_exponents(r).items() if e % 2)
        for r in (ctx.delta, ctx.delta_prime, ctx.delta * ctx.delta_prime)
    )


# ---------------------------------------------------------------------------
# the Weyl group of G2 as signed permutations of three coordinates
#
# Elements are pairs (sigma, s) with sigma in S3 and s = +-1, acting on the
# plane a + b + c = 0 by e_i -> s e_{sigma(i)}.  The long element (id, -1)
# is central, so the conjugacy classes are the S3-classes tagged by s.


@dataclass(frozen=True)
class WeylElement:
    """(sigma, s): perm holds the images of (0, 1, 2), sign is s."""

    perm: tuple[int, int, int]
    sign: int

    @classmethod
    def identity(cls) -> "WeylElement":
        return cls((0, 1, 2), 1)

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self after other."""
        return WeylElement(
            tuple(self.perm[other.perm[i]] for i in range(3)),
            self.sign * other.sign,
        )

    def inverse(self) -> "WeylElement":
        inv = [0, 0, 0]
        for i, j in enumerate(self.perm):
            inv[j] = i
        return WeylElement(tuple(inv), self.sign)

    def order(self) -> int:
        acc = self
        for k in range(1, 13):
            if acc == WeylElement.identity():
                return k
            acc = acc.compose(self)
        raise AssertionError("order must divide 12")

    def cycle_type_on_y(self) -> tuple[int, ...]:
        seen = [False] * 3
        out = []
        for i in range(3):
            if not seen[i]:
                length, j = 0, i
                while not seen[j]:
                    seen[j] = True
                    j = self.perm[j]
                    length += 1
                out.append(length)
        return tuple(sorted(out))

    def pattern_on_x(self) -> tuple[int, ...]:
        """Cycle type on the six symbols +-e_i under e_i -> s e_{sigma(i)}."""
        symbols = [(i, eps) for i in range(3) for eps in (1, -1)]
        image = {(i, eps): (self.perm[i], eps * self.sign) for i, eps in symbols}
        seen: set = set()
        out = []
        for start in symbols:
            if start not in seen:
                length, cur = 0, start
                while cur not in seen:
                    seen.add(cur)
                    cur = image[cur]
                    length += 1
                out.append(length)
        return tuple(sorted(out))

    def epsilon(self) -> int:
        """Sign of sigma: the character cut out by disc(Q)."""
        sign = 1
        for i, j in itertools.combinations(range(3), 2):
            if self.perm[i] > self.perm[j]:
                sign = -sign
        return sign

    def epsilon_prime(self) -> int:
        """Action sign on the product of (x_i - 1/x_i) over i.

        Each factor maps to (x_{sigma(i)}^s - x_{sigma(i)}^{-s}), picking up
        a factor s; reordering the commuting factors costs nothing.
        """
        return self.sign**3

    def matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Action on the plane in the basis u1 = e0 - e1, u2 = e1 - e2."""

        def diff_coords(a: int, b: int) -> tuple[int, int]:
            # coordinates of e_a - e_b in (u1, u2)
            table = {(0, 1): (1, 0), (1, 2): (0, 1), (0, 2): (1, 1)}
            if (a, b) in table:
                return table[(a, b)]
            x, y = table[(b, a)]
            return (-x, -y)

        s = self.sign
        c1 = diff_coords(self.perm[0], self.perm[1])
        c2 = diff_coords(self.perm[1], self.perm[2])
        return ((s * c1[0], s * c2[0]), (s * c1[1], s * c2[1]))

    def torus_poly(self) -> tuple[int, int, int]:
        """char(q I - M) ascending: (det, -trace, 1)."""
        (a, b), (c, d) = self.matrix()
        return (a * d - b * c, -(a + d), 1)


def enumerate_weyl() -> tuple[WeylElement, ...]:
    """All 12 elements, deterministic order."""
    return tuple(
        WeylElement(perm, sign)
        for perm in itertools.permutations(range(3))
        for sign in (1, -1)
    )


def _label_for(w: WeylElement) -> str:
    ctype = w.cycle_type_on_y()
    if ctype == (1, 1, 1):
        return "1a" if w.sign == 1 else "2c"
    if ctype == (1, 2):
        return "2a" if w.sign == 1 else "2b"
    return "3a" if w.sign == 1 else "6a"


@dataclass(frozen=True)
class DerivedClass:
    """A conjugacy class with every invariant computed from the model."""

    label: str
    size: int
    element_order: int
    pattern_on_y: tuple[int, ...]
    epsilon_prime: int
    epsilon: int
    pattern_on_x: tuple[int, ...]
    torus_poly: tuple[int, int, int]
    members: tuple[WeylElement, ...]


@functools.cache
def derive_weyl_classes() -> dict[str, DerivedClass]:
    """The conjugacy classes keyed by label, in label order 1a, 2a, 2b, 2c, 3a, 6a.

    Each element is closed under conjugation; the label rule must be
    constant on every orbit, and every member of a class must agree on
    every invariant.
    """
    elements = enumerate_weyl()
    classes: dict[str, DerivedClass] = {}
    for w in elements:
        label = _label_for(w)
        if label in classes:
            continue
        orbit = sorted({g.compose(w).compose(g.inverse()) for g in elements},
                       key=lambda e: (e.perm, -e.sign))
        if {_label_for(m) for m in orbit} != {label}:
            raise AssertionError("conjugation does not preserve the label rule")
        invariants = {
            (m.order(), m.cycle_type_on_y(), m.epsilon_prime(), m.epsilon(),
             m.pattern_on_x(), m.torus_poly())
            for m in orbit
        }
        if len(invariants) != 1:
            raise AssertionError(f"class {label} members disagree on invariants")
        order, ytype, epsp, eps, xpat, tpoly = invariants.pop()
        classes[label] = DerivedClass(label, len(orbit), order, ytype, epsp, eps, xpat, tpoly,
                                      tuple(orbit))
    if sum(c.size for c in classes.values()) != 12:
        raise AssertionError("class sizes do not sum to 12")
    return dict(sorted(classes.items()))


# ---------------------------------------------------------------------------
# the orders of the bounded maximal subgroups of G_2(p), from their formulas


def psl2_order(q: int) -> int:
    """|L2(q)| = q (q^2 - 1) / gcd(2, q - 1)."""
    return q * (q * q - 1) // math.gcd(2, q - 1)


BOUNDED_SUBGROUP_ORDERS = {
    # 2^3 . L3(2), with |L3(q)| = q^3 (q^3 - 1)(q^2 - 1) / gcd(3, q - 1) = 168 at q = 2
    "2^3.L3(2)": 2**3 * (2**3 * (2**3 - 1) * (2**2 - 1)),
    "L2(13)": psl2_order(13),
    # |G2(q)| = q^6 (q^6 - 1)(q^2 - 1)
    "G2(2)": 2**6 * (2**6 - 1) * (2**2 - 1),
    "L2(8)": psl2_order(8),
    # Z. Janko, A new finite simple group with abelian Sylow 2-subgroups and
    # its characterization, J. Algebra 3 (1966), 147-186
    "J1": 175560,
}
