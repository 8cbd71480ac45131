"""Independent reference implementations used to validate the package.

Everything here is written the slow, obvious way on purpose: trial
division, root sweeps, multiply-until-identity loops.  None of it shares
code with the fast paths in the package, so agreement is meaningful.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from g2cert.poly import ModPoly


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


def mod_poly(p: int, coeffs: list[int]):
    """The package's ModPoly of coeffs reduced mod p, zero leading terms dropped."""
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return ModPoly(p, tuple(out))


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


def naive_derivative(f: list[int], p: int) -> list[int]:
    """Formal derivative over F_p, coefficients ascending."""
    return [i * c % p for i, c in enumerate(f)][1:]


def naive_gcd_degree(a: list[int], b: list[int], p: int) -> int:
    """Degree of gcd(a, b) over F_p by plain Euclid on coefficient lists."""

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
    return len(a) - 1


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
