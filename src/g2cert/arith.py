"""Exact integer and rational arithmetic helpers.

Rationals are fractions.Fraction throughout: always normalized, exact, and
str() already gives the canonical "num/den" wire form (denominator omitted
when it is 1).  Integers are plain Python ints.  is_prime is a proof only
below PRIME_PROOF_BOUND; require_proven_prime refuses the rest.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import FactoringBudgetError

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")

# psi_k is the least strong pseudoprime to each of the first k primes, so
# below psi_k those k Miller-Rabin witnesses decide primality.  _MR_TIERS
# holds (psi_k, k) for the least k of each distinct value: psi_1 to psi_4
# from Pomerance, Selfridge and Wagstaff (Math. Comp. 35, 1980), psi_5 to
# psi_8 = psi_7 from Jaeschke (Math. Comp. 61, 1993), psi_9 = psi_10 =
# psi_11 from Jiang and Deng (Math. Comp. 83, 2014), psi_12 and psi_13 from
# Sorenson and Webster (Math. Comp. 86, 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_PROOF_BOUND = 3317044064679887385961981  # psi_13
_MR_TIERS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
             (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
             (318665857834031151167461, 12), (PRIME_PROOF_BOUND, 13))

_TRIAL_BOUND = 1000


def parse_rational(s: str) -> Fraction:
    """Parse the canonical form that str() gives a Fraction (see the module docstring)."""
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a canonical rational: {s!r}")
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den or 1))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PRIME_PROOF_BOUND; probable above it."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    count = next((k for bound, k in _MR_TIERS if n < bound), len(_MR_WITNESSES))
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[:count]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_proven_prime(n: int) -> None:
    """ValueError unless is_prime proves n prime: n is prime and below PRIME_PROOF_BOUND."""
    if n >= PRIME_PROOF_BOUND:
        raise ValueError(f"need a prime below {PRIME_PROOF_BOUND}, where primality is proven; got {n}")
    if not is_prime(n):
        raise ValueError(f"need an odd prime, got {n}")


# primes_up_to(n) holds about n bytes plus 36 per prime: some 3 GB here
SIEVE_LIMIT = 10**9


def require_sievable(n: int) -> None:
    """ValueError unless n <= SIEVE_LIMIT, the largest limit primes_up_to sieves."""
    if n > SIEVE_LIMIT:
        raise ValueError(f"limit {n} is above the sieve bound {SIEVE_LIMIT}")


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending, by sieve of Eratosthenes; n <= SIEVE_LIMIT."""
    require_sievable(n)
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if sieve[i]]


_SMALL_PRIMES = primes_up_to(_TRIAL_BOUND)


def _brent_rho(n: int, steps: float) -> tuple[int | None, float]:
    # Brent's cycle variant with batched gcds; deterministic parameter
    # sequence so factorizations are reproducible.  (factor, steps left), or
    # None once a block of steps y -> y^2 + c would spend more than steps; a
    # backtrack after a gcd of n retraces at most m = 128 of them uncounted.
    if n % 2 == 0:
        return 2, steps
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            steps -= r
            if steps < 0:
                return None, steps
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps -= min(m, r - k)
                if steps < 0:
                    return None, steps
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, steps
    raise ArithmeticError(f"rho failed to split {n}")


def factor_integer(n: int, max_steps: int | None = None) -> dict[int, int]:
    """Complete factorization of |n| as {prime: exponent}, primes ascending.

    Trial division by small primes first, then Pollard-Brent rho on what
    remains.  Every recorded prime passes is_prime: proven below
    PRIME_PROOF_BOUND, probable above it.  With max_steps, rho takes at
    most that many steps in all, and FactoringBudgetError names the digit
    count of the cofactor it leaves unsplit.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    m = abs(n)
    counts: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    steps = math.inf if max_steps is None else max_steps
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        d, steps = _brent_rho(m, steps)
        if d is None:
            digits = len(str(m))
            raise FactoringBudgetError(f"no factor of a {digits}-digit cofactor within {max_steps} rho steps")
        m //= d
        stack.append(d)
        while m % d == 0:  # a repeated factor: split off every copy at once
            m //= d
            stack.append(d)
        if m > 1:
            stack.append(m)
    return dict(sorted(counts.items()))


def is_square(n: int) -> bool:
    """Whether the integer n is the square of an integer."""
    return n >= 0 and math.isqrt(n) ** 2 == n


def squarefree_kernel(r: Fraction | int, exponents: dict[int, int]) -> int:
    """Squarefree d with r = d s^2, s rational, sign kept, from the prime exponents of num(r) den(r)."""
    return (1 if r > 0 else -1) * math.prod(q for q, e in exponents.items() if e % 2)
