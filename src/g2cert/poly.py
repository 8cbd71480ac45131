"""Dense univariate polynomials over Q and over F_p.

Coefficients are stored ascending: a_0 + a_1 x + ... corresponds to the
tuple (a_0, a_1, ...).  The zero polynomial is the empty tuple; degree is
then -1.  RatPoly carries Fraction coefficients, ModPoly ints mod p.

Over F_p only the trace cubic Q and the sextic P occur, each with a
straight-line product on int tuples and an x^e ladder that squares (6
and 21 coefficient products) and steps by x on local ints, with no call
and no tuple per step.  degree_pattern reads factor patterns off the
Frobenius matrix M, column i = x^(ip) mod f, so a^p = M a (Berlekamp
1967), and takes no gcd; column 0 is e_0, so the reads use columns 1 to 5
only, unpacked into locals.  For squarefree f,
F_p[x]/(f) is the product of fields F_(p^d), on which the k-th Frobenius
power fixes a normal basis if d | k and moves all of it otherwise; so
tr M^k = N_k = sum of d n_d over d | k (mod p): r1 = tr M, and
r1 + 2 n2 = tr M^2 = sum of M_ij M_ji.  Counts are at most 6, so for
p >= 7 the residues are the counts; at p = 5 a squarefree sextic has at
most 4 roots, and 0, 2, 4, 6 have distinct residues.  At p = 3, where 3 and
6 vanish, r1 is counted as the roots among 0, 1, -1, and 2 n2 = 6, i.e.
(2, 2, 2), holds exactly when x^(p^2) = x.  The factors left have degree
>= 3: a leftover m <= 5 is one factor, and m = 6 is (3, 3) when
x^(p^3) = x, else (6).  x^(p^k) - x has derivative -1, so it is squarefree,
the product of the monic irreducibles of degree dividing k: x^(p^L) = x
mod f exactly when f is squarefree with all factor degrees dividing L.
The sextic's pattern is checked that way, L the lcm of its degrees, by
x^(p^(k+1)) = M x^(p^k): if the check holds f is squarefree, so the traces
were read right; if f is squarefree, they were and it holds.  A failed
check, or traces no pattern fits, proves a repeated factor.  The cubic is
squarefree by its discriminant, and once x^p != x its r1 = tr M =
1 + (x^p)_1 + (x^(2p))_2 is 1 or 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .arith import format_rational, parse_rational
from .errors import NotSeparableError

DegreePattern = tuple[int, ...]


def _trim(coeffs: list) -> tuple:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class RatPoly:
    coeffs: tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Fraction | int | str]) -> "RatPoly":
        out = [Fraction(c) for c in coeffs]
        return cls(_trim(out))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_palindromic(self) -> bool:
        return bool(self.coeffs) and self.coeffs == tuple(reversed(self.coeffs))

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def evaluate(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RatPoly":
        return RatPoly(_trim([i * c for i, c in enumerate(self.coeffs)][1:]))

    def to_strings(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> "RatPoly":
        return cls(_trim([parse_rational(s) for s in items]))

    def __str__(self) -> str:
        return format_poly(self.coeffs, "x")


def format_poly(coeffs: Sequence, var: str) -> str:
    """Human form, highest degree first: "x^3 + 5/4*x^2 - 49/16"."""
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            x = var if i == 1 else f"{var}^{i}"
            body = x if mag == 1 else f"{mag}*{x}"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def deflate_root_one(f: RatPoly) -> RatPoly:
    """Exact synthetic division by (x - 1); requires f(1) = 0."""
    if f.degree < 1:
        raise ValueError("cannot deflate a constant")
    out = [Fraction(0)] * f.degree
    acc = Fraction(0)
    for i in range(f.degree, 0, -1):
        acc += f.coeffs[i]
        out[i - 1] = acc
    if acc + f.coeffs[0] != 0:
        raise ValueError("1 is not a root, remainder {}".format(acc + f.coeffs[0]))
    return RatPoly(_trim(out))


def cubic_discriminant(c, b, a):
    """Discriminant of the monic cubic y^3 + a y^2 + b y + c, in the ring of its coefficients."""
    return 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c


@dataclass(frozen=True)
class ModPoly:
    p: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        return format_poly(self.coeffs, "x") + f" (mod {self.p})"


# ---------------------------------------------------------------------------
# fixed-degree kernels over F_p
#
# An element of F_p[x]/(f), f monic of degree 3 or 6, is 3 or 6 ints
# (ascending).  The kernels accept any ints and return canonical residues in
# [0, p), so a caller may feed them unreduced sums.  The x^e ladders keep the
# element a in local ints and overwrite it from the top coefficient down: the
# x^k coefficient of a^2 reads only a_0, ..., a_k, and that of x a only a_(k-1).


def _cubic_ring(p: int, f: Sequence[int]):
    """Multiplication in F_p[x]/(f) for monic f = (f0, f1, f2, 1)."""
    r0, r1, r2 = -f[0] % p, -f[1] % p, -f[2] % p  # x^3 = r2 x^2 + r1 x + r0

    def mul(a, b):
        a0, a1, a2 = a
        b0, b1, b2 = b
        t4 = a2 * b2 % p
        t3 = (a1 * b2 + a2 * b1 + t4 * r2) % p
        return (
            (a0 * b0 + t3 * r0) % p,
            (a0 * b1 + a1 * b0 + t4 * r0 + t3 * r1) % p,
            (a0 * b2 + a1 * b1 + a2 * b0 + t4 * r1 + t3 * r2) % p,
        )

    return mul


def _cubic_pow_x(p: int, f: Sequence[int], e: int) -> tuple[int, int, int]:
    """x^e in F_p[x]/(f) for monic f = (f0, f1, f2, 1) and e >= 1, by square-and-multiply."""
    r0, r1, r2 = -f[0] % p, -f[1] % p, -f[2] % p
    a0, a1, a2 = 0, 1, 0
    for bit in bin(e)[3:]:
        # square (6 products), folding the x^4 and x^3 coefficients t4, t3 down
        d0 = a0 + a0
        t4 = a2 * a2 % p
        t3 = ((a1 + a1) * a2 + t4 * r2) % p
        a2 = (d0 * a2 + a1 * a1 + t4 * r1 + t3 * r2) % p
        a1 = (d0 * a1 + t4 * r0 + t3 * r1) % p
        a0 = (a0 * a0 + t3 * r0) % p
        if bit == "1":
            a0, a1, a2 = a2 * r0 % p, (a0 + a2 * r1) % p, (a1 + a2 * r2) % p
    return a0, a1, a2


def _sextic_ring(p: int, f: Sequence[int]):
    """Multiplication in F_p[x]/(f) for monic f = (f0, ..., f5, 1)."""
    r0, r1, r2, r3, r4, r5 = (-c % p for c in f[:6])  # x^6 = r5 x^5 + ... + r0

    def mul(a, b):
        a0, a1, a2, a3, a4, a5 = a
        b0, b1, b2, b3, b4, b5 = b
        # fold the product's x^10, ..., x^6 coefficients t4, ..., t0 down
        t4 = a5 * b5 % p
        t3 = (a4 * b5 + a5 * b4 + t4 * r5) % p
        t2 = (a3 * b5 + a4 * b4 + a5 * b3 + t4 * r4 + t3 * r5) % p
        t1 = (a2 * b5 + a3 * b4 + a4 * b3 + a5 * b2 + t4 * r3 + t3 * r4 + t2 * r5) % p
        t0 = (a1 * b5 + a2 * b4 + a3 * b3 + a4 * b2 + a5 * b1
              + t4 * r2 + t3 * r3 + t2 * r4 + t1 * r5) % p
        return (
            (a0 * b0 + t0 * r0) % p,
            (a0 * b1 + a1 * b0 + t1 * r0 + t0 * r1) % p,
            (a0 * b2 + a1 * b1 + a2 * b0 + t2 * r0 + t1 * r1 + t0 * r2) % p,
            (a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
             + t3 * r0 + t2 * r1 + t1 * r2 + t0 * r3) % p,
            (a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0
             + t4 * r0 + t3 * r1 + t2 * r2 + t1 * r3 + t0 * r4) % p,
            (a0 * b5 + a1 * b4 + a2 * b3 + a3 * b2 + a4 * b1 + a5 * b0
             + t4 * r1 + t3 * r2 + t2 * r3 + t1 * r4 + t0 * r5) % p,
        )

    return mul


def _sextic_pow_x(p: int, f: Sequence[int], e: int) -> tuple[int, ...]:
    """x^e in F_p[x]/(f) for monic f = (f0, ..., f5, 1) and e >= 1, by square-and-multiply."""
    r0, r1, r2, r3, r4, r5 = (-c % p for c in f[:6])
    a0, a1, a2, a3, a4, a5 = 0, 1, 0, 0, 0, 0
    for bit in bin(e)[3:]:
        # square (21 products), folding the x^10, ..., x^6 coefficients t4, ..., t0 down
        d0 = a0 + a0
        d1 = a1 + a1
        d2 = a2 + a2
        d3 = a3 + a3
        t4 = a5 * a5 % p
        t3 = ((a4 + a4) * a5 + t4 * r5) % p
        t2 = (d3 * a5 + a4 * a4 + t4 * r4 + t3 * r5) % p
        t1 = (d2 * a5 + d3 * a4 + t4 * r3 + t3 * r4 + t2 * r5) % p
        t0 = (d1 * a5 + d2 * a4 + a3 * a3 + t4 * r2 + t3 * r3 + t2 * r4 + t1 * r5) % p
        a5 = (d0 * a5 + d1 * a4 + d2 * a3 + t4 * r1 + t3 * r2 + t2 * r3 + t1 * r4 + t0 * r5) % p
        a4 = (d0 * a4 + d1 * a3 + a2 * a2 + t4 * r0 + t3 * r1 + t2 * r2 + t1 * r3 + t0 * r4) % p
        a3 = (d0 * a3 + d1 * a2 + t3 * r0 + t2 * r1 + t1 * r2 + t0 * r3) % p
        a2 = (d0 * a2 + a1 * a1 + t2 * r0 + t1 * r1 + t0 * r2) % p
        a1 = (d0 * a1 + t1 * r0 + t0 * r1) % p
        a0 = (a0 * a0 + t0 * r0) % p
        if bit == "1":
            t = a5
            a5 = (a4 + t * r5) % p
            a4 = (a3 + t * r4) % p
            a3 = (a2 + t * r3) % p
            a2 = (a1 + t * r2) % p
            a1 = (a0 + t * r1) % p
            a0 = t * r0 % p
    return a0, a1, a2, a3, a4, a5


def _cubic_pattern(p: int, f: Sequence[int]) -> DegreePattern:
    """Squarefree monic cubic: (1, 1, 1) iff x^p = x, else r1 = tr M = 1 + (x^p)_1 + (x^2p)_2."""
    xp = _cubic_pow_x(p, f, p)
    if xp == (0, 1, 0):
        return (1, 1, 1)
    return (1, 2) if (1 + xp[1] + _cubic_ring(p, f)(xp, xp)[2]) % p == 1 else (3,)


def _sextic_pattern(p: int, f: Sequence[int]) -> DegreePattern | None:
    """Pattern of a monic sextic, or None when it has a repeated factor."""
    mul = _sextic_ring(p, f)
    # Frobenius matrix: column j holds x^(jp), so a^p = M a for every a.
    # Column 0 is e_0, so the reads below need only m_ij = M_ij for j >= 1,
    # coefficient i of x^(jp).
    xp = _sextic_pow_x(p, f, p)
    x2p = mul(xp, xp)
    x3p = mul(x2p, xp)
    x4p = mul(x3p, xp)
    m01, m11, m21, m31, m41, m51 = xp
    m02, m12, m22, m32, m42, m52 = x2p
    m03, m13, m23, m33, m43, m53 = x3p
    m04, m14, m24, m34, m44, m54 = x4p
    m05, m15, m25, m35, m45, m55 = mul(x4p, xp)
    powers = [(0, 1, 0, 0, 0, 0), xp]  # powers[k] = x^(p^k)

    def fixed(k: int) -> bool:  # x^(p^k) = x
        while len(powers) <= k:  # x^(p^(k+1)) = M x^(p^k)
            v0, v1, v2, v3, v4, v5 = powers[-1]
            powers.append((
                (v0 + v1 * m01 + v2 * m02 + v3 * m03 + v4 * m04 + v5 * m05) % p,
                (v1 * m11 + v2 * m12 + v3 * m13 + v4 * m14 + v5 * m15) % p,
                (v1 * m21 + v2 * m22 + v3 * m23 + v4 * m24 + v5 * m25) % p,
                (v1 * m31 + v2 * m32 + v3 * m33 + v4 * m34 + v5 * m35) % p,
                (v1 * m41 + v2 * m42 + v3 * m43 + v4 * m44 + v5 * m45) % p,
                (v1 * m51 + v2 * m52 + v3 * m53 + v4 * m54 + v5 * m55) % p,
            ))
        return powers[k] == powers[0]

    if p == 3:  # 3 roots read as 0: count the roots among 0, 1, -1
        r1 = sum(sum(c * t**i for i, c in enumerate(f)) % 3 == 0 for t in (0, 1, -1))
    else:
        r1 = (1 + m11 + m22 + m33 + m44 + m55) % p
    # tr M^2 = sum of M_ij M_ji = 1 + the sum over i, j >= 1 = r1 + 2 n2; at
    # p = 3 and r1 = 0, 2 n2 is 0 or 6
    trace2 = (1 + m11 * m11 + m22 * m22 + m33 * m33 + m44 * m44 + m55 * m55
              + 2 * (m12 * m21 + m13 * m31 + m14 * m41 + m15 * m51 + m23 * m32
                     + m24 * m42 + m25 * m52 + m34 * m43 + m35 * m53 + m45 * m54))
    evens = [e for e in range(0, 7 - r1, 2) if (trace2 - r1 - e) % p == 0]
    if len(evens) == 2 and fixed(2):
        return (2, 2, 2)
    if not evens:
        return None
    rest = 6 - r1 - evens[0]
    if rest in (1, 2):  # a factor of degree 1 or 2 would have been counted
        return None
    if rest == 6 and fixed(3):
        return (3, 3)
    pattern = tuple(sorted((1,) * r1 + (2,) * (evens[0] // 2) + ((rest,) if rest else ())))
    return pattern if fixed(math.lcm(*pattern)) else None


def degree_pattern(f: ModPoly) -> DegreePattern:
    """Degrees of the irreducible factors of a squarefree cubic or sextic, sorted.

    Raises NotSeparableError for a repeated factor, and ValueError for any
    degree other than 3 or 6 or for p = 2.
    """
    if f.degree not in (3, 6) or f.p < 3:
        raise ValueError(f"degree patterns are computed for degrees 3 and 6 mod odd p, got {f}")
    p, inv = f.p, pow(f.coeffs[-1], -1, f.p)
    coeffs = [c * inv % p for c in f.coeffs]  # monic
    if f.degree == 3:
        if cubic_discriminant(*coeffs[:3]) % p:
            return _cubic_pattern(p, coeffs)
    else:
        pattern = _sextic_pattern(p, coeffs)
        if pattern:
            return pattern
    raise NotSeparableError(f"{f} has a repeated factor")
