"""Dense univariate polynomials over Q and over F_p.

Coefficients are stored ascending: a_0 + a_1 x + ... corresponds to the
tuple (a_0, a_1, ...).  The zero polynomial is the empty tuple; degree is
then -1.  RatPoly carries Fraction coefficients, ModPoly ints mod p.
"""

from __future__ import annotations

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

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_palindromic(self) -> bool:
        return bool(self.coeffs) and self.coeffs == tuple(reversed(self.coeffs))

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly(_trim([self[i] + other[i] for i in range(n)]))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly(_trim([self[i] - other[i] for i in range(n)]))

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "RatPoly | Fraction | int") -> "RatPoly":
        if isinstance(other, (Fraction, int)):
            if not other:
                return RatPoly(())
            return RatPoly(tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return RatPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RatPoly(_trim(out))

    __rmul__ = __mul__

    def evaluate(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RatPoly":
        return RatPoly(_trim([i * c for i, c in enumerate(self.coeffs)][1:]))

    def divmod_by(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.degree
        lead = other.lc
        quo = [Fraction(0)] * max(0, len(rem) - dn)
        for i in range(len(rem) - dn - 1, -1, -1):
            c = rem[i + dn] / lead
            if c:
                quo[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return RatPoly(_trim(quo)), RatPoly(_trim(rem[:dn]))

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


def resultant(f: RatPoly, g: RatPoly) -> Fraction:
    """Resultant of two nonzero polynomials, by the Euclidean recurrence."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    m, n = f.degree, g.degree
    if n == 0:
        return g.coeffs[0] ** m
    if m == 0:
        return f.coeffs[0] ** n
    _, r = f.divmod_by(g)
    if r.is_zero():
        return Fraction(0)
    sign = -1 if (m * n) % 2 else 1
    return sign * g.lc ** (m - r.degree) * resultant(g, r)


def discriminant(f: RatPoly) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f), n = deg f >= 1."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    fp = f.derivative()
    if fp.is_zero():
        return Fraction(0)
    r = resultant(f, fp)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * r / f.lc


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


@dataclass(frozen=True)
class ModPoly:
    p: int
    coeffs: tuple[int, ...]

    @classmethod
    def from_coeffs(cls, p: int, coeffs: Iterable[int]) -> "ModPoly":
        return cls(p, _trim([c % p for c in coeffs]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def derivative(self) -> "ModPoly":
        p = self.p
        return ModPoly(p, _trim([i * c % p for i, c in enumerate(self.coeffs)][1:]))

    def monic(self) -> "ModPoly":
        if self.is_monic():
            return self
        inv = pow(self.lc, -1, self.p)
        return ModPoly(self.p, _trim([c * inv % self.p for c in self.coeffs]))

    def __str__(self) -> str:
        return format_poly(self.coeffs, "x") + f" (mod {self.p})"


# ---------------------------------------------------------------------------
# list-level kernels over F_p (ascending coefficient lists, trimmed)


def _divmod(p: int, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError
    inv = pow(b[-1], -1, p)
    rem = list(a)
    dn = len(b) - 1
    quo = [0] * max(0, len(rem) - dn)
    for i in range(len(rem) - dn - 1, -1, -1):
        c = rem[i + dn] * inv % p
        if c:
            quo[i] = c
            for j, y in enumerate(b):
                rem[i + j] = (rem[i + j] - c * y) % p
    rem = rem[:dn]
    while rem and not rem[-1]:
        rem.pop()
    while quo and not quo[-1]:
        quo.pop()
    return quo, rem


def _mod(p: int, a: list[int], b: list[int]) -> list[int]:
    return _divmod(p, a, b)[1]


def _gcd(p: int, a: list[int], b: list[int]) -> list[int]:
    while b:
        a, b = b, _mod(p, a, b)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


class _ModulusEngine:
    """Arithmetic in F_p[x]/(f) on Kronecker-packed integers.

    A canonical element is an int whose W-bit limbs hold the n coefficients,
    each < p.  W leaves enough headroom that one full product plus the
    reduction additions never overflows a limb: limb values stay below
    (2n-1) p^2 < 2^W for n <= 8.  A constant c in [0, p) is its own packing,
    so callers compare an element with a constant directly.
    """

    __slots__ = ("p", "n", "W", "mask", "fred", "pall")

    def __init__(self, p: int, monic: Sequence[int]):
        n = len(monic) - 1
        if n < 1 or monic[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.p = p
        self.n = n
        self.W = 2 * p.bit_length() + 6
        self.mask = (1 << self.W) - 1
        # x^n = fred (mod f)
        self.fred = self.pack([(-c) % p for c in monic[:n]])
        # p in every limb: a + pall - b has no negative limb for canonical a, b
        self.pall = self.pack([p] * n)

    @property
    def x(self) -> int:
        """The element x, canonical for degree >= 2."""
        return 1 << self.W

    def pack(self, coeffs: Sequence[int]) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = (acc << self.W) | c
        return acc

    def unpack(self, t: int) -> list[int]:
        return [(t >> (self.W * i)) & self.mask for i in range(self.n)]

    def _canonical(self, t: int) -> int:
        W, mask, p = self.W, self.mask, self.p
        acc = 0
        for i in range(self.n - 1, -1, -1):
            acc = (acc << W) | ((t >> (W * i)) & mask) % p
        return acc

    def mulmod(self, a: int, b: int) -> int:
        t = a * b
        W, p, n, fred = self.W, self.p, self.n, self.fred
        for k in range(2 * n - 2, n - 1, -1):
            c = t >> (W * k)
            if c:
                t -= c << (W * k)
                c %= p
                if c:
                    t += (fred * c) << (W * (k - n))
        return self._canonical(t)

    def sub(self, a: int, b: int) -> int:
        return self._canonical(a + self.pall - b)

    def sub_const(self, a: int, c: int) -> int:
        """a - c for an integer c: only the constant limb changes."""
        low = a & self.mask
        return a + (low - c) % self.p - low

    def mul_x(self, a: int) -> int:
        t = a << self.W
        c = t >> (self.W * self.n)
        if c:
            t -= c << (self.W * self.n)
            t += self.fred * c
        return self._canonical(t)

    def pow_x(self, e: int) -> int:
        """Packed x^e mod f."""
        if self.n == 1:
            return pow(self.fred, e, self.p)
        if e == 0:
            return 1
        a = self.x
        for bit in bin(e)[3:]:
            a = self.mulmod(a, a)
            if bit == "1":
                a = self.mul_x(a)
        return a

    def compose(self, outer: Sequence[int], inner: int) -> int:
        """outer(inner) mod f, Horner on the packed inner value."""
        if not outer:
            return 0
        acc = outer[-1] % self.p
        for c in reversed(outer[:-1]):
            acc = self.sub_const(self.mulmod(acc, inner), -c)
        return acc


def _ddf(p: int, f: list[int]) -> DegreePattern:
    """Degree multiset of a monic squarefree f over F_p, by distinct-degree splitting."""
    f = list(f)
    pattern: list[int] = []
    eng = _ModulusEngine(p, f)
    h1 = eng.unpack(eng.pow_x(p)) if len(f) > 2 else [eng.pow_x(p)]
    while h1 and not h1[-1]:
        h1.pop()
    hd = list(h1)
    d = 1
    while True:
        n = len(f) - 1
        if n == 0:
            break
        if 2 * d > n:
            pattern.append(n)
            break
        if d > 1:
            hd = eng.unpack(eng.compose(hd, eng.pack(_pad(h1, eng.n))))
            while hd and not hd[-1]:
                hd.pop()
        sub = _pad(list(hd), 2)
        sub[1] = (sub[1] - 1) % p
        g = _gcd(p, f, _strip(sub))
        if len(g) > 1:
            pattern.extend([d] * ((len(g) - 1) // d))
            f = _divmod(p, f, g)[0]
            if len(f) - 1 == 0:
                break
            eng = _ModulusEngine(p, f)
            h1 = _mod(p, h1, f)
            hd = _mod(p, hd, f)
        d += 1
    return tuple(sorted(pattern))


def _pad(a: list[int], n: int) -> list[int]:
    return a + [0] * (n - len(a)) if len(a) < n else a


def _strip(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def degree_pattern(f: ModPoly) -> DegreePattern:
    """Degrees of the irreducible factors of a squarefree f, as a sorted tuple.

    Raises NotSeparableError when gcd(f, f') is nonconstant.
    """
    if f.degree < 1:
        raise ValueError("degree pattern needs degree >= 1")
    g = f.monic()
    fp = g.derivative()
    if fp.degree < 0 or len(_gcd(f.p, list(g.coeffs), list(fp.coeffs))) != 1:
        raise NotSeparableError(f"{f} has a repeated factor")
    return _ddf(f.p, list(g.coeffs))
