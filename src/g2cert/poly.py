"""Dense univariate polynomials over Q and over F_p.

Coefficients are stored ascending: a_0 + a_1 x + ... corresponds to the
tuple (a_0, a_1, ...).  The zero polynomial is the empty tuple; degree is
then -1.  RatPoly carries Fraction coefficients; over F_p a polynomial is
a plain tuple of ints mod p.

Over F_p only the trace cubic Q and the palindromic sextic
P = x^3 Q(x + 1/x) occur, and both run on one cubic kernel: a
straight-line product on int tuples, and every ladder over F_p[y]/(Q),
on local ints with no call per step: the Frobenius pass over the bits of
p (_frobenius) and the Dickson ladder (_dickson).  No other module
multiplies in F_p[y]/(Q).  Factor patterns are read off the matrix M of
the Frobenius a -> a^p of F_p[x]/(f) (Berlekamp 1967), with no gcd.  For
squarefree f, F_p[x]/(f) is the product of fields F_(p^d), on which the
k-th Frobenius power fixes a normal basis if d | k and moves all of it
otherwise; so tr M^k = N_k = sum of d n_d over d | k (mod p): r1 = tr M,
and r1 + 2 n2 = tr M^2 = sum of M_ij M_ji.

P is worked in a tower.  y -> x + 1/x (x is a unit, P(0) = 1) maps
R[x]/(x^2 - yx + 1), R = F_p[y]/(Q), onto F_p[x]/(P), and both have
dimension 6, so the map is an isomorphism.  With z = x - 1/x, 2x = y + z
and z^2 = y^2 - 4; 2 is a unit, so 1, z is an R-basis as 1, x is.  In
characteristic p, z^p = z (z^2)^((p-1)/2) = U z, where V = y^p and U =
(y^2 - 4)^((p-1)/2) come from one pass over the bits of p (_frobenius).
V is also the Frobenius image that Q's own pattern reads, so one pass and
one V^2 serve both patterns, as in reduction.classify.  Frobenius acts on
R by phi, whose matrix M_Q has columns 1, V, V^2, and phi(r + s z) =
phi(r) + phi(s) U z, so in the basis 1, y, y^2, z, zy, zy^2 its matrix is
block-diagonal, M = diag(M_Q, N), with N: t -> U phi(t), whose columns are
U, UV, UV^2.  Traces do not depend on the basis, so tr M^k = tr M_Q^k +
tr N^k.

Counts are at most 6, so for p >= 7 the residues are the counts.  The
roots of a squarefree palindromic P pair off as t, 1/t with t != +-1:
P(0) = 1, and P(t) = t^6 P(1/t) gives 2 P'(+-1) = +-6 P(+-1), so a root at
1 or -1 is repeated.  At p = 5 that leaves the roots 2 and 3 = 1/2, and
0, 2, 4, 6 have distinct residues; at p = 3 it leaves none, so r1 = tr M
= 0 is read right although 3 vanishes, and 2 n2 = 6, i.e. (2, 2, 2), holds
exactly when x^(p^2) = x.  The factors left have degree >= 3: a leftover
m <= 5 is one factor, and m = 6 is (3, 3) when x^(p^3) = x, else (6).
x^(p^k) - x has derivative -1, so it is squarefree, the product of the
monic irreducibles of degree dividing k: x^(p^L) = x mod f exactly when
f is squarefree with all factor degrees dividing L.  The sextic's pattern
is checked that way, L the lcm of its degrees, in the tower:
x^(p^k) = (phi^k(y) + U_k z)/2 with U_1 = U and U_(k+1) = phi(U_k) U, so
the check is (phi^L(y), U_L) = (y, 1), one product in R per tower step.
Through the isomorphism, if the check holds P is squarefree, so the traces
were read right; if P is squarefree, they were and it holds.  A failed
check, or traces no pattern fits, proves a repeated factor.  For (6) the
check is read at x^(p^3) = 1/x = (y - z)/2, i.e. (phi^3(y), U_3) = (y, -1)
(_sextic_pattern), so a squarefree P takes at most 3 tower steps from
(V, U), the 3 to x^(p^4) for a factor of degree 4.  The cubic's pattern
assumes it squarefree, which its caller establishes, and once x^p != x
its r1 = tr M = 1 + (x^p)_1 + (x^(2p))_2 is 1 or 0.

Element orders are computed on the trace side: x^m = 1 for every root x
of P mod p exactly when the trace sequence V_m (V_0 = 2, V_1 = y,
V satisfies the x + 1/x doubling rules) equals the constant 2 in
F_p[y]/(Q).  That turns an order computation in degree-6 extensions into
cubic arithmetic with a logarithmic ladder (_dickson).  V_m(y) is the
Dickson polynomial D_m(y), and D_a(D_b(y)) = D_ab(y), so the exact order
descends from the torus order T along one split chain: about
log T + log(T/q_max) bits of ladder for the cofactors V_(T/q^e) of all the
prime-power parts q^e of T, one check of V_T = 2, then short ladders of
length log q (see reduction.ReductionContext.order_report).  At m = p the
two ladders meet: D_p(y) = y^p in characteristic p, the V of _frobenius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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
        out = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        return cls(_trim(out))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def is_palindromic(self) -> bool:
        return bool(self.coeffs) and self.coeffs == tuple(reversed(self.coeffs))

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        return format_poly(self.coeffs, "x")


def format_poly(coeffs: Sequence, var: str) -> str:
    """Human form, highest degree first: "x^3 + 5/4*x^2 - 49/16"."""
    text = ""
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        mag = str(c)  # an int or a Fraction: "-" and then |c|, or |c|
        if mag[0] == "-":
            mag = mag[1:]
            text += " - " if text else "-"
        elif text:
            text += " + "
        if i:
            x = var if i == 1 else f"{var}^{i}"
            mag = x if mag == "1" else f"{mag}*{x}"
        text += mag
    return text or "0"


def integer_model(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(nums, d) with coeffs[i] = nums[i] / d, d the least common denominator.

    Reads numerators and denominators only; no Fraction is built.
    """
    d = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def deflate_root_one(f: RatPoly) -> RatPoly:
    """Exact synthetic division by (x - 1); requires f(1) = 0.

    Runs on the integer numerators over f's common denominator d: the
    quotient's coefficients are the suffix sums, and f(1) is the sum of
    all of them, over d.
    """
    if f.degree < 1:
        raise ValueError("cannot deflate a constant")
    nums, d = integer_model(f.coeffs)
    acc, out = 0, []
    for c in reversed(nums[1:]):
        acc += c
        out.append(acc)
    if acc + nums[0]:
        raise ValueError(f"1 is not a root, remainder {Fraction(acc + nums[0], d)}")
    return RatPoly(_trim([Fraction(c, d) for c in reversed(out)]))


def cubic_discriminant(c, b, a):
    """Discriminant of the monic cubic y^3 + a y^2 + b y + c, in the ring of its coefficients."""
    return 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c


# ---------------------------------------------------------------------------
# the cubic kernel over F_p
#
# An element of F_p[x]/(f), f monic cubic, is 3 ints (ascending).  The
# kernels accept any ints and return canonical residues in [0, p), so a
# caller may feed them unreduced sums.


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


def _frobenius(p: int, q: Sequence[int]) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """(V, U) = (y^p, (y^2 - 4)^((p-1)/2)) in F_p[y]/(q), q = (q0, q1, q2, 1) monic, p odd.

    One square-and-multiply pass over the bits of p holds a = y^k and
    b = (y^2 - 4)^k for each prefix k; at k = p >> 1 = (p - 1)/2, b is U and
    a takes one more square and step by y.  A square folds the y^4 and y^3
    coefficients t4, t3 down.
    """
    r0, r1, r2 = -q[0] % p, -q[1] % p, -q[2] % p  # y^3 = r2 y^2 + r1 y + r0
    a0, a1, a2, b0, b1, b2 = 0, 1, 0, -4 % p, 0, 1
    for bit in bin(p)[3:-1]:
        d0, t4 = a0 + a0, a2 * a2 % p
        t3 = ((a1 + a1) * a2 + t4 * r2) % p
        a0, a1, a2 = ((a0 * a0 + t3 * r0) % p, (d0 * a1 + t4 * r0 + t3 * r1) % p,
                      (d0 * a2 + a1 * a1 + t4 * r1 + t3 * r2) % p)
        d0, t4 = b0 + b0, b2 * b2 % p
        t3 = ((b1 + b1) * b2 + t4 * r2) % p
        b0, b1, b2 = ((b0 * b0 + t3 * r0) % p, (d0 * b1 + t4 * r0 + t3 * r1) % p,
                      (d0 * b2 + b1 * b1 + t4 * r1 + t3 * r2) % p)
        if bit == "1":  # y a = (a2 r0, a0 + a2 r1, a1 + a2 r2); y (y b) - 4 b
            a0, a1, a2 = a2 * r0 % p, (a0 + a2 * r1) % p, (a1 + a2 * r2) % p
            c2 = (b1 + b2 * r2) % p
            b0, b1, b2 = ((c2 * r0 - 4 * b0) % p, (b2 * r0 + c2 * r1 - 4 * b1) % p,
                          (b0 + b2 * r1 + c2 * r2 - 4 * b2) % p)
    d0, t4 = a0 + a0, a2 * a2 % p
    t3 = ((a1 + a1) * a2 + t4 * r2) % p
    a0, a1, a2 = ((a0 * a0 + t3 * r0) % p, (d0 * a1 + t4 * r0 + t3 * r1) % p,
                  (d0 * a2 + a1 * a1 + t4 * r1 + t3 * r2) % p)
    return (a2 * r0 % p, (a0 + a2 * r1) % p, (a1 + a2 * r2) % p), (b0, b1, b2)


def _dickson(p: int, f: Sequence[int], s: tuple[int, int, int], m: int) -> tuple[int, int, int]:
    """D_m(s) = V_m for V_0 = 2, V_1 = s, in F_p[y]/(f), f monic cubic; m >= 1.

    With s = y = x + 1/x, V_m = x^m + x^-m, and (x^m - 1)^2 = x^m (V_m - 2),
    so V_m = 2 exactly when x^m = 1 for every root x of P: over each
    component field the test is exact, and the ring checks them all at
    once.  The ladder keeps (V_k, V_(k+1)) in the locals v0, v1, v2, w0, w1,
    w2 from (V_0, V_1) = (2, s) and walks every bit of m.  A step forms
    c = V_k V_(k+1) - s = V_(2k+1), squares the V_j that the bit selects,
    V_2j = V_j^2 - 2, and takes (V_2k, c) for a 0 bit and (c, V_(2k+2)) for
    a 1.  The leading bit gives (V_1, V_2) = (s, s^2 - 2), as 2 s - s = s.
    """
    r0, r1, r2 = -f[0] % p, -f[1] % p, -f[2] % p  # y^3 = r2 y^2 + r1 y + r0
    s0, s1, s2 = s
    v0, v1, v2, w0, w1, w2 = 2, 0, 0, s0, s1, s2
    for bit in bin(m)[2:]:
        t4 = v2 * w2 % p  # c = V_k V_(k+1) - s
        t3 = (v1 * w2 + v2 * w1 + t4 * r2) % p
        c0 = (v0 * w0 + t3 * r0 - s0) % p
        c1 = (v0 * w1 + v1 * w0 + t4 * r0 + t3 * r1 - s1) % p
        c2 = (v0 * w2 + v1 * w1 + v2 * w0 + t4 * r1 + t3 * r2 - s2) % p
        if bit == "1":  # (V_(2k+1), V_(2k+2)) = (c, V_(k+1)^2 - 2)
            a0, a1, a2, v0, v1, v2 = w0, w1, w2, c0, c1, c2
        else:  # (V_2k, V_(2k+1)) = (V_k^2 - 2, c)
            a0, a1, a2, w0, w1, w2 = v0, v1, v2, c0, c1, c2
        d0, t4 = a0 + a0, a2 * a2 % p  # a = V_j^2 - 2 for the selected V_j
        t3 = ((a1 + a1) * a2 + t4 * r2) % p
        a0, a1, a2 = ((a0 * a0 + t3 * r0 - 2) % p, (d0 * a1 + t4 * r0 + t3 * r1) % p,
                      (d0 * a2 + a1 * a1 + t4 * r1 + t3 * r2) % p)
        if bit == "1":
            w0, w1, w2 = a0, a1, a2
        else:
            v0, v1, v2 = a0, a1, a2
    return v0, v1, v2


def _cubic_pattern(p: int, v: tuple, w: tuple) -> DegreePattern:
    """Pattern of the monic cubic f that the caller knows squarefree, given v = x^p and
    w = x^2p mod f: (1, 1, 1) iff x^p = x, else r1 = tr M = 1 + (x^p)_1 + (x^2p)_2."""
    if v == (0, 1, 0):
        return (1, 1, 1)
    return (1, 2) if (1 + v[1] + w[2]) % p == 1 else (3,)


def _sextic_pattern(p: int, mul, v, w, u) -> DegreePattern | None:
    """Pattern of the monic palindromic sextic x^3 Q(x + 1/x), None for a repeated factor,
    given mul of R = F_p[y]/(Q), and V = y^p, V^2 and U = (y^2 - 4)^((p-1)/2) in R.

    Frobenius is diag(M_Q, N) in the basis 1, y, y^2, z, zy, zy^2, z = x - 1/x,
    and a tower step maps (phi^k(y), U_k) to (phi^(k+1)(y), phi(U_k) U), one
    product in R.  When the traces leave one factor of degree 6 and
    x^(p^3) != x, (6) holds exactly when x^(p^3) = 1/x = (y - z)/2, i.e.
    (phi^3(y), U_3) = (y, -1).  If P is irreducible, sigma^3 : a -> a^(p^3)
    is the involution of F_(p^6)/F_(p^3), so it fixes y, a root of the cubic
    Q, and sends x, not in F_(p^3), to the other root 1/x of t^2 - y t + 1.
    Conversely x^(p^3) = 1/x gives x^(p^6) = x, the check for L = 6.
    Unlike _cubic_pattern it proves squarefreeness itself, for any Q.
    """
    (v0, v1, v2), (w0, w1, w2), (u0, u1, u2) = v, w, u
    c0, c1, c2 = mul(u, v)  # N has columns U, U V, U V^2
    d0, d1, d2 = mul(u, w)
    # tr M^k = tr M_Q^k + tr N^k; tr M^2 = r1 + 2 n2
    r1 = (1 + v1 + w2 + u0 + c1 + d2) % p
    trace2 = (1 + v1 * v1 + w2 * w2 + 2 * v2 * w1
              + u0 * u0 + c1 * c1 + d2 * d2 + 2 * (u1 * c0 + u2 * d0 + c2 * d1))
    evens = [e for e in range(0, 7 - r1, 2) if (trace2 - r1 - e) % p == 0]
    x = ((0, 1, 0), (1, 0, 0))  # (y, 1): x^(p^k) = x exactly when _tower gives it
    if len(evens) == 2 and _tower(p, mul, v, w, u, 2) == x:
        return (2, 2, 2)
    if not evens:
        return None
    rest = 6 - r1 - evens[0]
    if rest in (1, 2):  # a factor of degree 1 or 2 would have been counted
        return None
    if rest == 6:
        cubed = _tower(p, mul, v, w, u, 3)
        if cubed == x:
            return (3, 3)
        return (6,) if cubed == ((0, 1, 0), (p - 1, 0, 0)) else None
    pattern = tuple(sorted((1,) * r1 + (2,) * (evens[0] // 2) + ((rest,) if rest else ())))
    return pattern if _tower(p, mul, v, w, u, math.lcm(*pattern)) == x else None


def _tower(p: int, mul, v, w, u, k: int) -> tuple[tuple, tuple]:
    """(phi^k(y), U_k) for k >= 1, x^(p^k) = (phi^k(y) + U_k z)/2: k - 1 steps from (V, U)."""
    (v0, v1, v2), (w0, w1, w2) = v, w
    s, t = v, u
    for _ in range(k - 1):  # (phi^(k+1)(y), U_(k+1)) = (phi(phi^k(y)), phi(U_k) U)
        (s0, s1, s2), (t0, t1, t2) = s, t
        s = (s0 + s1 * v0 + s2 * w0) % p, (s1 * v1 + s2 * w1) % p, (s1 * v2 + s2 * w2) % p
        t = mul((t0 + t1 * v0 + t2 * w0, t1 * v1 + t2 * w1, t1 * v2 + t2 * w2), u)
    return s, t

