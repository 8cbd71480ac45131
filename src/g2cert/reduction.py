"""The analysis of one input sextic, and its Frobenius data at good primes.

ReductionContext is the one object that holds the whole analysis of an
input, and the only one that factors; palindromic.py holds the pure
functions on the integer model of Q that compute its decided fields.

For a sextic P with dihedral (order 12) splitting field, the conjugacy
class of Frobenius at a good prime p is pinned down by two cheap residue
computations: the factor pattern of the trace cubic Q mod p and the
quadratic character of delta' = Q(2)Q(-2).  The class, a row of
weyl.WEYL_CLASSES, determines in turn the character of delta and the
factor pattern of P mod p itself; both are recomputed and compared on
every call, and the row comes back only once every witness agrees with
it, so a single inconsistent witness anywhere is a hard error rather than
a wrong answer.  The row's torus polynomial gives the order of the finite
torus the reduced element lives in, which order_report checks.  Only Q is
reduced mod p: P = x^3 Q(x + 1/x) holds over Z on the integer models, so
P mod p is Q mod p's lift, and both factor patterns read one Frobenius
pass in F_p[y]/(Q) (see ReductionContext.classify).

Element orders are computed on the trace side: x^m = 1 for every root x
of P mod p exactly when the trace sequence V_m (V_0 = 2, V_1 = y,
V satisfies the x + 1/x doubling rules) equals the constant 2 in
F_p[y]/(Q).  That turns an order computation in degree-6 extensions into
cubic arithmetic with a logarithmic ladder on the cubic kernel of poly.py.
V_m(y) is the Dickson polynomial D_m(y), and D_a(D_b(y)) = D_ab(y), so the
exact order descends from the torus order T along one split chain: about
log T + log(T/q_max) bits of ladder for the cofactors V_(T/q^e) of all the
prime-power parts q^e of T, one check of V_T = 2, then short ladders of
length log q (see ReductionContext.order_report).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .arith import factor_integer, is_prime, require_proven_prime, squarefree_kernel
from .errors import (
    ExcludedPrimeError,
    FactoringBudgetError,
    G2CertError,
    NotPalindromicError,
    NotSeparableError,
    WitnessMismatchError,
)
from .palindromic import (
    TAG_D6,
    classify_galois,
    g2_lift_check,
    palindromic_reduce,
    scaled_discriminant,
    trace_values,
)
from .poly import RatPoly, _cubic_pattern, _cubic_ring, _frobenius, _sextic_pattern, deflate_root_one
from .polyfile import PolyFile
from .weyl import FROBENIUS_LOOKUP, WeylClassInfo, torus_order

REASON_DENOMINATOR = "DenominatorVanishes"
REASON_RAMIFIED = "RamifiedDiscriminant"
REASON_STEINBERG = "SteinbergPrime"
REASON_EVEN = "EvenPrime"

# Brent-rho steps per factorization for the displayed fields, a count and
# not a time so the bytes do not depend on the host.  The pinned inputs need
# none; the worst of 12,000 seeded reduce-corpus files needs 1,022.
DISPLAY_RHO_STEPS = 2**14


def _displayed_factors(field: str, n: int) -> dict[int, int]:
    """factor_integer(n) within DISPLAY_RHO_STEPS, for a field that only display reads."""
    try:
        return factor_integer(n, DISPLAY_RHO_STEPS)
    except FactoringBudgetError as e:
        raise FactoringBudgetError(f"{field}: {e}") from None


class ReductionContext:
    """The analysis of one input sextic P = x^3 Q(x + 1/x), computed once.

    Construction reduces the sextic to the integer model (c0, c1, c2, D)
    of its trace cubic Q and keeps Q, delta = disc(Q), delta' = Q(2)Q(-2),
    Q(+-2) and the square classes (num * den of delta and delta'); it
    refuses an inseparable input, and records the Galois tag and its
    evidence, temperedness and the lift identity.  None of that factors;
    nor does exclusion(p).  The displayed square_kernels, ramified and
    excluded primes factor on first use, each factorization within
    DISPLAY_RHO_STEPS rho steps, else FactoringBudgetError; no other module
    factors.  Any separable sextic gets an
    analysis; only the per-prime methods, which need the order-12 dihedral
    splitting field, refuse other tags.
    """

    def __init__(self, sextic: RatPoly, steinberg_prime: int | None = None):
        if sextic.degree != 6:
            raise ValueError(f"expected a sextic, got degree {sextic.degree}")
        if steinberg_prime is not None and not is_prime(steinberg_prime):
            raise ValueError(f"Steinberg prime must be prime, got {steinberg_prime}")
        self.sextic = sextic
        self.steinberg_prime = steinberg_prime
        self.model = c0, c1, _, d = palindromic_reduce(sextic)
        at2, atm2 = trace_values(self.model)
        self.q = RatPoly((Fraction(c0, d), Fraction(c1, d), sextic.coeffs[5], sextic.coeffs[6]))
        self.q_at_2, self.q_at_minus_2 = Fraction(at2, d), Fraction(atm2, d)
        self.delta = delta = Fraction(scaled_discriminant(self.model), d**6)
        self.delta_prime = delta_prime = Fraction(at2 * atm2, d * d)
        if delta == 0:
            raise NotSeparableError("disc(Q) = 0: the sextic has a repeated root")
        if delta_prime == 0:
            raise NotSeparableError("Q(2)Q(-2) = 0: the sextic has a root at 1 or -1")
        # r = num den / den^2 has the square class of num * den, so
        # chi(delta) mod p = chi(num * den)
        self.square_classes = (delta.numerator * delta.denominator,
                               delta_prime.numerator * delta_prime.denominator)
        self.tag, self.evidence = classify_galois(self.model, self.square_classes)
        self.tempered = self.evidence["roots_in_interval"]
        self.unit_product = g2_lift_check(self.model)

    @functools.cached_property
    def exponents(self) -> tuple[dict[int, int], ...]:
        """Prime exponents of the square classes; only the displayed fields read them."""
        return tuple(_displayed_factors("exponents", n) for n in self.square_classes)

    @functools.cached_property
    def square_kernels(self) -> frozenset[int]:
        """Squarefree kernels k, k' of delta, delta', which cut out the quadratic
        subfields, and of their product, k k' / gcd(k, k')^2."""
        k, k_prime = map(squarefree_kernel, self.square_classes, self.exponents)
        g = math.gcd(k, k_prime)
        return frozenset((k, k_prime, k * k_prime // (g * g)))

    @functools.cached_property
    def ramified(self) -> frozenset[int]:
        """Primes dividing a numerator or denominator of delta or delta'."""
        return frozenset(self.exponents[0].keys() | self.exponents[1].keys())

    @functools.cached_property
    def excluded(self) -> dict[int, str]:
        """exclusion(q) over the primes of D, the ramified primes and the Steinberg prime, ascending."""
        d_primes = _displayed_factors("excluded", self.model[3])
        primes = {*d_primes, *self.ramified, self.steinberg_prime} - {None}
        return {q: self.exclusion(q) for q in sorted(primes)}

    @classmethod
    def from_polyfile(cls, pf: PolyFile) -> "ReductionContext":
        """The analysis of a file; a degree-7 file loses its eigenvalue-1 factor first."""
        poly = pf.poly()
        if poly.degree == 7:
            try:
                poly = deflate_root_one(poly)
            except ValueError as e:
                raise NotPalindromicError(f"{pf.name}: {e}") from e
        return cls(poly, pf.steinberg_prime)

    def require_d6(self) -> None:
        if self.tag != TAG_D6:
            raise G2CertError(
                "Frobenius classes need the order-12 dihedral splitting field, "
                f"classification is {self.tag}"
            )

    def exclusion(self, p: int) -> str | None:
        """Why the prime p is bad for this input, else None, by divisibility: P's common
        denominator is D, and those of delta and delta' divide a power of D."""
        if self.model[3] % p == 0:
            return REASON_DENOMINATOR
        nd, nd_prime = self.square_classes
        if nd * nd_prime % p == 0:
            return REASON_RAMIFIED
        if p == self.steinberg_prime:
            return REASON_STEINBERG
        return REASON_EVEN if p == 2 else None

    def ensure_good(self, p: int) -> None:
        require_proven_prime(p)
        self.require_d6()
        reason = self.exclusion(p)
        if reason is not None:
            raise ExcludedPrimeError(p, reason)

    def _q_mod(self, p: int) -> tuple[int, ...]:
        """Q mod p, monic: its integer model over D, reduced."""
        inv = pow(self.model[3] % p, -1, p)
        return tuple([c % p * inv % p for c in self.model])

    def classify(self, p: int, *, checked: bool = False) -> WeylClassInfo:
        """The Weyl class of Frobenius at p, read off Q mod p.

        The result is the class's WEYL_CLASSES row, returned only once
        every witness has passed: the y-pattern of Q mod p and chi(delta')
        pick the row, and chi(delta) and the x-pattern of P mod p must
        equal its columns.

        Only Q is reduced mod p.  palindromic_reduce accepts only a monic
        palindromic sextic, and reads Q's model (c0, c1, c2, D) off P's
        coefficients f3, f4, f5 over their least common denominator, which
        is P's own (f6 = 1, f_i = f_(6-i)).  So P's integer model is
        exactly (D, c2, c1 + 3D, c0 + 2 c2, c1 + 3D, c2, D), and as
        reduction mod p is a ring map, at every p not dividing D, P mod p
        is (1, q2, q1 + 3, q0 + 2 q2, q1 + 3, q2, 1) for Q mod p =
        (q0, q1, q2, 1): monic, palindromic, with trace cubic Q mod p.  A
        check of P mod p against Q mod p would compare two reductions of
        the same integers, which no input __init__ accepts can fail, so
        none is made.  One Frobenius pass in F_p[y]/(Q) serves both
        patterns.

        Nor is separability decided again: for odd p not dividing D n n',
        disc(Q mod p) = delta mod p != 0 and Q(+-2) != 0 mod p.  P mod p is
        squarefree exactly then, as its roots pair as t, 1/t with t + 1/t a
        root of Q and t != +-1.  So a None x-pattern fails its witness.

        checked=True skips ensure_good, for a caller that has already
        established that p is a prime with no exclusion and that the input
        is D6 (certify and the frobenius command do).
        """
        if not checked:
            self.ensure_good(p)
        q = self._q_mod(p)
        v, u = _frobenius(p, q)
        mul = _cubic_ring(p, q)
        w = mul(v, v)
        y_pattern = _cubic_pattern(p, q, v, w)
        nd, nd_prime = self.square_classes
        chi_dp = -1 if pow(nd_prime % p, p >> 1, p) == p - 1 else 1
        chi_d = -1 if pow(nd % p, p >> 1, p) == p - 1 else 1
        row = FROBENIUS_LOOKUP[(y_pattern, chi_dp)]
        if chi_d != row.chi_delta:
            raise WitnessMismatchError(
                f"p={p}: chi(delta) = {chi_d} but class {row.weyl_class} "
                f"requires {row.chi_delta}",
                p=p, witness="chi_delta", expected=row.chi_delta, actual=chi_d,
            )
        x_pattern = _sextic_pattern(p, mul, v, w, u)
        if x_pattern != row.x_pattern:
            raise WitnessMismatchError(
                f"p={p}: sextic splits as {x_pattern} but class {row.weyl_class} "
                f"requires {row.x_pattern}",
                p=p, witness="x_pattern", expected=row.x_pattern, actual=x_pattern,
            )
        return row

    def order_report(self, p: int, cls: WeylClassInfo, *, checked: bool = False) -> int:
        """Exact order by one split chain over the prime-power parts of the torus order.

        cls is the row that classify returned at p.  Its torus order T is
        computed here, and the order comes back only once x^T = 1 is
        proven.  Let q^e be the prime powers exactly dividing T, in
        ascending order.  The q-part of the order is the least q^k with
        V_(T/q^e * q^k) = 2.  Since D_a(D_b(y)) = D_ab(y), every leaf
        V_(T/q^e) hangs off one chain: from g = y and m = T, each part but
        the smallest, largest first, gets its leaf D_(m/q^e)(g), then g
        becomes D_(q^e)(g) and m becomes m/q^e.  What is left is the
        smallest part's leaf g = V_(T/q^e).

        The smallest part's descent runs in full, at most e ladders of
        length log q that map w to D_q(w), and its last step reaches V_T.
        A descent per part would end at that same V_T in every part (and
        D_m(2) = 2, so one that stops early has V_T = 2 too), so this one
        check of V_T = 2 is the whole torus witness.  Once x^T = 1 is
        proven, every q-part is at most q^e, so the other leaves need at
        most e - 1 such ladders: a leaf that is not 2 after them has
        q-part q^e.

        checked=True skips ensure_good, as in classify; certify and the
        frobenius command pass it.
        """
        if not checked:
            self.ensure_good(p)
        f = self._q_mod(p)
        torus = torus_order(cls.weyl_class, p)
        parts = sorted((q**e, q) for q, e in factor_integer(torus).items())
        g, m = (0, 1, 0), torus
        leaves = []
        for qe, q in reversed(parts[1:]):
            leaves.append((qe, q, _dickson(p, f, g, m // qe)))
            g = _dickson(p, f, g, qe)
            m //= qe
        qe, q = parts[0]
        order = 1
        while g != (2, 0, 0):
            if order == qe:
                raise WitnessMismatchError(
                    f"p={p}: V_{torus} != 2, so the element of class {cls.weyl_class} "
                    f"does not lie in its torus of order {torus}",
                    p=p, witness="torus", expected=(2, 0, 0), actual=g,
                )
            g = _dickson(p, f, g, q)
            order *= q
        for qe, q, w in leaves:
            part = 1
            while w != (2, 0, 0):
                part *= q
                if part == qe:
                    break
                w = _dickson(p, f, w, q)
            order *= part
        return order


def _dickson(p: int, f: tuple[int, ...], s: tuple[int, int, int], m: int) -> tuple[int, int, int]:
    """D_m(s) = V_m for V_0 = 2, V_1 = s, in F_p[y]/(f), f monic cubic; m >= 1.

    With s = y = x + 1/x, V_m = x^m + x^-m, and (x^m - 1)^2 = x^m (V_m - 2),
    so V_m = 2 exactly when x^m = 1 for every root x of P: over each
    component field the test is exact, and the ring checks them all at
    once.  The ladder keeps (V_k, V_(k+1)) in the locals v0, v1, v2, w0, w1,
    w2, with V_2k = V_k^2 - 2 and V_(2k+1) = V_k V_(k+1) - s, by the cubic
    kernel's product and square written out (poly.py).
    """
    r0, r1, r2 = -f[0] % p, -f[1] % p, -f[2] % p  # y^3 = r2 y^2 + r1 y + r0
    v0, v1, v2 = s0, s1, s2 = s[0] % p, s[1] % p, s[2] % p
    d0, t4 = s0 + s0, s2 * s2 % p
    t3 = ((s1 + s1) * s2 + t4 * r2) % p
    w0, w1, w2 = ((s0 * s0 + t3 * r0 - 2) % p, (d0 * s1 + t4 * r0 + t3 * r1) % p,
                  (d0 * s2 + s1 * s1 + t4 * r1 + t3 * r2) % p)
    for bit in bin(m)[3:]:
        # c = V_k V_(k+1) - s
        t4 = v2 * w2 % p
        t3 = (v1 * w2 + v2 * w1 + t4 * r2) % p
        c0 = (v0 * w0 + t3 * r0 - s0) % p
        c1 = (v0 * w1 + v1 * w0 + t4 * r0 + t3 * r1 - s1) % p
        c2 = (v0 * w2 + v1 * w1 + v2 * w0 + t4 * r1 + t3 * r2 - s2) % p
        if bit == "0":  # (V_2k, V_(2k+1)) = (V_k^2 - 2, c)
            d0, t4 = v0 + v0, v2 * v2 % p
            t3 = ((v1 + v1) * v2 + t4 * r2) % p
            v0, v1, v2 = ((v0 * v0 + t3 * r0 - 2) % p, (d0 * v1 + t4 * r0 + t3 * r1) % p,
                          (d0 * v2 + v1 * v1 + t4 * r1 + t3 * r2) % p)
            w0, w1, w2 = c0, c1, c2
        else:  # (V_(2k+1), V_(2k+2)) = (c, V_(k+1)^2 - 2)
            d0, t4 = w0 + w0, w2 * w2 % p
            t3 = ((w1 + w1) * w2 + t4 * r2) % p
            w0, w1, w2 = ((w0 * w0 + t3 * r0 - 2) % p, (d0 * w1 + t4 * r0 + t3 * r1) % p,
                          (d0 * w2 + w1 * w1 + t4 * r1 + t3 * r2) % p)
            v0, v1, v2 = c0, c1, c2
    return v0, v1, v2


def frobenius_class(sextic: RatPoly, p: int) -> WeylClassInfo:
    """Weyl class of Frobenius at a good odd prime, triple-witnessed: its WEYL_CLASSES row.

    Builds a new analysis on every call; to classify at many primes, hold a ReductionContext."""
    return ReductionContext(sextic).classify(p)
