"""The Weyl group of G2 as signed permutations of three coordinates.

Elements are pairs (sigma, s) with sigma in S3 and s = +-1, acting on the
plane a + b + c = 0 by e_i -> s e_{sigma(i)}.  The long element is
(id, -1), which is central, so conjugacy classes are S3-classes tagged by
s.  Everything downstream (torus orders, residue characters, factor
patterns) is computed from this model and then asserted against the known
closed forms, so the enumeration doubles as its own consistency check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .poly import DegreePattern

CLASS_LABELS = ("1a", "2a", "2b", "2c", "3a", "6a")


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

    def cycle_type_on_y(self) -> DegreePattern:
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

    def pattern_on_x(self) -> DegreePattern:
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
        total = 1
        for _ in range(3):
            total *= self.sign
        return total

    def matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Action on the plane in the basis u1 = e0 - e1, u2 = e1 - e2."""

        def diff_coords(a: int, b: int) -> tuple[int, int]:
            # coordinates of e_a - e_b in (u1, u2)
            table = {
                (0, 1): (1, 0),
                (1, 2): (0, 1),
                (0, 2): (1, 1),
            }
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


@dataclass(frozen=True)
class WeylClassInfo:
    label: str
    size: int
    element_order: int
    cycle_type_on_y: DegreePattern
    epsilon: int
    epsilon_prime: int
    pattern_on_x: DegreePattern
    torus_poly: tuple[int, int, int]
    representative: WeylElement


def _label_for(w: WeylElement) -> str:
    ctype = w.cycle_type_on_y()
    if ctype == (1, 1, 1):
        return "1a" if w.sign == 1 else "2c"
    if ctype == (1, 2):
        return "2a" if w.sign == 1 else "2b"
    return "3a" if w.sign == 1 else "6a"


# Closed forms the generated table must reproduce exactly.
_EXPECTED = {
    "1a": (1, 1, (1, 1, 1), 1, 1, (1, 1, 1, 1, 1, 1), (1, -2, 1)),
    "2a": (3, 2, (1, 2), -1, 1, (1, 1, 2, 2), (-1, 0, 1)),
    "2b": (3, 2, (1, 2), -1, -1, (2, 2, 2), (-1, 0, 1)),
    "2c": (1, 2, (1, 1, 1), 1, -1, (2, 2, 2), (1, 2, 1)),
    "3a": (2, 3, (3,), 1, 1, (3, 3), (1, 1, 1)),
    "6a": (2, 6, (3,), 1, -1, (6,), (1, -1, 1)),
}


@lru_cache(maxsize=1)
def weyl_classes() -> dict[str, WeylClassInfo]:
    """Conjugacy classes with their invariants, keyed by label.

    Built by closing each element under conjugation, computing every
    invariant from the model, checking that class members agree, and
    finally asserting the whole table against the closed forms above.
    """
    elements = enumerate_weyl()
    assigned: dict[WeylElement, str] = {}
    classes: dict[str, list[WeylElement]] = {}
    for w in elements:
        if w in assigned:
            continue
        orbit = {g.compose(w).compose(g.inverse()) for g in elements}
        label = _label_for(w)
        for member in orbit:
            if _label_for(member) != label:
                raise AssertionError("conjugation does not preserve the label rule")
            assigned[member] = label
        classes[label] = sorted(orbit, key=lambda e: (e.perm, -e.sign))
    out: dict[str, WeylClassInfo] = {}
    for label in CLASS_LABELS:
        members = classes[label]
        rep = members[0]
        invariants = {
            (
                m.order(),
                m.cycle_type_on_y(),
                m.epsilon(),
                m.epsilon_prime(),
                m.pattern_on_x(),
                m.torus_poly(),
            )
            for m in members
        }
        if len(invariants) != 1:
            raise AssertionError(f"class {label} members disagree on invariants")
        order, ctype, eps, epsp, xpat, tpoly = invariants.pop()
        info = WeylClassInfo(
            label=label,
            size=len(members),
            element_order=order,
            cycle_type_on_y=ctype,
            epsilon=eps,
            epsilon_prime=epsp,
            pattern_on_x=xpat,
            torus_poly=tpoly,
            representative=rep,
        )
        expected = _EXPECTED[label]
        got = (info.size, info.element_order, ctype, eps, epsp, xpat, tpoly)
        if got != expected:
            raise AssertionError(f"class {label}: generated {got} != expected {expected}")
        out[label] = info
    if sum(c.size for c in out.values()) != 12:
        raise AssertionError("class sizes do not sum to 12")
    return out


@lru_cache(maxsize=1)
def frobenius_lookup() -> dict[tuple[DegreePattern, int], WeylClassInfo]:
    """(cycle type on y, epsilon_prime) determines the class uniquely."""
    table = {}
    for info in weyl_classes().values():
        key = (info.cycle_type_on_y, info.epsilon_prime)
        if key in table:
            raise AssertionError("witness pair is not a unique key")
        table[key] = info
    return table


def torus_order(w: WeylElement | str, q: int) -> int:
    """Order of the fixed torus of w over F_q: its char poly evaluated at q."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if isinstance(w, str):
        c0, c1, c2 = weyl_classes()[w].torus_poly
    else:
        c0, c1, c2 = w.torus_poly()
    return c2 * q * q + c1 * q + c0


def torus_poly_str(label: str) -> str:
    """Factored display form of the torus order polynomial."""
    c0, c1, c2 = weyl_classes()[label].torus_poly
    disc = c1 * c1 - 4 * c2 * c0
    if disc == 0:
        root = -c1 // 2
        return f"(q - {root})^2" if root > 0 else f"(q + {-root})^2"
    parts = "q^2"
    if c1:
        parts += f" - {-c1}q" if c1 < 0 else f" + {c1}q"
    parts = parts.replace(" 1q", " q")
    if c0:
        parts += f" - {-c0}" if c0 < 0 else f" + {c0}"
    return parts
