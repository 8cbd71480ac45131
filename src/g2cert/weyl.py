"""The six conjugacy classes of the Weyl group of G2, dihedral of order 12.

Each row holds what the Frobenius lookup reads: the class label
(weyl_class), the factor pattern of Q mod p (y_pattern: the cycle type on
the three roots y_i), the residue symbol chi_delta_prime of
delta' = Q(2)Q(-2), the symbol chi_delta of disc(Q), the factor pattern of
P mod p (x_pattern: the cycle type on the six roots x_i^(+-1)) and the
torus polynomial (constant, linear, quadratic coefficient): the
characteristic polynomial of the class on the root lattice, whose value at
q is the order of the class's maximal torus over F_q.

A row is also what ReductionContext.classify returns: the class of
Frobenius at p, handed back once every witness computed mod p equals its
columns.  The field names are the keys of the frobenius and scan records
and the witness tags of WitnessMismatchError.

The table is data.  tests/oracles.py models the group as signed
permutations of three coordinates, derives every column from the model
by closing each element under conjugation, and tests/test_weyl.py proves
the derived table equal to this one column by column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import DegreePattern, format_poly


@dataclass(frozen=True)
class WeylClassInfo:
    weyl_class: str
    y_pattern: DegreePattern
    chi_delta_prime: int
    chi_delta: int
    x_pattern: DegreePattern
    torus_poly: tuple[int, int, int]


WEYL_CLASSES: dict[str, WeylClassInfo] = {
    row.weyl_class: row
    for row in (
        WeylClassInfo("1a", (1, 1, 1), 1, 1, (1, 1, 1, 1, 1, 1), (1, -2, 1)),
        WeylClassInfo("2a", (1, 2), 1, -1, (1, 1, 2, 2), (-1, 0, 1)),
        WeylClassInfo("2b", (1, 2), -1, -1, (2, 2, 2), (-1, 0, 1)),
        WeylClassInfo("2c", (1, 1, 1), -1, 1, (2, 2, 2), (1, 2, 1)),
        WeylClassInfo("3a", (3,), 1, 1, (3, 3), (1, 1, 1)),
        WeylClassInfo("6a", (3,), -1, 1, (6,), (1, -1, 1)),
    )
}

CLASS_LABELS = tuple(WEYL_CLASSES)

# the two cheap witnesses, the pattern on y and chi(delta'), pick the class
FROBENIUS_LOOKUP: dict[tuple[DegreePattern, int], WeylClassInfo] = {
    (row.y_pattern, row.chi_delta_prime): row for row in WEYL_CLASSES.values()
}
if len(FROBENIUS_LOOKUP) != len(WEYL_CLASSES):
    raise ValueError("(y_pattern, chi_delta_prime) is not a unique key for the Weyl classes")


def torus_order(label: str, q: int) -> int:
    """Order of the maximal torus of the class over F_q: its torus polynomial at q."""
    if q < 2:
        raise ValueError("q must be at least 2")
    c0, c1, c2 = WEYL_CLASSES[label].torus_poly
    return c2 * q * q + c1 * q + c0


def torus_poly_str(label: str) -> str:
    """Factored display form of the torus order polynomial."""
    c0, c1, c2 = WEYL_CLASSES[label].torus_poly
    if c1 * c1 == 4 * c2 * c0:
        root = -c1 // 2
        return f"(q - {root})^2" if root > 0 else f"(q + {-root})^2"
    return format_poly((c0, c1, c2), "q")
