"""Seeded generator of degree-7 polynomial files for the reduce-corpus workload.

Every file is R(x) = (x - 1) * x^3 Q(x + 1/x) for a monic cubic
Q(y) = y^3 - a y^2 + b y - c with rational a, b, c.  The inflation and the
(x - 1) factor are written out here in closed form, so the generator does
not depend on the package it feeds:

    x^3 Q(x + 1/x) = x^6 - a x^5 + (3 + b) x^4 - (2a + c) x^3
                     + (3 + b) x^2 - a x + 1.

Denominators go up to 32, so coefficient heights reach about 10^3, the
scale of the bundled files (frobenius3 has 1099/729).  Kinds come in blocks
of 16, shuffled per block, so that every run sees the same mix:

    torus         x4  lift identity a^2 = c + 2b + 4, roots 2cos(t) with
                      t1 + t2 + t3 = 0 (expected D6)
    torus-wide    x4  lift identity, a and b unconstrained (Inconclusive)
    weyl          x4  no lift identity, roots placed in (-2, 2) (WeylBC_n)
    rational-root x2  one rational root in (-2, 2) (Other)
    wide          x2  no lift identity, a, b, c unconstrained

Half the kinds impose the lift identity and half place the roots in
(-2, 2), so D6, WeylBC_n, Other and Inconclusive all occur.

The timed stream holds only inputs on which `reduce` has no known defect
(see checks.known_defect): a draw that lands on one is drawn again, by the
generator's own exact test and never by what the program does with it.
The defects are exercised instead by a separate, fixed stream of probe
files (`defect_item`), run once per run outside the timed loop and
reported on their own line, so they stay visible without making timed
operations fail:

    inseparable   a double root (disc = 0) or a root at +-2 (Q(2)Q(-2) = 0)
    one-sided     roots placed in (0, 2) or in (-2, 0), so Q'(0) > 0
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from checks import INSEPARABLE_EXIT_2, TEMPERED_SIGN_CHAIN, known_defect

BLOCK = (
    ("torus",) * 4
    + ("torus-wide",) * 4
    + ("weyl",) * 4
    + ("rational-root",) * 2
    + ("wide",) * 2
)
# Probe kinds and the defect each one is drawn to show.
DEFECT_KINDS = (("inseparable", INSEPARABLE_EXIT_2), ("one-sided", TEMPERED_SIGN_CHAIN))
LIFT_KINDS = frozenset({"torus", "torus-wide"})
MAX_DEN = 32


@dataclass(frozen=True)
class CorpusItem:
    index: int
    kind: str
    a: Fraction
    b: Fraction
    c: Fraction
    steinberg_prime: int

    @property
    def lift(self) -> bool:
        return self.kind in LIFT_KINDS

    @property
    def cubic(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Ascending coefficients of Q = y^3 - a y^2 + b y - c."""
        return (-self.c, self.b, -self.a, Fraction(1))

    def septic(self) -> list[Fraction]:
        """Ascending coefficients of R = (x - 1) x^3 Q(x + 1/x)."""
        a, b, c = self.a, self.b, self.c
        sextic = [Fraction(1), -a, 3 + b, -2 * a - c, 3 + b, -a, Fraction(1)]
        lower = [Fraction(0)] + sextic  # x * P
        return [hi - lo for hi, lo in zip(lower, sextic + [Fraction(0)])]

    def file_text(self, seed: int) -> str:
        doc = {
            "name": f"corpus-{seed}-{self.index}",
            "steinberg_prime": self.steinberg_prime,
            "variable": "x",
            "coefficients": [str(v) for v in self.septic()],
        }
        return json.dumps(doc, indent=2) + "\n"


def lift_holds(a: Fraction, b: Fraction, c: Fraction) -> bool:
    return a * a == c + 2 * b + 4


def _round(x: float, den: int) -> Fraction:
    return Fraction(round(x * den), den)


def _angle(rng: random.Random) -> float:
    return rng.uniform(0.15, math.pi - 0.15)


def _placed_roots(rng: random.Random) -> list[float]:
    return [2 * math.cos(_angle(rng)) for _ in range(3)]


def _one_sided_roots(rng: random.Random) -> list[float]:
    side = rng.choice((1, -1))
    return [side * 2 * math.cos(rng.uniform(0.15, math.pi / 2 - 0.15)) for _ in range(3)]


def _elementary(r: list[float]) -> tuple[float, float, float]:
    return (
        r[0] + r[1] + r[2],
        r[0] * r[1] + r[0] * r[2] + r[1] * r[2],
        r[0] * r[1] * r[2],
    )


def _coefficients(kind: str, rng: random.Random, den: int) -> tuple[Fraction, Fraction, Fraction]:
    if kind == "torus":
        t1, t2 = _angle(rng), _angle(rng)
        roots = [2 * math.cos(t1), 2 * math.cos(t2), 2 * math.cos(t1 + t2)]
        sa, sb, _ = _elementary(roots)
        a, b = _round(sa, den), _round(sb, den)
        return a, b, a * a - 2 * b - 4
    if kind == "torus-wide":
        a = Fraction(rng.randint(-8 * den, 8 * den), den)
        b = Fraction(rng.randint(-16 * den, 16 * den), den)
        return a, b, a * a - 2 * b - 4
    if kind in ("weyl", "one-sided"):
        roots = _placed_roots(rng) if kind == "weyl" else _one_sided_roots(rng)
        sa, sb, sc = _elementary(roots)
        return _round(sa, den), _round(sb, den), _round(sc, den)
    if kind == "rational-root":
        r = Fraction(rng.randint(-2 * den + 1, 2 * den - 1), den)
        y1, y2 = _placed_roots(rng)[:2]
        s, t = _round(y1 + y2, den), _round(y1 * y2, den)
        return r + s, r * s + t, r * t
    if kind == "wide":
        return (
            Fraction(rng.randint(-8 * den, 8 * den), den),
            Fraction(rng.randint(-16 * den, 16 * den), den),
            Fraction(rng.randint(-32 * den, 32 * den), den),
        )
    if kind == "inseparable":
        r = Fraction(rng.randint(-2 * den + 1, 2 * den - 1), den)
        s = Fraction(rng.randint(-2 * den + 1, 2 * den - 1), den)
        if rng.random() < 0.5:  # (y - r)^2 (y - s): disc = 0
            return 2 * r + s, r * r + 2 * r * s, r * r * s
        e = rng.choice((2, -2))  # (y - e)(y - r)(y - s): Q(e) = 0
        return e + r + s, e * r + e * s + r * s, e * r * s
    raise ValueError(f"unknown kind {kind!r}")


def _draw(rng: random.Random, index: int, kind: str, defect: str | None) -> CorpusItem:
    den = rng.randint(2, MAX_DEN)
    while True:
        a, b, c = _coefficients(kind, rng, den)
        # Only the generator's own exact tests decide a redraw: the lift
        # identity holds exactly for the lift kinds and never for the
        # others, and the draw shows exactly the wanted known defect.
        q = (-c, b, -a, Fraction(1))
        if lift_holds(a, b, c) == (kind in LIFT_KINDS) and known_defect(q) == defect:
            return CorpusItem(index, kind, a, b, c, rng.choice((5, 7, 11, 13)))


def corpus_item(seed: int, index: int) -> CorpusItem:
    """File number index of the timed stream for seed; a pure function of both."""
    block_rng = random.Random(f"corpus-block:{seed}:{index // len(BLOCK)}")
    kinds = list(BLOCK)
    block_rng.shuffle(kinds)
    kind = kinds[index % len(BLOCK)]
    return _draw(random.Random(f"corpus-item:{seed}:{index}"), index, kind, None)


def defect_item(seed: int, index: int) -> CorpusItem:
    """Probe file number index for seed: drawn to show one known defect, kinds alternating."""
    kind, defect = DEFECT_KINDS[index % len(DEFECT_KINDS)]
    return _draw(random.Random(f"corpus-defect:{seed}:{index}"), index, kind, defect)
