"""Every input decision is an integer test; only displayed fields factor.

ReductionContext.exclusion reads divisibility of the integer model, and
classify_galois and Pair read squareness and independence off integer
square roots.  These tests check both against the factored definitions they
replaced (tests/oracles.py) on every input the repository holds, and run
the decisions with factor_integer made to raise.
"""

import itertools
from pathlib import Path

import pytest

import g2cert.arith
import g2cert.palindromic
import g2cert.reduction
from g2cert import cli
from g2cert.arith import primes_up_to
from g2cert.certify import VERDICT_EXCLUDED, VERDICT_NOT_COXETER, Pair, certify_prime
from g2cert.errors import G2CertError
from g2cert.palindromic import TAG_D6, TAG_INCONCLUSIVE
from g2cert.polyfile import bundled_polyfile, load_polyfile
from g2cert.reduction import (
    REASON_DENOMINATOR,
    REASON_EVEN,
    REASON_RAMIFIED,
    REASON_STEINBERG,
    ReductionContext,
)
from oracles import factored_exclusions, factored_square_kernels

DATA = Path(__file__).parent / "data"
BUNDLED = ("frobenius2", "frobenius3")
# no-root-at-one has no analysis (its deflation fails); the displayed fields
# of lift-identity and large-d6 need more rho steps on a 201- and a 318-digit
# delta than the display budget allows, so only their decisions are tested
# (below and in test_cli.py)
NOT_COMPARED = {"no-root-at-one", "lift-identity", "large-d6"}
DATA_NAMES = sorted(path.stem for path in DATA.glob("*.json") if path.stem not in NOT_COMPARED)
LIFT_IDENTITY = DATA / "lift-identity.json"


def _context(name: str) -> ReductionContext:
    pf = bundled_polyfile(name) if name in BUNDLED else load_polyfile(str(DATA / f"{name}.json"))
    return ReductionContext.from_polyfile(pf)


@pytest.fixture(scope="module")
def contexts():
    return {name: _context(name) for name in (*BUNDLED, *DATA_NAMES)}


class Factored(Exception):
    pass


@pytest.fixture
def no_factoring(monkeypatch):
    """factor_integer raises, at every binding the input analysis reaches it by."""

    def refuse(n, max_steps=None):
        raise Factored(n)

    for module in (g2cert.arith, g2cert.reduction):
        monkeypatch.setattr(module, "factor_integer", refuse)


def test_palindromic_has_no_factoring_binding():
    # the decisions' module cannot factor; ReductionContext owns every
    # displayed factorization
    assert not hasattr(g2cert.palindromic, "factor_integer")
    assert not hasattr(g2cert.palindromic, "squarefree_kernel")


def _primes_to_check(excluded: dict[int, str]) -> list[int]:
    return sorted({*primes_up_to(10**4), *excluded})


def _old_exclusion(excluded: dict[int, str], p: int) -> str | None:
    return excluded.get(p, REASON_EVEN if p == 2 else None)


@pytest.mark.parametrize("name", [*BUNDLED, *DATA_NAMES])
def test_exclusion_matches_the_factored_excluded_primes(contexts, name):
    ctx = contexts[name]
    want = factored_exclusions(ctx)
    # the displayed field keeps its values and its order
    assert list(ctx.excluded.items()) == list(want.items())
    for p in _primes_to_check(want):
        assert ctx.exclusion(p) == _old_exclusion(want, p), p


def test_independence_matches_the_factored_kernels(contexts):
    d6 = [name for name, ctx in contexts.items() if ctx.tag == TAG_D6]
    assert d6 == ["frobenius2", "frobenius3", "blocked-a", "blocked-b", "d6"]
    dependent = []
    for name_a, name_b in itertools.product(d6, repeat=2):
        a, b = contexts[name_a], contexts[name_b]
        shared = sorted((factored_square_kernels(a) & factored_square_kernels(b)) - {1})
        if shared:
            dependent.append((name_a, name_b))
            with pytest.raises(G2CertError) as raised:
                Pair(a, b)
            assert str(raised.value) == (
                f"splitting fields are not independent: shared quadratic kernel(s) {shared}"
            )
            continue
        pair = Pair(a, b)
        merged = {**factored_exclusions(b), **factored_exclusions(a)}
        assert list(pair.excluded.items()) == sorted(merged.items())
        for p in _primes_to_check(merged):
            assert pair.exclusion(p) == _old_exclusion(merged, p), (name_a, name_b, p)
    # every input shares its own quadratic subfields, and no two differ
    assert dependent == [(name, name) for name in d6]


def test_no_decision_factors(no_factoring):
    ctx_a, ctx_b = (_context(name) for name in BUNDLED)
    pair = Pair(ctx_a, ctx_b)
    assert (ctx_a.classify(29).weyl_class, ctx_b.classify(29).weyl_class) == ("3a", "6a")
    assert certify_prime(pair, 11).verdict == VERDICT_NOT_COXETER
    for p in (7, 7321):
        report = certify_prime(pair, p)
        assert (report.verdict, report.note) == (VERDICT_EXCLUDED, REASON_RAMIFIED)
    den, ram, st = REASON_DENOMINATOR, REASON_RAMIFIED, REASON_STEINBERG
    for ctx, excluded in (
        (ctx_a, {2: den, 3: ram, 5: st, 71: ram, 199: ram}),
        (ctx_b, {2: ram, 3: den, 5: st, 7: ram, 13: ram, 7321: ram}),
    ):
        records = [cli._frobenius_record(ctx, p) for p in excluded]
        assert records == [{"p": p, "excluded": why} for p, why in excluded.items()]
    # the displayed fields do factor, so the patch is in force
    with pytest.raises(Factored):
        ctx_a.excluded


def test_lift_identity_input_is_decided_without_factoring(no_factoring):
    # Q = y^3 - a y^2 + b y - c with a = 10^40 + 7, b = 3 10^39 + 11 and
    # c = a^2 - 2b - 4: D6 algebra, roots outside (-2, 2)
    ctx = ReductionContext.from_polyfile(load_polyfile(str(LIFT_IDENTITY)))
    assert len(str(abs(ctx.delta.numerator))) == 201
    assert ctx.evidence == {
        "q_irreducible": True,
        "delta_nonsquare": True,
        "delta_prime_nonsquare": True,
        "product_nonsquare": True,
        "roots_in_interval": False,
    }
    assert (ctx.tempered, ctx.unit_product) == (False, True)
    assert ctx.tag == TAG_INCONCLUSIVE
    with pytest.raises(G2CertError, match="classification is Inconclusive$"):
        Pair(ctx, _context("frobenius3"))
