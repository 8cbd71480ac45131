import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2cert.arith import (
    _MR_TIERS,
    _MR_WITNESSES,
    factor_integer,
    PRIME_PROOF_BOUND,
    SIEVE_LIMIT,
    is_prime,
    is_square,
    primes_up_to,
    require_sievable,
    squarefree_kernel,
)
from g2cert.errors import FactoringBudgetError, G2CertError
from oracles import naive_is_prime


def test_primes_up_to_small():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]


def test_primes_up_to_refuses_a_limit_above_the_sieve_bound():
    require_sievable(SIEVE_LIMIT)
    for n in (SIEVE_LIMIT + 1, 10**12):
        with pytest.raises(ValueError, match=f"^limit {n} is above the sieve bound {SIEVE_LIMIT}$"):
            primes_up_to(n)


def test_primes_up_to_counts():
    assert len(primes_up_to(10**6)) == 78498


def test_is_prime_against_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_large_values():
    assert is_prime(10**9 + 7)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_is_prime_refuses_the_pseudoprime_at_each_witness_bound():
    # the least strong pseudoprime to each witness tier, at the bound where
    # the next tier takes over (Sorenson and Webster, Math. Comp. 86, 2017)
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    for n in (2047, 1373653, 3215031751, 3474749660383, psi_12):
        assert not is_prime(n), n
    assert PRIME_PROOF_BOUND == 3317044064679887385961981 > 33 * 10**23


# psi_k with a nontrivial factorization, as the sources of _MR_TIERS give it
PSI_FACTORS = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
    3317044064679887385961981: (1287836182261, 2575672364521),
}


def _strong_probable_prime(n: int, a: int) -> bool:
    # n - 1 = 2^r d with d odd: a^d = 1, or a^(2^i d) = -1 for some i < r
    r = (n - 1 & -(n - 1)).bit_length() - 1
    d = (n - 1) >> r
    return pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(r))


def test_each_witness_tier_stops_at_a_strong_pseudoprime_to_its_witnesses():
    # each bound of the table is composite and passes every one of its k
    # witnesses, so no tier can be stretched past its bound; that nothing
    # below the bound passes them all is the cited search.  is_prime reads
    # each bound with the next tier, which refutes it, except psi_13, which
    # passes all 13 witnesses: require_proven_prime refuses it
    assert [bound for bound, _ in _MR_TIERS] == sorted(PSI_FACTORS)
    assert _MR_TIERS[-1] == (PRIME_PROOF_BOUND, len(_MR_WITNESSES))
    assert _MR_WITNESSES == tuple(primes_up_to(41))
    for bound, k in _MR_TIERS:
        factors = PSI_FACTORS[bound]
        assert math.prod(factors) == bound and min(factors) > 1, bound
        assert all(_strong_probable_prime(bound, a) for a in _MR_WITNESSES[:k]), bound
        assert is_prime(bound) == (bound == PRIME_PROOF_BOUND), bound
    # psi_7 = psi_8 and psi_9 = psi_10 = psi_11, so counts 8, 10 and 11 add nothing
    assert [k for _, k in _MR_TIERS] == [1, 2, 3, 4, 5, 6, 7, 9, 12, 13]


@given(st.integers(min_value=2, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_factor_integer_roundtrip(n):
    fac = factor_integer(n)
    product = 1
    for p, e in fac.items():
        assert is_prime(p)
        assert e >= 1
        product *= p**e
    assert product == n
    assert list(fac) == sorted(fac)


def test_factor_known_values():
    assert factor_integer(14129) == {71: 1, 199: 1}
    assert factor_integer(95173) == {13: 1, 7321: 1}
    assert factor_integer(2**14 * 13 * 7321) == {2: 14, 13: 1, 7321: 1}
    assert factor_integer(-639) == {3: 2, 71: 1}
    assert factor_integer(175560) == {2: 3, 3: 1, 5: 1, 7: 1, 11: 1, 19: 1}


def test_prime_factorization_value():
    # a plain dict, primes ascending even when rho finds the larger factor first
    f = factor_integer(1000003 * 999983 * 40)
    assert math.prod(p**e for p, e in f.items()) == 1000003 * 999983 * 40
    assert list(f.items()) == [(2, 3), (5, 1), (999983, 1), (1000003, 1)]


def test_factor_integer_step_cap():
    # the cap counts rho steps over the whole call, never time: the same n
    # fails the same way, and a cap it fits under changes nothing
    n = 1000003 * 999983 * 40
    assert factor_integer(n, 2**14) == factor_integer(n)
    with pytest.raises(FactoringBudgetError) as raised:
        factor_integer(n, 8)
    assert isinstance(raised.value, G2CertError)
    assert str(raised.value) == "no factor of a 12-digit cofactor within 8 rho steps"


def _kernel(r: Fraction) -> int:
    # the kernel reads the exponents of num(r) den(r), which has r's square class
    return squarefree_kernel(r, factor_integer(r.numerator * r.denominator))


def test_squarefree_kernel_known():
    assert _kernel(Fraction(14129, 256)) == 14129
    assert _kernel(Fraction(-639, 256)) == -71
    assert _kernel(Fraction(-5218304, 531441)) == -26
    assert _kernel(Fraction(4)) == 1
    assert _kernel(Fraction(-4)) == -1
    assert _kernel(Fraction(1, 2)) == 2
    assert factor_integer(-639 * 256) == {2: 8, 3: 2, 71: 1}
    with pytest.raises(ValueError):
        factor_integer(0)  # delta = 0 has no kernel


def test_is_square():
    assert [n for n in range(-5, 50) if is_square(n)] == [0, 1, 4, 9, 16, 25, 36, 49]
    assert is_square((10**40 + 7) ** 2)
    assert not is_square((10**40 + 7) ** 2 + 1)
    assert not is_square(-(10**40))


@given(
    st.fractions(
        min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
    )
)
@settings(max_examples=200, deadline=None)
def test_squarefree_kernel_is_square_complement(q):
    if q == 0:
        return
    nd = q.numerator * q.denominator
    exponents = factor_integer(nd)
    assert math.prod(p**e for p, e in exponents.items()) == abs(nd)
    k = squarefree_kernel(q, exponents)
    ratio = q / k
    # the ratio must be a square of a rational: both parts perfect squares
    assert ratio > 0
    for part in (ratio.numerator, ratio.denominator):
        r = math.isqrt(part)
        assert r * r == part
    # and k itself squarefree
    for e in factor_integer(k).values():
        assert e == 1

