import random

import pytest
from hypothesis import given, settings, strategies as st

from trishare import (
    M61,
    FieldModulus,
    InvalidModulus,
    InvalidPolynomial,
    SecretPolynomial,
    ZeroInverse,
    default_modulus,
    integer_nth_root,
    is_prime,
    mod_inverse,
    modulus_for,
    poly_eval,
)
from oracles import brute_inverse, slow_poly_eval


# ---------------------------------------------------------------- primality

def test_m61_is_the_mersenne_prime():
    assert M61 == (1 << 61) - 1
    assert is_prime(M61)


@pytest.mark.parametrize("n", [2, 3, 5, 97, 101, 65537, (1 << 31) - 1])
def test_known_primes(n):
    assert is_prime(n)


@pytest.mark.parametrize("n", [0, 1, 4, 91, 561, 1105, 65536, (1 << 61) - 3,
                               252601, 3215031751])
def test_known_composites(n):
    # 561 and 1105 are Carmichael numbers, the classic Fermat-test traps;
    # 252601 = 41 * 61 * 101 is one that no witness divides, so only the
    # square-root steps catch it, and 3215031751 = 151 * 751 * 28351
    # is a strong pseudoprime to the witnesses 2, 3, 5 and 7
    assert not is_prime(n)


def test_primality_agrees_with_sieve_below_10k():
    limit = 10_000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n], n


@pytest.mark.parametrize("n, factors", [
    (318665857834031151167461, (399165290221, 798330580441)),
    (3317044064679887385961981, (1287836182261, 2575672364521)),
])
def test_strong_pseudoprimes_to_the_witnesses_are_refused(n, factors):
    # Both pass Miller-Rabin for all 12 witnesses; the first is the
    # smallest such number, so nothing at or above it is decided.
    assert factors[0] * factors[1] == n
    with pytest.raises(InvalidModulus):
        is_prime(n)
    with pytest.raises(InvalidModulus):
        modulus_for(n)


def test_primality_is_decided_below_the_proven_bound():
    # the largest prime below the bound, and the even number beneath it
    assert is_prime(318665857834031151167441)
    assert not is_prime(318665857834031151167460)


# ---------------------------------------------------------------- modulus objects

def test_default_modulus_is_m61_production():
    m = default_modulus()
    assert m.p == M61
    assert not m.test_profile


def test_small_prime_needs_test_profile():
    # the profile follows from p: below 2^16 is the test profile
    assert FieldModulus(97).test_profile
    assert not FieldModulus(M61).test_profile
    assert not FieldModulus(65537).test_profile  # the smallest prime >= 2^16
    assert FieldModulus(65521).test_profile  # the largest prime below it
    with pytest.raises(InvalidModulus):
        FieldModulus(91)


def test_composite_rejected_either_way():
    with pytest.raises(InvalidModulus):
        FieldModulus(91)
    with pytest.raises(InvalidModulus):
        FieldModulus(1 << 61)


def test_modulus_for_infers_profile():
    assert modulus_for(97).test_profile
    assert not modulus_for(M61).test_profile
    assert modulus_for(97) is modulus_for(97)  # cached


# ---------------------------------------------------------------- inverses

def test_inverse_frozen_value():
    # oracle: 3 * 65 = 195 = 2*97 + 1
    assert mod_inverse(3, 97) == 65


def test_inverse_exhaustive_small_prime():
    for a in range(1, 97):
        inv = mod_inverse(a, 97)
        assert inv == brute_inverse(a, 97)
        assert (a * inv) % 97 == 1
        assert mod_inverse(inv, 97) == a


def test_zero_has_no_inverse():
    with pytest.raises(ZeroInverse):
        mod_inverse(0, 97)
    with pytest.raises(ZeroInverse):
        mod_inverse(97, 97)  # reduces to zero
    with pytest.raises(ZeroInverse):
        mod_inverse(M61, M61)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=M61 - 1))
def test_inverse_property_production(a):
    inv = mod_inverse(a, M61)
    assert 1 <= inv < M61
    assert (a * inv) % M61 == 1


# ---------------------------------------------------------------- evaluation

def test_eval_frozen_values(m61):
    poly = SecretPolynomial((1234, 166, 94), m61)
    assert poly_eval(poly.coeffs, 1, M61) == 1494
    assert poly_eval(poly.coeffs, 6, M61) == 5614


def test_eval_accepts_raw_coefficients():
    # a list or a tuple, reduced mod p at every step
    assert poly_eval([1234, 166, 94], 2, M61) == 1942
    assert poly_eval((1234, 166, 94), 2, 97) == 1942 % 97
    assert poly_eval((M61 + 5,), 9, M61) == 5


def test_eval_matches_power_sum_oracle(p97, m61):
    rng = random.Random(0xF1E1D)
    for modulus in (p97, m61):
        p = modulus.p
        for _ in range(500):
            k = rng.randrange(1, 9)
            coeffs = [rng.randrange(p) for _ in range(k)]
            if k > 1:
                coeffs[-1] = rng.randrange(1, p)
            x = rng.randrange(p)
            assert poly_eval(coeffs, x, p) == slow_poly_eval(coeffs, x, p)


def test_polynomial_reduces_coefficients(p97):
    poly = SecretPolynomial((100, 98, 1), p97)
    assert poly.coeffs == (3, 1, 1)
    assert len(poly.coeffs) == 3


def test_polynomial_rejects_empty(m61):
    with pytest.raises(InvalidPolynomial):
        SecretPolynomial((), m61)


def test_production_rejects_degenerate_leading_coefficient(m61, p97):
    with pytest.raises(InvalidPolynomial):
        SecretPolynomial((5, 1, 0), m61)
    with pytest.raises(InvalidPolynomial):
        SecretPolynomial((5, 1, M61), m61)  # reduces to zero
    # the test profile tolerates degeneracy so tiny-field demos can run
    assert SecretPolynomial((5, 1, 0), p97).coeffs == (5, 1, 0)
    # a constant has no higher coefficient whose loss would drop the threshold
    assert SecretPolynomial((0,), m61).coeffs == (0,)


# ---------------------------------------------------------------- integer roots

def test_nth_root_frozen_values():
    assert integer_nth_root(874225, 2) == 935
    assert integer_nth_root(874226, 2) ** 2 != 874226
    assert integer_nth_root(0, 5) == 0
    assert integer_nth_root(1, 8) == 1
    assert integer_nth_root(2, 3) == 1  # 2 is no fixed point past n = 1
    assert integer_nth_root(300, 1) == 300


def test_nth_root_exhaustive_16bit():
    # every 16-bit base, every supported exponent: root(s^n, n) == s
    for n in range(1, 9):
        for s in range(1 << 16):
            assert integer_nth_root(s**n, n) == s


def test_nth_root_floor_behaviour():
    rng = random.Random(0xB0B)
    for _ in range(2000):
        n = rng.randrange(2, 9)
        v = rng.randrange(1 << 64)
        r = integer_nth_root(v, n)
        assert r**n <= v < (r + 1) ** n


def test_nth_root_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integer_nth_root(-1, 2)
    with pytest.raises(ValueError):
        integer_nth_root(4, 0)
