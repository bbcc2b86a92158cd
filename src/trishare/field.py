"""Exact arithmetic over a prime field Z_p.

All values are Python ints (never numpy fixed-width types): share math
must be exact, and intermediate products overflow 64 bits long before
p = 2^61 - 1.  The default modulus is that Mersenne prime.  A prime below
2^16, such as 97, is a test-profile modulus: small enough for exhaustive
enumeration, and it admits degenerate sharing polynomials.  The profile
follows from p alone.  poly_eval and mod_inverse take the modulus as a
plain int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import Error

#: Default production modulus: the Mersenne prime 2^61 - 1.
M61 = (1 << 61) - 1

#: Smallest modulus outside the test profile.
MIN_PRODUCTION_MODULUS = 1 << 16

# Deterministic Miller-Rabin witness set: the first 12 primes.  It is
# proven exact only below _MR_BOUND (about 3.2 * 10^23), the smallest
# strong pseudoprime to all 12 bases (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases"), so is_prime refuses to decide
# at or above it.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


class InvalidModulus(Error):
    """Modulus is not prime, or too large to decide."""


class ZeroInverse(Error):
    """Attempted to invert an element congruent to zero."""


class InvalidPolynomial(Error):
    """Polynomial violates a construction invariant (empty, or degenerate)."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality check.

    Raises InvalidModulus for n >= _MR_BOUND, where the witness set is
    not proven to tell primes from composites.
    """
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise InvalidModulus(f"{n} is at or above {_MR_BOUND}, beyond the "
                             "range where primality is decided exactly")
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldModulus:
    """A verified prime modulus."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise InvalidModulus(f"{self.p} is not prime")

    @property
    def test_profile(self) -> bool:
        """p < 2^16: a field small enough to enumerate, where degenerate
        sharing polynomials are allowed."""
        return self.p < MIN_PRODUCTION_MODULUS


@lru_cache(maxsize=None)
def modulus_for(p: int) -> FieldModulus:
    """FieldModulus(p), checked for primality once per p."""
    return FieldModulus(p)


def default_modulus() -> FieldModulus:
    """The production modulus 2^61 - 1."""
    return modulus_for(M61)


def mod_inverse(a: int, p: int) -> int:
    """Multiplicative inverse of a mod the prime p.

    Works for any prime p (no reliance on p's form).  Raises ZeroInverse
    when a is congruent to zero.
    """
    if a % p == 0:
        raise ZeroInverse(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


@dataclass(frozen=True)
class SecretPolynomial:
    """Coefficients [a0, a1, ..., a_{k-1}] of a sharing polynomial, low first.

    a0 is the shared secret and k = len(coeffs) the threshold.  All
    coefficients are reduced mod p at construction.  Outside the test
    profile the leading coefficient must be nonzero when k > 1,
    otherwise the effective threshold silently drops.
    """

    coeffs: tuple
    modulus: FieldModulus

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise InvalidPolynomial("polynomial needs at least one coefficient")
        p = self.modulus.p
        reduced = tuple(int(c) % p for c in self.coeffs)
        object.__setattr__(self, "coeffs", reduced)
        if len(reduced) > 1 and reduced[-1] == 0 and not self.modulus.test_profile:
            raise InvalidPolynomial(
                "leading coefficient is zero: threshold would silently drop"
            )


def poly_eval(coeffs: Sequence[int], x: int, p: int) -> int:
    """Evaluate a0 + a1*x + ... (coefficients low first) mod p by Horner's
    rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def integer_nth_root(value: int, n: int) -> int:
    """Largest r with r**n <= value, in exact integer arithmetic.

    Newton iteration on ints; n=2 delegates to math.isqrt.
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1 or value < 2:
        return value
    if n == 2:
        return math.isqrt(value)
    # Start from a power-of-two overestimate and descend.
    x = 1 << ((value.bit_length() + n - 1) // n)
    while True:
        y = ((n - 1) * x + value // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    while x ** n > value:
        x -= 1
    return x
