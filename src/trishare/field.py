"""Exact arithmetic over a prime field Z_p.

All values are Python ints (never numpy fixed-width types): share math
must be exact, and intermediate products overflow 64 bits long before
p = 2^61 - 1.  The default modulus is that Mersenne prime; small primes
such as 97 are allowed only for test-profile moduli, where exhaustive
enumeration is feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

from .errors import Error

#: Default production modulus: the Mersenne prime 2^61 - 1.
M61 = (1 << 61) - 1

#: Smallest modulus accepted outside test profiles.
MIN_PRODUCTION_MODULUS = 1 << 16

# Deterministic Miller-Rabin witness set: the first 12 primes.  It is
# proven exact only below _MR_BOUND (about 3.2 * 10^23), the smallest
# strong pseudoprime to all 12 bases (Sorenson & Webster, "Strong
# pseudoprimes to twelve prime bases"), so is_prime refuses to decide
# at or above it.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


class InvalidModulus(Error):
    """Modulus is not prime, or too small for a production profile."""


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
    """A verified prime modulus.

    `test_profile=True` admits small primes (and degenerate sharing
    polynomials) for exhaustive tests; production profiles require
    p >= 2^16.
    """

    p: int
    test_profile: bool = False

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise InvalidModulus(f"{self.p} is not prime")
        if not self.test_profile and self.p < MIN_PRODUCTION_MODULUS:
            raise InvalidModulus(
                f"p={self.p} below {MIN_PRODUCTION_MODULUS}; "
                "use test_profile=True for small primes"
            )


@lru_cache(maxsize=None)
def modulus_for(p: int) -> FieldModulus:
    """FieldModulus for a raw prime, inferring the profile from its size."""
    return FieldModulus(p, test_profile=p < MIN_PRODUCTION_MODULUS)


def default_modulus() -> FieldModulus:
    """The production modulus 2^61 - 1."""
    return modulus_for(M61)


ModulusLike = Union[FieldModulus, int]


def _p_of(modulus: ModulusLike) -> int:
    return modulus.p if isinstance(modulus, FieldModulus) else int(modulus)


def mod_inverse(a: int, modulus: ModulusLike) -> int:
    """Multiplicative inverse of a mod p.

    Works for any prime p (no reliance on p's form).  Raises ZeroInverse
    when a is congruent to zero.
    """
    p = _p_of(modulus)
    if a % p == 0:
        raise ZeroInverse(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


@dataclass(frozen=True)
class SecretPolynomial:
    """Coefficients [a0, a1, ..., a_{k-1}] of a sharing polynomial, low first.

    a0 is the shared secret.  All coefficients are reduced mod p at
    construction.  Outside test profiles the leading coefficient must be
    nonzero when k > 1, otherwise the effective threshold silently drops.
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

    @property
    def k(self) -> int:
        """Number of coefficients; the reconstruction threshold."""
        return len(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def poly_eval(poly: "SecretPolynomial | Sequence[int]", x: int,
              modulus: ModulusLike | None = None) -> int:
    """Evaluate the polynomial at x mod p using Horner's rule."""
    if isinstance(poly, SecretPolynomial):
        coeffs = poly.coeffs
        p = poly.modulus.p
    else:
        if modulus is None:
            raise ValueError("modulus required when passing raw coefficients")
        coeffs = tuple(poly)
        p = _p_of(modulus)
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
