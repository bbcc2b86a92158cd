"""Lagrange reconstruction of the sharing polynomial from its points.

Through k points with distinct abscissae runs exactly one polynomial of
degree at most k-1; the secret is its value at 0.  The point count sets
the degree: the caller supplies exactly the threshold's worth of points.
The points carry the modulus, and all of them must share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .errors import Error
from .field import SecretPolynomial, mod_inverse
from .sharing import BindingCode, SharePoint, binding_code


class DuplicateAbscissa(Error):
    """Two input points share an x; interpolation is undefined."""


class NotEnoughPoints(Error):
    """No points at all; a secret needs at least one."""


@dataclass(frozen=True)
class ReconstructionInput:
    """Points on one polynomial; at least one, with distinct x and one
    modulus, checked at construction."""

    points: Tuple[SharePoint, ...]

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise NotEnoughPoints("got no points; a secret needs at least one")
        p = pts[0].modulus.p
        seen = set()
        for pt in pts:
            if pt.modulus.p != p:
                raise Error(f"point modulus {pt.modulus.p} != first point's {p}")
            if pt.x in seen:
                raise DuplicateAbscissa(f"duplicate abscissa x={pt.x}")
            seen.add(pt.x)


def reconstruct_secret(inp: ReconstructionInput) -> int:
    """F(0) = sum_j y_j * l_j(0): the shared secret."""
    p = inp.points[0].modulus.p
    acc = 0
    for j, pt in enumerate(inp.points):
        num = 1  # l_j(0) = prod_{m != j} (0 - x_m) / (x_j - x_m)
        den = 1
        for m, other in enumerate(inp.points):
            if m == j:
                continue
            num = num * -other.x % p
            den = den * (pt.x - other.x) % p
        acc = (acc + pt.y * num * mod_inverse(den, p)) % p
    return acc


def reconstruct_polynomial(inp: ReconstructionInput) -> SecretPolynomial:
    """Full monomial coefficients [a0, ..., a_{k-1}] of the interpolant.

    Expands sum_j y_j * l_j(X) by multiplying out each basis
    numerator.  Under a production modulus a degenerate result (zero
    leading coefficient) raises InvalidPolynomial; with honest shares
    that only happens with probability ~1/p.
    """
    modulus = inp.points[0].modulus
    p = modulus.p
    k = len(inp.points)
    coeffs = [0] * k
    for j, pt in enumerate(inp.points):
        num = [1]  # ascending coefficients of prod_{m != j} (X - x_m)
        den = 1
        for m, other in enumerate(inp.points):
            if m == j:
                continue
            num = _mul_linear(num, other.x, p)
            den = den * (pt.x - other.x) % p
        scale = pt.y * mod_inverse(den, p) % p
        for i, c in enumerate(num):
            coeffs[i] = (coeffs[i] + c * scale) % p
    return SecretPolynomial(tuple(coeffs), modulus)


def _mul_linear(coeffs: List[int], root: int, p: int) -> List[int]:
    """Multiply an ascending-coefficient polynomial by (X - root) mod p."""
    out = [0] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] = (out[i] - c * root) % p
        out[i + 1] = (out[i + 1] + c) % p
    return out


def verify_binding(poly: SecretPolynomial, code: BindingCode,
                   file_id: bytes) -> bool:
    """Does the reconstructed polynomial match the file's binding code?

    Recomputes x_kc from the file identity and kc from the polynomial;
    a single tampered share point changes the interpolant and flips this
    to False with probability 1 - 1/p.
    """
    return binding_code(poly, file_id) == code
