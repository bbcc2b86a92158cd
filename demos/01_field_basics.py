"""
Prime fields, modular inverses, and integer roots
=================================================

Everything downstream (sharing, reconstruction, binding codes) runs on
exact integer arithmetic in Z_p.  This walk-through pokes at the field
layer directly.
"""

from trishare import (
    M61,
    default_modulus,
    integer_nth_root,
    mod_inverse,
    modulus_for,
    poly_eval,
    SecretPolynomial,
)

# The production modulus is the Mersenne prime 2^61 - 1.  A prime below
# 2^16, such as 97, is a test-profile modulus: the profile follows from
# p, and only there may a sharing polynomial have a zero leading
# coefficient.
m = default_modulus()
print(f"production modulus p = {m.p} (that is 2^61 - 1: {m.p == M61})")

m97 = modulus_for(97)
print(f"small-field profile: p = {m97.p}, test_profile = {m97.test_profile}")

# Inverses come from the extended Euclidean algorithm.  The field
# functions take p as a plain int.
inv3 = mod_inverse(3, m97.p)
print(f"\ninverse of 3 mod 97 = {inv3}  (check: 3 * {inv3} mod 97 = {3 * inv3 % 97})")

# The polynomial F(X) = 1234 + 166 X + 94 X^2 is the running example
# used throughout the library.
poly = SecretPolynomial((1234, 166, 94), m)
print(f"\nF(X) = 1234 + 166 X + 94 X^2 over p = {m.p}")
for x in range(1, 7):
    print(f"  F({x}) = {poly_eval(poly.coeffs, x, m.p)}")

# Exact integer n-th roots back the power-mode cipher's error path: a
# symbol (a - s)^n decodes from three of its byte columns, and one that
# no byte maps to is corrupt; its root, exact or not, says how.
print(f"\nisqrt-style roots: 935^2 = {935**2}, root back = "
      f"{integer_nth_root(935**2, 2)}")
print(f"874226 is not a perfect square: root {integer_nth_root(874226, 2)} "
      f"squares to {integer_nth_root(874226, 2)**2}")
