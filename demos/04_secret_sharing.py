"""
Degree-2 secret sharing with binding codes
==========================================

The file secret a0 becomes the constant term of F(X) = a0 + a1 X +
a2 X^2; participants hold points (x, F(x)).  Three points rebuild the
polynomial, two reveal nothing.
"""

from itertools import combinations

from trishare import (
    ReconstructionInput,
    SecretPolynomial,
    binding_code,
    decrypt_share,
    default_modulus,
    derive_attribute_tokens,
    encrypt_share,
    reconstruct_polynomial,
    reconstruct_secret,
    split_secret,
    verify_binding,
)

m = default_modulus()

# The running example: secret 1234, coefficients 166 and 94.
shares = split_secret(1234, [166, 94], 6, m)
print("issued shares (x, F(x)):")
for pt in shares:
    print(f"  ({pt.x}, {pt.y})")

# Any 3 of the 6 reconstruct the same secret; try them all.
secrets = {
    reconstruct_secret(ReconstructionInput(trio))
    for trio in combinations(shares, 3)
}
print(f"\nall {sum(1 for _ in combinations(shares, 3))} 3-subsets agree: "
      f"{secrets == {1234}}")

poly = reconstruct_polynomial(ReconstructionInput(tuple(shares[:3])))
print(f"recovered coefficients: {poly.coeffs}")

# Coefficients in the protocol come from salted attribute hashes, so
# the polynomial is determined by who the owner is.
tokens = derive_attribute_tokens(
    [b"owner:alice", b"role:finance"], b"salt-1", m)
print(f"\nattribute-derived coefficients: {tokens}")

# The binding code pins the polynomial to one file: kc = a0 + F(x_kc)
# at a file-derived abscissa.  After reconstruction the verifier checks
# it before trusting the secret.
ref_poly = SecretPolynomial((1234, 166, 94), m)
code = binding_code(ref_poly, b"q3-report.pdf")
print(f"binding code kc = {code.kc} at x_kc = {code.x_kc}")
print(f"binding verifies: {verify_binding(ref_poly, code, b'q3-report.pdf')}")
print(f"binding rejects another file: "
      f"{verify_binding(ref_poly, code, b'q4-report.pdf')}")

# Shares handed to receivers are blinded with a credential hash; the
# stored record is useless without the matching credentials.
record = encrypt_share(shares[4], b"cred-bob", "q3-report.pdf", code)
print(f"\nblinded record for x=5: y_enc = {record.y_enc}")
print(f"unblinded with the right creds: {decrypt_share(record, b'cred-bob').y}")
print(f"wrong creds give a stray point: "
      f"{decrypt_share(record, b'cred-eve').y != shares[4].y}")
print(f"\nwire form:\n{record.to_json()}")
