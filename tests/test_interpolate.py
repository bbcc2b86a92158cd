import random

import pytest

from trishare import (
    M61,
    BindingCode,
    DuplicateAbscissa,
    Error,
    InvalidPolynomial,
    NotEnoughPoints,
    ReconstructionInput,
    SecretPolynomial,
    SharePoint,
    binding_code,
    lagrange_basis_at,
    mod_inverse,
    reconstruct_polynomial,
    reconstruct_secret,
    split_secret,
    verify_binding,
)
from oracles import gauss_coeffs

TABLE_POINTS = ((1, 1494), (2, 1942), (3, 2578), (4, 3402), (5, 4414), (6, 5614))


def points_of(pairs, modulus):
    return tuple(SharePoint(x=x, y=y, modulus=modulus) for x, y in pairs)


# ---------------------------------------------------------------- input validation

def test_duplicate_abscissa_rejected(m61):
    pts = points_of([(1, 1), (1, 2), (3, 3)], m61)
    with pytest.raises(DuplicateAbscissa):
        ReconstructionInput(points=pts, modulus=m61)


def test_point_count_must_match_threshold(m61):
    pts = points_of(TABLE_POINTS, m61)
    # two points of the threshold-3 parabola give the line through them,
    # not F(0)
    line = reconstruct_polynomial(ReconstructionInput(points=pts[:2], modulus=m61))
    assert line.coeffs == (1046, 448)
    # three give F itself
    poly = reconstruct_polynomial(ReconstructionInput(points=pts[:3], modulus=m61))
    assert poly.coeffs == (1234, 166, 94)
    # a fourth leaves the secret as it is, but the cubic term of the
    # interpolant is zero, which the production profile refuses to mint
    for count in (4, 6):
        inp = ReconstructionInput(points=pts[:count], modulus=m61)
        assert reconstruct_secret(inp) == 1234
        with pytest.raises(InvalidPolynomial):
            reconstruct_polynomial(inp)


@pytest.mark.parametrize("k", [None, 0, 3])
def test_zero_points_rejected(m61, k):
    # a prefix of the table (all of it, none of it, three points) is a
    # valid input exactly when it holds a point
    pts = points_of(TABLE_POINTS[:k], m61)
    if pts:
        assert reconstruct_secret(ReconstructionInput(points=pts, modulus=m61)) == 1234
    with pytest.raises(NotEnoughPoints):
        ReconstructionInput(points=pts[:0], modulus=m61)


def test_threshold_defaults_to_point_count(m61, p97):
    # the input names no threshold: the interpolant's k is the point count
    for count in (1, 2, 3):
        inp = ReconstructionInput(points=points_of(TABLE_POINTS[:count], m61), modulus=m61)
        assert reconstruct_polynomial(inp).k == count
    inp = ReconstructionInput(points=points_of(TABLE_POINTS, p97), modulus=p97)
    poly = reconstruct_polynomial(inp)
    assert poly.k == 6
    assert poly.coeffs == (1234 % 97, 166 % 97, 94, 0, 0, 0)


def test_mixed_moduli_rejected(m61, p97):
    pts = (
        SharePoint(x=1, y=10, modulus=m61),
        SharePoint(x=2, y=19, modulus=p97),
        SharePoint(x=3, y=32, modulus=p97),
    )
    with pytest.raises(Error):
        ReconstructionInput(points=pts, modulus=p97)


# ---------------------------------------------------------------- basis polynomials

def test_basis_frozen_value(m61):
    inp = ReconstructionInput(
        points=points_of([(2, 1942), (4, 3402), (5, 4414)], m61), modulus=m61
    )
    # l_0(0) for abscissas {2,4,5} is (0-4)(0-5) / (2-4)(2-5) = 20/6 = 10/3
    expected = 20 * mod_inverse(6, m61) % M61
    assert lagrange_basis_at(inp, 0, 0) == expected
    assert expected == 10 * mod_inverse(3, m61) % M61


def test_basis_kronecker_property(m61, p97):
    rng = random.Random(0x1A6)
    for modulus in (p97, m61):
        for _ in range(50):
            xs = rng.sample(range(1, min(modulus.p, 500)), 4)
            pts = tuple(
                SharePoint(x=x, y=rng.randrange(modulus.p), modulus=modulus)
                for x in xs
            )
            inp = ReconstructionInput(points=pts, modulus=modulus)
            for j in range(4):
                for i in range(4):
                    want = 1 if i == j else 0
                    assert lagrange_basis_at(inp, j, xs[i]) == want


def test_basis_weights_sum_to_one_at_zero(m61):
    # sum of l_j(0) is the interpolation of the constant 1
    inp = ReconstructionInput(points=points_of(TABLE_POINTS[:3], m61), modulus=m61)
    total = sum(lagrange_basis_at(inp, j, 0) for j in range(3)) % M61
    assert total == 1


# ---------------------------------------------------------------- reconstruction

def test_reference_reconstruction(m61):
    inp = ReconstructionInput(
        points=points_of([(2, 1942), (4, 3402), (5, 4414)], m61), modulus=m61
    )
    assert reconstruct_secret(inp) == 1234
    poly = reconstruct_polynomial(inp)
    assert poly.coeffs == (1234, 166, 94)


def test_all_three_subsets_of_reference_table(m61):
    from itertools import combinations

    pts = points_of(TABLE_POINTS, m61)
    for trio in combinations(pts, 3):
        inp = ReconstructionInput(points=trio, modulus=m61)
        assert reconstruct_secret(inp) == 1234
        assert reconstruct_polynomial(inp).coeffs == (1234, 166, 94)


def test_constant_data_reconstructs_constant(m61):
    inp = ReconstructionInput(points=points_of([(1, 5), (2, 5), (3, 5)], m61), modulus=m61)
    assert reconstruct_secret(inp) == 5


def test_degenerate_polynomial_surfaces_under_production(m61, p97):
    # constant data means a zero leading coefficient; the production
    # profile refuses to mint that polynomial, the test profile allows it
    pts_prod = points_of([(1, 5), (2, 5), (3, 5)], m61)
    with pytest.raises(InvalidPolynomial):
        reconstruct_polynomial(ReconstructionInput(points=pts_prod, modulus=m61))
    pts_test = points_of([(1, 5), (2, 5), (3, 5)], p97)
    poly = reconstruct_polynomial(ReconstructionInput(points=pts_test, modulus=p97))
    assert poly.coeffs == (5, 0, 0)


def test_matches_gaussian_elimination_oracle(m61, p97):
    rng = random.Random(0x6A55)
    for modulus in (p97, m61):
        p = modulus.p
        for _ in range(500):
            k = rng.randrange(1, 7)
            xs = rng.sample(range(1, min(p, 10_000)), k)
            pairs = [(x, rng.randrange(p)) for x in xs]
            inp = ReconstructionInput(points=points_of(pairs, modulus), modulus=modulus)
            expected = gauss_coeffs(pairs, p)
            assert reconstruct_secret(inp) == expected[0]
            if modulus.test_profile or k == 1 or expected[-1] != 0:
                assert reconstruct_polynomial(inp).coeffs == expected


def test_split_then_reconstruct_round_trip(m61):
    rng = random.Random(42)
    for _ in range(100):
        secret = rng.randrange(M61)
        coeffs = [rng.randrange(M61), rng.randrange(1, M61)]
        pts = split_secret(secret, coeffs, 6, m61)
        sample = tuple(rng.sample(pts, 3))
        inp = ReconstructionInput(points=sample, modulus=m61)
        assert reconstruct_secret(inp) == secret
        assert reconstruct_polynomial(inp).coeffs == tuple(
            c % M61 for c in [secret] + coeffs
        )


# ---------------------------------------------------------------- binding checks

def test_verify_binding_accepts_honest_code(m61):
    poly = SecretPolynomial((1234, 166, 94), m61)
    code = binding_code(1234, poly, b"report.pdf")
    assert verify_binding(poly, code, b"report.pdf")


def test_verify_binding_rejects_tampered_kc(m61):
    poly = SecretPolynomial((1234, 166, 94), m61)
    code = binding_code(1234, poly, b"report.pdf")
    forged = BindingCode(kc=(code.kc + 1) % M61, x_kc=code.x_kc)
    assert not verify_binding(poly, forged, b"report.pdf")


def test_verify_binding_rejects_foreign_x(m61):
    poly = SecretPolynomial((1234, 166, 94), m61)
    # F(7) = 1234 + 166*7 + 94*49 = 7002: a kc that is right at x = 7,
    # away from the file-derived abscissa, must not verify
    code = BindingCode(kc=1234 + 7002, x_kc=7)
    assert not verify_binding(poly, code, b"report.pdf")


def test_verify_binding_rejects_wrong_polynomial(m61):
    poly = SecretPolynomial((1234, 166, 94), m61)
    code = binding_code(1234, poly, b"report.pdf")
    rng = random.Random(3)
    for _ in range(50):
        other = SecretPolynomial(
            (rng.randrange(M61), rng.randrange(1, M61), rng.randrange(1, M61)), m61
        )
        if other.coeffs == poly.coeffs:
            continue
        assert not verify_binding(other, code, b"report.pdf")
