import random

import pytest
from hypothesis import given, settings, strategies as st

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
    modulus_for,
    poly_eval,
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
        ReconstructionInput(pts)


def test_point_count_must_match_threshold(m61):
    pts = points_of(TABLE_POINTS, m61)
    # two points of the threshold-3 parabola give the line through them,
    # not F(0)
    line = reconstruct_polynomial(ReconstructionInput(pts[:2]))
    assert line.coeffs == (1046, 448)
    # three give F itself
    poly = reconstruct_polynomial(ReconstructionInput(pts[:3]))
    assert poly.coeffs == (1234, 166, 94)
    # a fourth leaves the secret as it is, but the cubic term of the
    # interpolant is zero, which the production profile refuses to mint
    for count in (4, 6):
        inp = ReconstructionInput(pts[:count])
        assert reconstruct_secret(inp) == 1234
        with pytest.raises(InvalidPolynomial):
            reconstruct_polynomial(inp)


@pytest.mark.parametrize("k", [None, 0, 3])
def test_zero_points_rejected(m61, k):
    # a prefix of the table (all of it, none of it, three points) is a
    # valid input exactly when it holds a point
    pts = points_of(TABLE_POINTS[:k], m61)
    if pts:
        assert reconstruct_secret(ReconstructionInput(pts)) == 1234
    with pytest.raises(NotEnoughPoints):
        ReconstructionInput(pts[:0])


def test_threshold_defaults_to_point_count(m61, p97):
    # the input names no threshold: the interpolant's k is the point count
    for count in (1, 2, 3):
        inp = ReconstructionInput(points_of(TABLE_POINTS[:count], m61))
        assert len(reconstruct_polynomial(inp).coeffs) == count
    inp = ReconstructionInput(points_of(TABLE_POINTS, p97))
    poly = reconstruct_polynomial(inp)
    assert len(poly.coeffs) == 6
    assert poly.coeffs == (1234 % 97, 166 % 97, 94, 0, 0, 0)


def test_mixed_moduli_rejected(m61, p97):
    pts = (
        SharePoint(x=1, y=10, modulus=m61),
        SharePoint(x=2, y=19, modulus=p97),
        SharePoint(x=3, y=32, modulus=p97),
    )
    # the points carry the modulus: an odd one out is rejected wherever it is
    for order in (pts, pts[::-1]):
        with pytest.raises(Error):
            ReconstructionInput(order)


# ---------------------------------------------------------------- reconstruction

@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([97, M61]), st.data())
def test_interpolant_passes_through_every_point(p, data):
    # the interpolant takes each y at its x, and the secret is its
    # constant term wherever the polynomial is defined
    k = data.draw(st.integers(min_value=1, max_value=6))
    xs = data.draw(st.lists(st.integers(1, p - 1), min_size=k, max_size=k,
                            unique=True))
    ys = data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    modulus = modulus_for(p)
    inp = ReconstructionInput(points_of(zip(xs, ys), modulus))
    try:
        poly = reconstruct_polynomial(inp)
    except InvalidPolynomial:
        assert not modulus.test_profile  # a zero leading coefficient
        return
    assert [poly_eval(poly.coeffs, x, p) for x in xs] == ys
    assert reconstruct_secret(inp) == poly.coeffs[0]


def test_reference_reconstruction(m61):
    inp = ReconstructionInput(points_of([(2, 1942), (4, 3402), (5, 4414)], m61))
    assert reconstruct_secret(inp) == 1234
    poly = reconstruct_polynomial(inp)
    assert poly.coeffs == (1234, 166, 94)


def test_all_three_subsets_of_reference_table(m61):
    from itertools import combinations

    pts = points_of(TABLE_POINTS, m61)
    for trio in combinations(pts, 3):
        inp = ReconstructionInput(trio)
        assert reconstruct_secret(inp) == 1234
        assert reconstruct_polynomial(inp).coeffs == (1234, 166, 94)


def test_constant_data_reconstructs_constant(m61):
    inp = ReconstructionInput(points_of([(1, 5), (2, 5), (3, 5)], m61))
    assert reconstruct_secret(inp) == 5


def test_degenerate_polynomial_surfaces_under_production(m61, p97):
    # constant data means a zero leading coefficient; the production
    # profile refuses to mint that polynomial, the test profile allows it
    pts_prod = points_of([(1, 5), (2, 5), (3, 5)], m61)
    with pytest.raises(InvalidPolynomial):
        reconstruct_polynomial(ReconstructionInput(pts_prod))
    pts_test = points_of([(1, 5), (2, 5), (3, 5)], p97)
    poly = reconstruct_polynomial(ReconstructionInput(pts_test))
    assert poly.coeffs == (5, 0, 0)


def test_matches_gaussian_elimination_oracle(m61, p97):
    rng = random.Random(0x6A55)
    for modulus in (p97, m61):
        p = modulus.p
        for _ in range(500):
            k = rng.randrange(1, 7)
            xs = rng.sample(range(1, min(p, 10_000)), k)
            pairs = [(x, rng.randrange(p)) for x in xs]
            inp = ReconstructionInput(points_of(pairs, modulus))
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
        inp = ReconstructionInput(sample)
        assert reconstruct_secret(inp) == secret
        assert reconstruct_polynomial(inp).coeffs == tuple(
            c % M61 for c in [secret] + coeffs
        )


# ---------------------------------------------------------------- binding checks

def test_verify_binding_accepts_honest_code(m61):
    poly = SecretPolynomial((1234, 166, 94), m61)
    code = binding_code(poly, b"report.pdf")
    assert verify_binding(poly, code, b"report.pdf")


def test_verify_binding_rejects_tampered_kc(m61):
    poly = SecretPolynomial((1234, 166, 94), m61)
    code = binding_code(poly, b"report.pdf")
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
    code = binding_code(poly, b"report.pdf")
    rng = random.Random(3)
    for _ in range(50):
        other = SecretPolynomial(
            (rng.randrange(M61), rng.randrange(1, M61), rng.randrange(1, M61)), m61
        )
        if other.coeffs == poly.coeffs:
            continue
        assert not verify_binding(other, code, b"report.pdf")
