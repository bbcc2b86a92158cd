import ast
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import trishare
from trishare import (
    M61,
    CorruptShareRecord,
    EncryptedShare,
    Error,
    InvalidPolynomial,
    NotEnoughUsers,
    SecretPolynomial,
    SecretTooLarge,
    SharePoint,
    binding_code,
    decrypt_share,
    derive_attribute_tokens,
    derive_binding_x,
    encrypt_share,
    fnv1a64,
    poly_eval,
    split_secret,
)
from oracles import slow_fnv1a64, slow_poly_eval

TABLE_POINTS = ((1, 1494), (2, 1942), (3, 2578), (4, 3402), (5, 4414), (6, 5614))


# ---------------------------------------------------------------- share points

def test_share_point_bounds(p97):
    with pytest.raises(Error):
        SharePoint(x=0, y=5, modulus=p97)
    with pytest.raises(Error):
        SharePoint(x=97, y=5, modulus=p97)
    assert SharePoint(x=3, y=100, modulus=p97).y == 3  # y reduced


# ---------------------------------------------------------------- splitting

def test_split_frozen_small_field(p97):
    pts = split_secret(5, [3, 2], 3, p97)
    assert [(pt.x, pt.y) for pt in pts] == [(1, 10), (2, 19), (3, 32)]


def test_split_reference_table(m61):
    pts = split_secret(1234, [166, 94], 6, m61)
    assert tuple((pt.x, pt.y) for pt in pts) == TABLE_POINTS


def test_split_abscissas_start_at_one(m61):
    pts = split_secret(7, [1, 1], 5, m61)
    assert [pt.x for pt in pts] == [1, 2, 3, 4, 5]
    assert all(pt.x != 0 for pt in pts)


def test_split_rejects_oversized_secret(p97):
    with pytest.raises(SecretTooLarge):
        split_secret(1234, [3, 2], 3, p97)
    with pytest.raises(SecretTooLarge):
        split_secret(97, [3, 2], 3, p97)


def test_split_needs_threshold_many_users(m61):
    with pytest.raises(NotEnoughUsers):
        split_secret(5, [3, 2], 2, m61)
    assert len(split_secret(5, [3, 2], 3, m61)) == 3


def test_split_rejects_degenerate_production_poly(m61, p97):
    with pytest.raises(InvalidPolynomial):
        split_secret(5, [3, 0], 4, m61)
    # tiny-field demos may hit zero leading coefficients legitimately
    pts = split_secret(5, [3, 0], 4, p97)
    assert [pt.y for pt in pts] == [8, 11, 14, 17]


def test_split_points_lie_on_the_polynomial(m61):
    rng = random.Random(0x5EED)
    for _ in range(200):
        secret = rng.randrange(M61)
        coeffs = [rng.randrange(1, M61), rng.randrange(1, M61)]
        n = rng.randrange(3, 10)
        pts = split_secret(secret, coeffs, n, m61)
        full = [secret] + coeffs
        for pt in pts:
            assert pt.y == slow_poly_eval(full, pt.x, M61)


# ---------------------------------------------------------------- attribute tokens

def test_tokens_match_hash_oracle(m61):
    attrs = [b"dept:research", b"clearance:2", b"region:eu"]
    salt = b"\x01\x02"
    tokens = derive_attribute_tokens(attrs, salt, m61)
    assert len(tokens) == 3  # one coefficient per attribute
    for token, attr in zip(tokens, attrs):
        expected = slow_fnv1a64(salt + attr) % M61
        assert token == (expected or 1)


def test_tokens_zero_maps_to_one(p97):
    # hunt a (salt, attr) pair whose hash is 0 mod 97, then pin the remap
    for i in range(10_000):
        attr = b"attr%d" % i
        if fnv1a64(b"s" + attr) % 97 == 0:
            assert list(derive_attribute_tokens([attr], b"s", p97)) == [1]
            break
    else:
        pytest.fail("no zero-token witness under p=97 in 10k tries")


def test_tokens_respond_to_salt(m61):
    attrs = [b"a", b"b", b"c"]
    t1 = derive_attribute_tokens(attrs, b"salt1", m61)
    t2 = derive_attribute_tokens(attrs, b"salt2", m61)
    assert t1 != t2


# ---------------------------------------------------------------- binding codes

def test_binding_frozen_value(m61):
    poly = SecretPolynomial((1234, 166, 94), m61)
    code = binding_code(poly, b"any")
    # x_kc is derived from the file id; kc = 1234 + F(x_kc) mod p
    assert code.x_kc == derive_binding_x(b"any", m61) == 502067903028274140
    assert code.kc == (1234 + poly_eval(poly.coeffs, code.x_kc, M61)) % M61
    assert code.kc == 651749777246912713


def test_binding_x_in_range(m61, p97):
    for fid in (b"a", b"b", b"report.pdf", b"\x00" * 8):
        for modulus in (m61, p97):
            x = derive_binding_x(fid, modulus)
            assert 1 <= x <= modulus.p - 1


def test_binding_x_hits_both_ends_small_field(p97):
    # scan for witnesses that the +1 shift lands exactly on [1, p-1]
    low = high = None
    for i in range(200_000):
        fid = b"f%d" % i
        r = fnv1a64(fid) % 96
        if r == 0 and low is None:
            low = derive_binding_x(fid, p97)
        if r == 95 and high is None:
            high = derive_binding_x(fid, p97)
        if low is not None and high is not None:
            break
    assert low == 1 and high == 96


def test_binding_default_x_is_file_derived(m61):
    poly = SecretPolynomial((1234, 166, 94), m61)
    code = binding_code(poly, b"report.pdf")
    assert code.x_kc == derive_binding_x(b"report.pdf", m61)
    assert code.kc == (1234 + poly_eval(poly.coeffs, code.x_kc, M61)) % M61


def test_binding_constant_poly_doubles_secret(p97):
    poly = SecretPolynomial((40, 0, 0), p97)
    code = binding_code(poly, b"f")
    assert code.kc == (2 * 40) % 97


# ---------------------------------------------------------------- blinded records

def creds(tag):
    return b"cred:" + tag


def test_encrypt_share_formula(m61):
    share = SharePoint(x=2, y=1942, modulus=m61)
    poly = SecretPolynomial((1234, 166, 94), m61)
    code = binding_code(poly, b"fid")
    rec = encrypt_share(share, creds(b"alice"), "fid", code)
    blind = fnv1a64(creds(b"alice")) % M61
    assert rec.y_enc == (1942 + blind) % M61
    assert rec.x == 2
    assert rec.p == M61
    assert (rec.kc, rec.x_kc) == (code.kc, code.x_kc)


def test_share_round_trip(m61):
    share = SharePoint(x=4, y=3402, modulus=m61)
    poly = SecretPolynomial((1234, 166, 94), m61)
    code = binding_code(poly, b"fid")
    rec = encrypt_share(share, creds(b"bob"), "fid", code)
    back = decrypt_share(rec, creds(b"bob"))
    assert (back.x, back.y) == (4, 3402)


def test_wrong_credentials_garble_the_point(m61):
    share = SharePoint(x=4, y=3402, modulus=m61)
    poly = SecretPolynomial((1234, 166, 94), m61)
    code = binding_code(poly, b"fid")
    rec = encrypt_share(share, creds(b"bob"), "fid", code)
    other = decrypt_share(rec, creds(b"mallory"))
    assert other.y != 3402


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=M61 - 1),
    st.integers(min_value=1, max_value=M61 - 1),
    st.binary(min_size=1, max_size=16),
)
def test_blinding_round_trip_property(x_seed, y, who):
    from trishare import default_modulus

    m = default_modulus()
    share = SharePoint(x=x_seed % 200 + 1, y=y, modulus=m)
    poly = SecretPolynomial((y, 1, 1), m)
    code = binding_code(poly, b"f")
    rec = encrypt_share(share, who, "f", code)
    assert decrypt_share(rec, who) == share


def test_record_json_wire_format(m61):
    share = SharePoint(x=5, y=4414, modulus=m61)
    poly = SecretPolynomial((1234, 166, 94), m61)
    code = binding_code(poly, b"fid")
    rec = encrypt_share(share, creds(b"eve"), "fid", code)
    wire = json.loads(rec.to_json())
    assert set(wire) == {"file_id", "x", "y_enc", "p", "kc", "x_kc"}
    assert wire["file_id"] == "fid"
    assert EncryptedShare.from_json(rec.to_json()) == rec
    assert EncryptedShare.from_dict(wire) == rec


RECORD_FIELDS = dict(file_id='memo "q" \u00e9', x=5, y_enc=M61 - 1, p=M61,
                     kc=1234, x_kc=77)


def test_record_fields_are_read_only():
    rec = EncryptedShare(**RECORD_FIELDS)
    for name in RECORD_FIELDS:
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
    assert rec == EncryptedShare(**RECORD_FIELDS)


def test_record_positional_and_keyword_construction_agree():
    by_keyword = EncryptedShare(**RECORD_FIELDS)
    by_position = EncryptedShare(*RECORD_FIELDS.values())
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert EncryptedShare.from_dict(RECORD_FIELDS) == by_keyword
    assert type(EncryptedShare.from_dict(RECORD_FIELDS)) is EncryptedShare
    assert {by_position: "v"}[by_keyword] == "v"


@pytest.mark.parametrize("file_id", [None, 5])
def test_from_dict_rejects_non_string_file_id(file_id):
    with pytest.raises(TypeError):
        EncryptedShare.from_dict({**RECORD_FIELDS, "file_id": file_id})


def test_record_json_is_pinned():
    rec = EncryptedShare(**RECORD_FIELDS)
    assert rec.to_json() == (
        '{"file_id": "memo \\"q\\" \\u00e9", "kc": 1234, '
        '"p": 2305843009213693951, "x": 5, "x_kc": 77, '
        '"y_enc": 2305843009213693950}')
    assert EncryptedShare.from_json(rec.to_json()) == rec


@pytest.mark.parametrize("text, cause", [
    ("not json", json.JSONDecodeError),
    ("[1, 2]", TypeError),
    ('{"file_id": "f"}', KeyError),
    ('{"file_id": "f", "x": "abc", "y_enc": 1, "p": 97, "kc": 1, "x_kc": 1}',
     TypeError),
    ('{"file_id": "f", "x": Infinity, "y_enc": 1, "p": 97, "kc": 1, "x_kc": 1}',
     TypeError),
    # Values int() reads but to_json never writes: each would come back
    # as another value.
    ('{"file_id": "f", "x": 1.9, "y_enc": 1, "p": 97, "kc": 1, "x_kc": 1}',
     TypeError),
    ('{"file_id": "f", "x": 1, "y_enc": 1, "p": 97, "kc": "79", "x_kc": 1}',
     TypeError),
    ('{"file_id": "f", "x": 1, "y_enc": 1, "p": 97, "kc": 1, "x_kc": " 7 "}',
     TypeError),
    ('{"file_id": "f", "x": 1, "y_enc": true, "p": 97, "kc": 1, "x_kc": 1}',
     TypeError),
    ("[" * 100_000, RecursionError),
    # Bytes are UTF-8 or refused; json.loads alone would guess the others.
    (b"\xff" + EncryptedShare(**RECORD_FIELDS).to_json().encode(),
     UnicodeDecodeError),
    (EncryptedShare(**RECORD_FIELDS).to_json().encode("utf-16"),
     UnicodeDecodeError),
    (EncryptedShare(**RECORD_FIELDS).to_json().encode("utf-32"),
     UnicodeDecodeError),
], ids=["not-json", "json-list", "missing-key", "non-numeric-x", "infinite-x",
        "fraction-x", "string-kc", "spaced-x_kc", "bool-y_enc", "too-deep",
        "not-utf8-bytes", "utf16-bytes", "utf32-bytes"])
def test_from_json_rejects_non_record(text, cause):
    with pytest.raises(CorruptShareRecord) as info:
        EncryptedShare.from_json(text)
    assert isinstance(info.value.__cause__, cause)


def test_from_json_reads_utf8_bytes():
    rec = EncryptedShare(**RECORD_FIELDS)
    text = json.dumps(rec._asdict(), ensure_ascii=False)
    assert "\u00e9" in text  # a two-byte UTF-8 sequence, not an escape
    assert EncryptedShare.from_json(text.encode("utf-8")) == rec


def test_only_read_json_calls_json_loads():
    """Every decode of stored JSON (the policy, a block's id, a share
    record) goes through sharing.read_json, so a fix to decoding lands
    once: no other function of the package may reach json.loads."""
    sites = []

    class Finder(ast.NodeVisitor):
        def __init__(self, name):
            self.where = [name]

        def visit_FunctionDef(self, node):
            self.where.append(node.name)
            self.generic_visit(node)
            self.where.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Attribute(self, node):
            if (node.attr == "loads" and isinstance(node.value, ast.Name)
                    and node.value.id == "json"):
                sites.append(".".join(self.where))
            self.generic_visit(node)

        def visit_ImportFrom(self, node):
            if node.module == "json" and any(a.name == "loads" for a in node.names):
                sites.append(".".join(self.where))

    for path in sorted(Path(trishare.__file__).parent.glob("*.py")):
        Finder(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert sites == ["sharing.read_json"]


# ---------------------------------------------------------------- end to end

def test_split_blind_unblind_reconstruct_identity(m61, p97):
    from trishare import ReconstructionInput, reconstruct_secret

    rng = random.Random(0xABCD)
    for modulus in (p97, m61):
        p = modulus.p
        zero_leading = 0
        for _ in range(500):
            secret = rng.randrange(p)
            # the test profile accepts a zero leading coefficient
            coeffs = [rng.randrange(p),
                      rng.randrange(p) if modulus.test_profile else rng.randrange(1, p)]
            zero_leading += coeffs[-1] == 0
            n = rng.randrange(3, 8)
            pts = split_secret(secret, coeffs, n, modulus)
            chosen = rng.sample(pts, 3)
            inp = ReconstructionInput(tuple(chosen))
            assert reconstruct_secret(inp) == secret
        if modulus.test_profile:
            assert zero_leading > 0
