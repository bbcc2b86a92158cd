import json
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import slow_policy_json

from trishare import (
    BindingMismatch,
    CorruptPolicy,
    DuplicateUser,
    InsufficientPoints,
    M61,
    Mode,
    NoConsumers,
    NotGranted,
    ObjectStore,
    PolicyDb,
    ReconstructionInput,
    SharePoint,
    UnknownFile,
    UnknownOwner,
    UnknownUser,
    UserRecord,
    UserType,
    db_from_json,
    db_to_json,
    decrypt_share,
    grant_access,
    load_db,
    modulus_for,
    object_key,
    persist_db,
    reconstruct_polynomial,
    reconstruct_secret,
    register_user,
    request_decrypt,
    revoke_user,
    update_owner_share,
    verify_binding,
)
import trishare.authz
import trishare.policy
from trishare.authz import FIRST_CONSUMER_X, OWNER_X, SERVER_X, THRESHOLD
from trishare.policy import POLICY_DIGEST_FILENAME, POLICY_FILENAME

OWNER = UserRecord("olivia", UserType.OWNER, b"cred-olivia")
C1 = UserRecord("carol", UserType.CONSUMER, b"cred-carol")
C2 = UserRecord("chuck", UserType.CONSUMER, b"cred-chuck")
C3 = UserRecord("cindy", UserType.CONSUMER, b"cred-cindy")
C4 = UserRecord("caleb", UserType.CONSUMER, b"cred-caleb")

DATA = b"the cargo leaves at midnight" * 10


def base_db(tmp_path, *extra):
    db = PolicyDb()
    for rec in (OWNER, C1, C2) + extra:
        register_user(db, rec)
    return db, ObjectStore(tmp_path / "store")


# ---------------------------------------------------------------- registration

def test_register_round_trip(tmp_path):
    db, _ = base_db(tmp_path)
    assert db.users["olivia"].user_type == UserType.OWNER
    assert db.users["carol"].credentials == b"cred-carol"


def test_register_rejects_duplicates(tmp_path):
    db, _ = base_db(tmp_path)
    with pytest.raises(DuplicateUser):
        register_user(db, UserRecord("carol", UserType.CONSUMER, b"x"))


# ---------------------------------------------------------------- granting

def test_grant_validation(tmp_path):
    db, store = base_db(tmp_path)
    ghost = UserRecord("ghost", UserType.OWNER, b"?")
    with pytest.raises(UnknownOwner):
        grant_access(db, store, "f", ghost.user_id, ["carol"], DATA)
    with pytest.raises(UnknownOwner):
        grant_access(db, store, "f", "carol", ["chuck"], DATA)  # consumer cannot own
    with pytest.raises(NoConsumers):
        grant_access(db, store, "f", "olivia", [], DATA)
    with pytest.raises(UnknownUser):
        grant_access(db, store, "f", "olivia", ["who"], DATA)
    with pytest.raises(DuplicateUser):
        grant_access(db, store, "f", "olivia", ["carol", "carol"], DATA)


def test_grant_blinds_with_registered_credentials(tmp_path):
    db, store = base_db(tmp_path, UserRecord("bob", UserType.CONSUMER, b"cred-bob"))
    owner_share = grant_access(db, store, "f", "olivia", ["bob"], DATA)
    bob = db.users["bob"]
    grant = db.grants["f"]
    bob_pt = decrypt_share(grant.consumer_shares["bob"], bob.credentials)
    inp = ReconstructionInput((grant.server_share, owner_share, bob_pt))
    assert verify_binding(reconstruct_polynomial(inp), grant.binding, b"f")
    assert request_decrypt(db, store, "f", owner_share, bob) == DATA
    # other credentials under bob's id open nothing
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", owner_share,
                        UserRecord("bob", UserType.CONSUMER, b"not-bob"))


def test_grant_assigns_role_slots(tmp_path):
    db, store = base_db(tmp_path)
    owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    grant = db.grants["f"]
    assert grant.server_share.x == SERVER_X == 1
    assert owner_share.x == OWNER_X == 2
    xs = sorted(rec.x for rec in grant.consumer_shares.values())
    assert xs == [FIRST_CONSUMER_X, FIRST_CONSUMER_X + 1] == [3, 4]


def test_protocol_calls_return_only_what_is_not_stored(tmp_path):
    db, store = PolicyDb(), ObjectStore(tmp_path / "store")
    assert register_user(db, OWNER) is None
    register_user(db, C1)
    owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    assert isinstance(owner_share, SharePoint) and owner_share.x == OWNER_X
    deltas = revoke_user(db, "f", "carol")
    assert isinstance(deltas, tuple) and len(deltas) == THRESHOLD - 1


def test_grant_stores_envelope_under_content_key(tmp_path):
    db, store = base_db(tmp_path)
    grant_access(db, store, "f", "olivia", ["carol"], DATA)
    grant = db.grants["f"]
    assert grant.envelope_ref == object_key("f")
    blob = store.get_object(grant.envelope_ref)
    # the 20-byte header, then one additive-mode byte per plaintext byte
    assert len(blob) == 20 + len(DATA)


def test_grant_hands_the_store_header_and_payload_as_two_pieces(tmp_path):
    db, store = base_db(tmp_path)
    with mock.patch.object(store, "put_object", wraps=store.put_object) as put:
        grant_access(db, store, "f", "olivia", ["carol"], DATA,
                     mode=Mode.POWER, n=3)
    (ref, (header, payload)), = [call.args for call in put.call_args_list]
    assert len(header) == 20 and len(payload) > len(DATA)
    assert store.get_object(ref) == header + payload


def test_owner_share_is_never_stored(tmp_path):
    db, store = base_db(tmp_path)
    owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    grant = db.grants["f"]
    stored_xs = {grant.server_share.x}
    stored_xs.update(rec.x for rec in grant.consumer_shares.values())
    assert owner_share.x not in stored_xs
    # and the serialized policy has no trace of the owner ordinate
    wire = json.loads(db_to_json(db))
    for g in wire["grants"]:
        assert g["server_share"]["x"] != owner_share.x
        for rec in g["consumers"].values():
            assert rec["x"] != owner_share.x


def test_grant_replaces_previous_grant(tmp_path):
    db, store = base_db(tmp_path, C3)
    grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    share2 = grant_access(db, store, "f", "olivia", ["cindy"], b"new body")
    grant = db.grants["f"]
    assert set(grant.consumer_shares) == {"cindy"}
    out = request_decrypt(db, store, "f", share2, C3)
    assert out == b"new body"
    with pytest.raises(NotGranted):
        request_decrypt(db, store, "f", share2, C1)


def test_three_genuine_points_lie_on_one_parabola(tmp_path):
    db, store = base_db(tmp_path)
    owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    grant = db.grants["f"]
    consumer_pt = decrypt_share(grant.consumer_shares["carol"], C1.credentials)
    inp = ReconstructionInput((grant.server_share, owner_share, consumer_pt))
    secret = reconstruct_secret(inp)
    assert 0 <= secret < db.modulus.p


# ---------------------------------------------------------------- request flow

def test_protocol_round_trip_additive(tmp_path):
    db, store = base_db(tmp_path)
    owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    assert request_decrypt(db, store, "f", owner_share, C1) == DATA
    assert request_decrypt(db, store, "f", owner_share, C2) == DATA


def test_protocol_round_trip_power(tmp_path):
    db, store = base_db(tmp_path)
    owner_share = grant_access(
        db, store, "f", "olivia", ["carol"], DATA, mode=Mode.POWER, n=2
    )
    assert request_decrypt(db, store, "f", owner_share, C1) == DATA


def test_receiver_may_present_record_explicitly(tmp_path):
    db, store = base_db(tmp_path)
    owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    record = db.grants["f"].consumer_shares["carol"]
    out = request_decrypt(db, store, "f", owner_share, C1, receiver_share_record=record)
    assert out == DATA


def test_request_error_cases(tmp_path):
    db, store = base_db(tmp_path, C3)
    owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    with pytest.raises(UnknownFile):
        request_decrypt(db, store, "nope", owner_share, C1)
    with pytest.raises(UnknownUser):
        request_decrypt(db, store, "f", owner_share, UserRecord("x", UserType.CONSUMER, b"?"))
    with pytest.raises(InsufficientPoints):
        request_decrypt(db, store, "f", None, C1)
    with pytest.raises(NotGranted):
        request_decrypt(db, store, "f", owner_share, C3)  # registered, no share


def test_tampered_server_share_fails_binding(tmp_path):
    db, store = base_db(tmp_path)
    owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    grant = db.grants["f"]
    bent = SharePoint(
        x=grant.server_share.x,
        y=(grant.server_share.y + 1) % db.modulus.p,
        modulus=db.modulus,
    )
    object.__setattr__(grant, "server_share", bent)
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", owner_share, C1)


def test_borrowed_record_fails_binding(tmp_path):
    # C2 presents C1's record: unblinding with the wrong credentials
    # yields a point off the polynomial
    db, store = base_db(tmp_path)
    owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    stolen = db.grants["f"].consumer_shares["carol"]
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", owner_share, C2, receiver_share_record=stolen)


def test_stored_point_cannot_stand_in_for_the_owner(tmp_path):
    from trishare import RoleMismatch

    db, store = base_db(tmp_path)
    owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    grant = db.grants["f"]
    # the server point and every consumer point sit on the polynomial,
    # so without the slot check they would pass the binding
    with pytest.raises(RoleMismatch):
        request_decrypt(db, store, "f", grant.server_share, C1)
    carol_pt = decrypt_share(grant.consumer_shares["carol"], C1.credentials)
    with pytest.raises(RoleMismatch):
        request_decrypt(db, store, "f", carol_pt, C2)


@pytest.mark.parametrize("case", ["owner-x9-on-F", "owner-x9-off-F",
                                  "record-at-server-x"])
def test_point_outside_its_role_slot_is_role_mismatch(tmp_path, case):
    # No stored share holds x = 9, and a point there on F opens the file
    # by interpolation alone; a record at the server's x collides with it.
    from trishare import RoleMismatch, poly_eval

    db, store = base_db(tmp_path)
    owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    grant = db.grants["f"]
    record = grant.consumer_shares["carol"]
    carol_pt = decrypt_share(record, C1.credentials)
    poly = reconstruct_polynomial(
        ReconstructionInput((grant.server_share, owner_share, carol_pt)))
    p = db.modulus.p
    if case == "record-at-server-x":
        record = record._replace(x=SERVER_X)
    else:
        y = poly_eval(poly.coeffs, 9, p) + (case == "owner-x9-off-F")
        owner_share = SharePoint(x=9, y=y % p, modulus=db.modulus)
    with pytest.raises(RoleMismatch):
        request_decrypt(db, store, "f", owner_share, C1,
                        receiver_share_record=record)


def test_garbage_owner_point_fails_binding(tmp_path):
    db, store = base_db(tmp_path)
    owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    fake = SharePoint(x=owner_share.x, y=(owner_share.y + 7) % db.modulus.p,
                      modulus=db.modulus)
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", fake, C1)


# ---------------------------------------------------------------- reference fixture

def pinned_report_grant(tmp_path):
    # the worked example's polynomial F(X) = 1234 + 166 X + 94 X^2 under
    # the role layout: server at x=1, owner at x=2, consumers at x=3..6
    db, store = base_db(tmp_path, C3, C4)
    owner_share = grant_access(
        db, store, "report.pdf", "olivia", ["carol", "chuck", "cindy", "caleb"], DATA,
        secret=1234, coeffs=(166, 94),
    )
    return db, store, owner_share


def test_reference_walkthrough(tmp_path):
    db, store, owner_share = pinned_report_grant(tmp_path)
    grant = db.grants["report.pdf"]
    assert (grant.server_share.x, grant.server_share.y) == (1, 1494)
    assert (owner_share.x, owner_share.y) == (2, 1942)
    table = {3: 2578, 4: 3402, 5: 4414, 6: 5614}
    for user, x in zip((C1, C2, C3, C4), table):
        pt = decrypt_share(grant.consumer_shares[user.user_id], user.credentials)
        assert (pt.x, pt.y) == (x, table[x])
    receiver = C3  # holds the x=5 share
    pt = decrypt_share(grant.consumer_shares["cindy"], C3.credentials)
    assert (pt.x, pt.y) == (5, 4414)
    assert request_decrypt(db, store, "report.pdf", owner_share, receiver) == DATA


# ---------------------------------------------------------------- revocation

def granted(tmp_path):
    db, store = base_db(tmp_path, C3)
    owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck", "cindy"], DATA)
    return db, store, owner_share


def test_revoked_record_goes_stale(tmp_path):
    db, store, owner_share = granted(tmp_path)
    deltas = revoke_user(db, "f", "chuck")
    assert "chuck" not in db.grants["f"].consumer_shares
    with pytest.raises(NotGranted):
        request_decrypt(db, store, "f", update_owner_share(owner_share, deltas), C2)


def test_stale_record_fails_binding_even_if_presented(tmp_path):
    db, store, owner_share = granted(tmp_path)
    stale = db.grants["f"].consumer_shares["chuck"]
    deltas = revoke_user(db, "f", "chuck")
    new_owner = update_owner_share(owner_share, deltas)
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", new_owner, C2, receiver_share_record=stale)


def test_remaining_users_keep_access(tmp_path):
    db, store, owner_share = granted(tmp_path)
    deltas = revoke_user(db, "f", "chuck")
    new_owner = update_owner_share(owner_share, deltas)
    assert request_decrypt(db, store, "f", new_owner, C1) == DATA
    assert request_decrypt(db, store, "f", new_owner, C3) == DATA


def test_old_owner_point_goes_stale_too(tmp_path):
    db, store, owner_share = granted(tmp_path)
    revoke_user(db, "f", "chuck")
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", owner_share, C1)


def test_revocation_leaves_envelope_untouched(tmp_path):
    db, store, owner_share = granted(tmp_path)
    ref = db.grants["f"].envelope_ref
    before = store.get_object(ref)
    revoke_user(db, "f", "chuck")
    assert db.grants["f"].envelope_ref == ref
    assert store.get_object(ref) == before


def test_revocation_rotates_salt_and_binding(tmp_path):
    db, store, owner_share = granted(tmp_path)
    old = db.grants["f"]
    old_salt, old_kc = old.salt, old.binding.kc
    deltas = revoke_user(db, "f", "chuck")
    new = db.grants["f"]
    assert new.salt != old_salt
    assert new.binding.kc != old_kc or new.binding.x_kc == old.binding.x_kc
    assert len(deltas) == THRESHOLD - 1
    assert any(d != 0 for d in deltas)


def test_revocation_preserves_the_secret(tmp_path):
    db, store, owner_share = granted(tmp_path)
    grant = db.grants["f"]
    pt1 = decrypt_share(grant.consumer_shares["carol"], C1.credentials)
    before = reconstruct_secret(
        ReconstructionInput((grant.server_share, owner_share, pt1)))
    deltas = revoke_user(db, "f", "chuck")
    grant = db.grants["f"]
    new_owner = update_owner_share(owner_share, deltas)
    pt1b = decrypt_share(grant.consumer_shares["carol"], C1.credentials)
    after = reconstruct_secret(
        ReconstructionInput((grant.server_share, new_owner, pt1b)))
    assert before == after


def test_revoking_the_last_consumer(tmp_path):
    db, store = base_db(tmp_path)
    owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    stale = db.grants["f"].consumer_shares["carol"]
    deltas = revoke_user(db, "f", "carol")
    assert db.grants["f"].consumer_shares == {}
    new_owner = update_owner_share(owner_share, deltas)
    with pytest.raises(NotGranted):
        request_decrypt(db, store, "f", new_owner, C1)
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", new_owner, C1, receiver_share_record=stale)


def test_revoke_error_cases(tmp_path):
    db, store, _ = granted(tmp_path)
    with pytest.raises(UnknownFile):
        revoke_user(db, "ghost-file", "carol")
    with pytest.raises(NotGranted):
        revoke_user(db, "f", "olivia")  # owner holds no consumer share
    db2 = PolicyDb(modulus=db.modulus)
    for rec in (C1, C2):
        register_user(db2, rec)
    db2.grants["f"] = db.grants["f"]
    with pytest.raises(UnknownOwner):
        revoke_user(db2, "f", "carol")


def test_revoke_pinned_grant_twice(tmp_path):
    # delta(0) = 0 whatever the pinned coefficients were, so revocation
    # needs nothing beyond the grant's own record
    db, store, owner_share = pinned_report_grant(tmp_path)
    d1 = revoke_user(db, "report.pdf", "chuck")
    d2 = revoke_user(db, "report.pdf", "caleb")
    new_owner = update_owner_share(update_owner_share(owner_share, d1), d2)
    assert request_decrypt(db, store, "report.pdf", new_owner, C1) == DATA
    assert request_decrypt(db, store, "report.pdf", new_owner, C3) == DATA
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "report.pdf", owner_share, C1)


def test_double_revocation_compounds(tmp_path):
    db, store, owner_share = granted(tmp_path)
    d1 = revoke_user(db, "f", "chuck")
    d2 = revoke_user(db, "f", "cindy")
    owner2 = update_owner_share(update_owner_share(owner_share, d1), d2)
    assert request_decrypt(db, store, "f", owner2, C1) == DATA
    half = update_owner_share(owner_share, d1)
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", half, C1)


def test_revoke_redraws_a_salt_that_moves_no_share(tmp_path):
    # the first salt drawn is the grant's own, so every delta is zero and
    # no issued x would move: revoke_user must draw again
    db, store, owner_share = granted(tmp_path)
    grant = db.grants["f"]
    issued = {rec.x for rec in grant.consumer_shares.values()}
    issued.add(grant.server_share.x)
    old_salt = grant.salt
    draws = []

    def urandom(n):
        draws.append(bytes(range(n)) if draws else old_salt)
        return draws[-1]

    with mock.patch.object(trishare.authz.os, "urandom", urandom):
        deltas = revoke_user(db, "f", "chuck")
    assert draws == [old_salt, bytes(range(16))]
    assert db.grants["f"].salt == bytes(range(16))
    assert any(deltas)
    for x in issued:
        assert update_owner_share(SharePoint(x, 0, db.modulus), deltas).y != 0
    assert request_decrypt(db, store, "f", update_owner_share(owner_share, deltas),
                           C1) == DATA


# ---------------------------------------------------------------- persistence

def test_db_json_round_trip(tmp_path):
    db, store, _ = granted(tmp_path)
    text = db_to_json(db)
    back = db_from_json(text)
    assert db_to_json(back) == text
    assert back.modulus == db.modulus
    assert set(back.users) == set(db.users)
    assert back.grants["f"] == db.grants["f"]


# Quotes, backslashes, control characters, non-ASCII and astral code points
# (written as surrogate-pair escapes), mixed with arbitrary text.
TRICKY_CHARS = '"\\/\x00\x08\x1f\x7f\u00e9\u2028\U0001F600\U0001D11E'
TRICKY_TEXT = st.text(st.one_of(st.sampled_from(TRICKY_CHARS),
                                st.characters(codec="utf-8")),
                      max_size=6)


@st.composite
def policies(draw):
    """A PolicyDb built through the API: tricky ids and credentials, a
    default or smaller modulus, some grants with every consumer revoked."""
    p = draw(st.sampled_from([M61, (1 << 31) - 1, 65537]))
    db = PolicyDb(modulus=modulus_for(p))
    ids = draw(st.lists(TRICKY_TEXT, unique=True, max_size=5))
    for i, uid in enumerate(ids):
        kind = UserType.OWNER if i == 0 else draw(st.sampled_from(UserType))
        register_user(db, UserRecord(uid, kind, draw(TRICKY_TEXT).encode("utf-8")))
    if len(ids) < 2:
        return db
    owner, consumers = db.users[ids[0]], [db.users[uid] for uid in ids[1:]]
    with tempfile.TemporaryDirectory() as root:
        store = ObjectStore(root)
        for file_id in draw(st.lists(TRICKY_TEXT.filter(bool), unique=True,
                                     max_size=3)):
            chosen = draw(st.lists(st.sampled_from(consumers), min_size=1,
                                   unique_by=lambda u: u.user_id))
            grant_access(db, store, file_id, owner.user_id,
                         [c.user_id for c in chosen], b"body")
            if draw(st.booleans()):
                for consumer in chosen:
                    revoke_user(db, file_id, consumer.user_id)
    return db


def all_revoked_db():
    with tempfile.TemporaryDirectory() as root:
        db, store = base_db(Path(root))
        grant_access(db, store, TRICKY_CHARS, "olivia", ["carol", "chuck"], DATA)
    for consumer in (C1, C2):
        revoke_user(db, TRICKY_CHARS, consumer.user_id)
    return db


@settings(max_examples=60, deadline=None)
@given(policies())
@example(PolicyDb())
@example(PolicyDb(modulus=modulus_for(65537)))
@example(all_revoked_db())
def test_db_json_matches_json_dumps_oracle(db):
    assert db_to_json(db) == slow_policy_json(db)


def test_load_db_rejects_corrupt_policy(tmp_path, policy_corruption):
    corrupt, cause = policy_corruption
    db, store, _ = granted(tmp_path)
    persist_db(db, store)
    assert (tmp_path / "store" / POLICY_DIGEST_FILENAME).exists()
    path = tmp_path / "store" / POLICY_FILENAME
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(CorruptPolicy) as info:
        load_db(store)
    assert isinstance(info.value.__cause__, cause)


def test_db_from_json_reads_bytes_as_utf8_only(tmp_path):
    db, _, _ = granted(tmp_path)
    text = db_to_json(db)
    assert db_to_json(db_from_json(text.encode("utf-8"))) == text
    # json.loads alone would guess either encoding and load the policy
    for encoding in ("utf-16", "utf-32"):
        with pytest.raises(CorruptPolicy) as info:
            db_from_json(text.encode(encoding))
        assert isinstance(info.value.__cause__, UnicodeDecodeError)


@pytest.mark.parametrize("value", [None, 5])
@pytest.mark.parametrize("where, key", [
    ("user", "user_id"), ("grant", "file_id"), ("grant", "owner_id"),
    ("grant", "envelope_ref"), ("share", "file_id")])
def test_db_from_json_rejects_non_string_field(tmp_path, where, key, value):
    db, _, _ = granted(tmp_path)
    doc = json.loads(db_to_json(db))
    grant = doc["grants"][0]
    record = {"user": doc["users"][0], "grant": grant,
              "share": next(iter(grant["consumers"].values()))}[where]
    record[key] = value
    with pytest.raises(CorruptPolicy) as info:
        db_from_json(json.dumps(doc))
    assert isinstance(info.value.__cause__, TypeError)


# db_to_json writes every int as a JSON int and every bytes field as
# lower-case, unspaced hex.  Any other spelling, which int() or
# bytes.fromhex would read and the next commit would rewrite, is refused.
@pytest.mark.parametrize("where, key, respell, cause", [
    ("policy", "p", float, TypeError),
    ("server_share", "x", lambda v: v + 0.9, TypeError),
    ("grant", "kc", str, TypeError),
    ("grant", "x_kc", lambda v: True, TypeError),
    ("share", "kc", lambda v: f" {v} ", TypeError),
    ("share", "y_enc", float, TypeError),
    ("user", "credentials_hex", str.upper, ValueError),
    ("grant", "salt_hex", lambda v: f"{v[:2]} {v[2:]}", ValueError),
], ids=["float-p", "fraction-x", "string-kc", "bool-x_kc", "spaced-kc",
        "float-y_enc", "upper-hex", "spaced-hex"])
def test_every_loader_refuses_a_value_db_to_json_never_writes(
        tmp_path, where, key, respell, cause):
    db, _, _ = granted(tmp_path)
    doc = json.loads(db_to_json(db))
    grant = doc["grants"][0]
    record = {"policy": doc, "user": doc["users"][0], "grant": grant,
              "server_share": grant["server_share"],
              "share": next(iter(grant["consumers"].values()))}[where]
    old = record[key]
    record[key] = respell(old)
    assert json.dumps(record[key]) != json.dumps(old)
    text = json.dumps(doc, indent=2)
    with pytest.raises(CorruptPolicy) as info:
        db_from_json(text)
    assert isinstance(info.value.__cause__, cause)
    table, lookup = (("users", doc["users"][0]["user_id"]) if where == "user"
                     else ("grants", "f"))
    assert_every_loader_refuses(tmp_path, text, table, lookup)


def assert_every_loader_refuses(tmp_path, text, table, key):
    """The full parse, load_db past a stale sidecar and a lookup of key in
    table through a re-matched sidecar all raise CorruptPolicy."""
    with pytest.raises(CorruptPolicy):
        db_from_json(text)
    store = ObjectStore(tmp_path / "store")
    forge(store, text)
    with pytest.raises(CorruptPolicy):
        getattr(load_db(store), table).get(key)
    (tmp_path / "store" / POLICY_DIGEST_FILENAME).write_text("stale\n")
    with pytest.raises(CorruptPolicy):
        load_db(store)


@pytest.mark.parametrize("table", ["users", "grants"])
def test_a_repeated_id_is_corrupt_in_every_loader(tmp_path, table):
    # The second block renamed to the first's id.  The full parse kept the
    # last block: a consumer "own" with zed's credentials, or a grant f
    # with g's share and envelope.
    if table == "users":
        db = PolicyDb()
        register_user(db, UserRecord("own", UserType.OWNER, b"cred-own"))
        register_user(db, UserRecord("zed", UserType.CONSUMER, b"cred-zed"))
        text, key = db_to_json(db).replace('"zed"', '"own"'), "own"
    else:
        db, store, _ = granted(tmp_path)
        grant_access(db, store, "g", "olivia", ["chuck"], DATA)
        # the grant's file_id and the one its record repeats
        text, key = db_to_json(db).replace('"file_id": "g"', '"file_id": "f"'), "f"
    assert len(json.loads(text)[table]) == 2
    assert_every_loader_refuses(tmp_path, text, table, key)


@pytest.mark.parametrize("key, value", [
    ("file_id", lambda v: "zzz"), ("p", lambda v: 65537),
    ("kc", lambda v: v + 1), ("x_kc", lambda v: v + 1)],
    ids=["file_id", "p", "kc", "x_kc"])
def test_a_consumer_record_that_differs_from_its_grant_is_corrupt(tmp_path, key,
                                                                   value):
    # Each record repeats its grant's file id, p, kc and x_kc; db_to_json
    # only writes equal copies, so a record that differs was forged.
    db, _, _ = granted(tmp_path)
    doc = json.loads(db_to_json(db))
    record = doc["grants"][0]["consumers"]["chuck"]
    record[key] = value(record[key])
    assert_every_loader_refuses(tmp_path, json.dumps(doc, indent=2), "grants", "f")


def test_persist_and_load(tmp_path):
    store = ObjectStore(tmp_path / "store")
    db = PolicyDb()
    for rec in (OWNER, C1, C2):
        register_user(db, rec)
    owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    persist_db(db, store)
    assert (tmp_path / "store" / POLICY_FILENAME).read_text() == db_to_json(db)
    fresh_store = ObjectStore(tmp_path / "store")
    db2 = load_db(fresh_store)
    assert request_decrypt(db2, fresh_store, "f", owner_share, C1) == DATA


def test_store_never_holds_plaintext(tmp_path):
    sentinel = b"TOP-SECRET-SENTINEL-0xDEADBEEF"
    body = sentinel * 64
    store = ObjectStore(tmp_path / "store")
    db = PolicyDb()
    for rec in (OWNER, C1):
        register_user(db, rec)
    grant_access(db, store, "f", "olivia", ["carol"], body)
    persist_db(db, store)
    for path in sorted((tmp_path / "store").rglob("*")):
        if path.is_file():
            assert sentinel not in path.read_bytes(), path


# ------------------------------------------------- sliced loads (digest sidecar)

def full_loads_forbidden():
    """Fail the test if load_db falls back to parsing the whole policy."""
    return mock.patch.object(trishare.policy, "db_from_json",
                             side_effect=AssertionError("full parse"))


def counted_grant_parses():
    """Count the grant blocks parsed (each goes through _grant_from_doc)."""
    return mock.patch.object(trishare.policy, "_grant_from_doc",
                             wraps=trishare.policy._grant_from_doc)


def test_sliced_load_parses_only_the_grants_it_reads(tmp_path):
    db, store, owner_share = granted(tmp_path)
    grant_access(db, store, "g", "olivia", ["chuck"], DATA)
    persist_db(db, store)
    with full_loads_forbidden(), counted_grant_parses() as parses:
        loaded = load_db(store)
        assert set(loaded.grants) == {"f", "g"} and "f" in loaded.grants
        assert len(loaded.grants) == 2 and "h" not in loaded.grants
        assert parses.call_count == 0
        assert loaded.grants["f"] == db.grants["f"]
        assert parses.call_count == 1
        assert loaded.grants["f"] is loaded.grants["f"]
        assert parses.call_count == 1
    assert loaded == db
    # an insert is listed and counted once, a re-grant not again
    grant_access(loaded, store, "e", "olivia", ["carol"], DATA)
    grant_access(loaded, store, "g", "olivia", ["carol"], DATA)
    assert list(loaded.grants) == ["e", "f", "g"] and len(loaded.grants) == 3
    persist_db(loaded, store)
    with full_loads_forbidden():
        reloaded = load_db(store)
    assert list(reloaded.grants) == ["e", "f", "g"] and len(reloaded.grants) == 3
    assert reloaded == loaded


def counted_user_parses():
    """Count the user blocks parsed (each goes through _user_from_doc)."""
    return mock.patch.object(trishare.policy, "_user_from_doc",
                             wraps=trishare.policy._user_from_doc)


def counted_user_renders():
    """Count the user blocks rendered (each goes through _user_json)."""
    return mock.patch.object(trishare.policy, "_user_json",
                             wraps=trishare.policy._user_json)


def users_run(store):
    """The users array of the committed policy, as bytes."""
    text = store.read_bytes(POLICY_FILENAME)
    return text[text.index(b'"users"'):text.index(b'"grants"')]


def test_sliced_load_parses_only_the_users_it_reads(tmp_path):
    db, store, owner_share = granted(tmp_path)
    persist_db(db, store)
    committed = users_run(store)
    with full_loads_forbidden(), counted_user_parses() as parses, \
            counted_user_renders() as renders:
        loaded = load_db(store)
        assert list(loaded.users) == ["carol", "chuck", "cindy", "olivia"]
        assert len(loaded.users) == 4 and "carol" in loaded.users
        assert "bob" not in loaded.users and loaded.users.get("bob") is None
        assert parses.call_count == 0
        # a request reads only its receiver, as `trishare request` does
        receiver = loaded.users.get("carol")
        assert receiver == C1 and loaded.users["carol"] is receiver
        assert request_decrypt(loaded, store, "f", owner_share, receiver) == DATA
        assert parses.call_count == 1
        # a revoke reads only the owner, and its commit renders no user
        revoking = load_db(store)
        revoke_user(revoking, "f", "chuck")
        assert parses.call_count == 2
        persist_db(revoking, store)
        assert renders.call_count == 0 and users_run(store) == committed
        # a grant reads the owner and each consumer once
        granting = load_db(store)
        grant_access(granting, store, "g", "olivia", ["carol", "cindy"], DATA)
        assert parses.call_count == 5
        persist_db(granting, store)
        assert renders.call_count == 0 and users_run(store) == committed
        # a register renders only the user it inserts, at its sorted place
        registering = load_db(store)
        for rec in (C4, UserRecord("zoe", UserType.CONSUMER, b"z"),
                    UserRecord("clara", UserType.SERVER, b"c")):
            register_user(registering, rec)
        persist_db(registering, store)
        assert parses.call_count == 5 and renders.call_count == 3
    assert list(load_db(store).users) == [
        "caleb", "carol", "chuck", "cindy", "clara", "olivia", "zoe"]
    assert db_to_json(registering) == slow_policy_json(registering)


def test_reading_grants_while_iterating_a_sliced_load(tmp_path):
    # a read parses the block in place: the keys stay as they were, so
    # the loop may read every grant it visits
    db, store, _ = granted(tmp_path)
    grant_access(db, store, "g", "olivia", ["chuck"], DATA)
    persist_db(db, store)
    with full_loads_forbidden(), counted_grant_parses() as parses:
        loaded = load_db(store)
        assert [loaded.grants[fid] for fid in loaded.grants] == [
            db.grants["f"], db.grants["g"]]
        assert parses.call_count == 2
        assert [loaded.grants[fid] for fid in loaded.grants] == [
            db.grants["f"], db.grants["g"]]
        assert parses.call_count == 2
    assert db_to_json(loaded).encode() == store.read_bytes(POLICY_FILENAME)


@pytest.mark.parametrize("users", [(), (OWNER, C1, C2)],
                         ids=["empty", "users-only"])
def test_sliced_load_of_a_policy_without_grants(tmp_path, users):
    db, store = PolicyDb(), ObjectStore(tmp_path / "store")
    for rec in users:
        register_user(db, rec)
    persist_db(db, store)
    with full_loads_forbidden():
        loaded = load_db(store)
    assert loaded == db and len(loaded.grants) == 0
    assert db_to_json(loaded).encode() == store.read_bytes(POLICY_FILENAME)


def test_missing_sidecar_takes_the_full_parse_and_persist_writes_one(tmp_path):
    db, store, _ = granted(tmp_path)
    persist_db(db, store)
    sidecar = tmp_path / "store" / POLICY_DIGEST_FILENAME
    digest = sidecar.read_text()
    sidecar.unlink()
    with mock.patch.object(trishare.policy, "db_from_json",
                           wraps=trishare.policy.db_from_json) as full:
        loaded = load_db(store)
    assert full.call_count == 1 and loaded == db
    persist_db(loaded, store)
    assert sidecar.read_text() == digest
    with full_loads_forbidden():
        assert load_db(store) == db


@pytest.mark.parametrize("sidecar", ["old-digest", "empty", "truncated",
                                     "next-digest"])
def test_stale_sidecar_takes_the_full_parse(tmp_path, sidecar):
    db, disk, owner_share = granted(tmp_path)
    persist_db(db, disk)
    before = db_to_json(db)
    revoke_user(db, "f", "chuck")
    after = db_to_json(db)
    # The states a crash can leave the unsynced sidecar in, beside the
    # policy.json that was committed.
    def digest(text):
        return trishare.policy._digest([text.encode("utf-8")]).decode("ascii")

    committed, stale = {"old-digest": (after, digest(before)),
                        "empty": (after, ""),
                        "truncated": (after, digest(after)[:32]),
                        "next-digest": (before, digest(after))}[sidecar]
    (tmp_path / "store" / POLICY_FILENAME).write_text(committed)
    sidecar_path = tmp_path / "store" / POLICY_DIGEST_FILENAME
    sidecar_path.write_text(stale)
    with mock.patch.object(trishare.policy, "db_from_json",
                           wraps=trishare.policy.db_from_json) as full:
        loaded = load_db(disk)
    assert full.call_count == 1
    assert db_to_json(loaded) == committed
    if committed == after:
        assert "chuck" not in loaded.grants["f"].consumer_shares
        with pytest.raises(BindingMismatch):
            request_decrypt(loaded, disk, "f", owner_share, C1)
    else:
        assert request_decrypt(loaded, disk, "f", owner_share, C1) == DATA
    persist_db(loaded, disk)
    assert sidecar_path.read_text() == digest(committed)
    with full_loads_forbidden():
        assert db_to_json(load_db(disk)) == committed


def forge(store, text):
    """Commit `text` as the policy with the sidecar persist_db would write."""
    data = text.encode("utf-8")
    store.write_text(POLICY_FILENAME, [data],
                     cache=(POLICY_DIGEST_FILENAME, trishare.policy._digest([data])))


def test_corrupt_grant_block_under_a_matching_digest(tmp_path):
    db, store, _ = granted(tmp_path)
    text = db_to_json(db).replace('"kc": ', '"kc": "', 1)
    forge(store, text)
    loaded = load_db(store)
    assert "f" in loaded.grants
    with pytest.raises(CorruptPolicy) as info:
        loaded.grants["f"]
    assert isinstance(info.value.__cause__, json.JSONDecodeError)
    with pytest.raises(CorruptPolicy):  # still unread, still corrupt
        loaded.grants.get("f")


@pytest.mark.parametrize("name", ["users-only", "no-grants-key", "reindented",
                                  "not-ascii"])
def test_out_of_layout_policy_under_a_matching_digest(tmp_path, name):
    db, _, _ = granted(tmp_path)
    doc = json.loads(db_to_json(db))
    text = {"users-only": json.dumps({"p": doc["p"], "users": doc["users"]}),
            "no-grants-key": db_to_json(db).replace('"grants"', '"grunts"'),
            "reindented": json.dumps(doc, indent=1),
            # db_to_json escapes every non-ASCII character
            "not-ascii": db_to_json(db).replace('"carol"', '"c\u00e1rol"'),
            }[name]
    store = ObjectStore(tmp_path / "store")
    forge(store, text)
    with pytest.raises(CorruptPolicy):
        load_db(store)


def forged_policy(tmp_path, forgery):
    """Text in db_to_json's layout that persist_db never wrote: blocks f1
    and f2 swapped, the first and last of 24 blocks swapped, a second,
    different f2 block after f2, or an f1 block that names f3 in a
    second file_id key.  Or text out of it, byte by byte: f0 moved to the
    end with its id spelled "\\u00660", f2's opener or f2's owner_id line
    one space short of its indent, in place or with f2 moved to the end,
    or f2's closer one space short."""
    db, store = base_db(tmp_path)
    for i in range(24 if forgery == "swapped-far" else 5):
        grant_access(db, store, f"f{i}", "olivia", ["carol"], DATA)
    doc = json.loads(db_to_json(db))
    grants = doc["grants"]
    if forgery == "swapped":
        grants[1], grants[2] = grants[2], grants[1]
    elif forgery == "swapped-far":  # f0 and f9, which lie 10 KB apart
        grants[0], grants[-1] = grants[-1], grants[0]
    elif forgery == "duplicate":
        grants.insert(3, dict(grants[2], salt_hex="00" * 16))
    elif forgery == "respelled-far":
        grants.append(grants.pop(0))
    elif forgery.startswith("moved-"):
        grants.append(grants.pop(2))
    # db_to_json writes what json.dumps(doc, indent=2) writes (see the oracle)
    text = json.dumps(doc, indent=2)
    owner = '"owner_id": "olivia",'
    forged = {"two-ids": (f'"f1",\n      {owner}',
                          f'"f1",\n      {owner} "file_id": "f3",'),
              "respelled-far": (f'"f0",\n      {owner}',
                                f'"\\u00660",\n      {owner}'),
              "hidden": ('\n    {\n      "file_id": "f2"',
                         '\n   {\n      "file_id": "f2"'),
              "garbage-id": (f'"f2",\n      {owner}', f'"f2",\n     {owner}'),
              "closer": ('\n    },\n    {\n      "file_id": "f3"',
                         '\n   },\n    {\n      "file_id": "f3"')}
    edit = forgery.replace("moved-", "")
    if edit in forged:
        old, new = forged[edit]
        assert text.count(old) == 1
        text = text.replace(old, new)
    return db, text


# Every lookup either finds the block that holds its own file id or fails
# typed; none returns another id's grant, and none reads a present id as
# absent.  The binary search finds a block it lands on, and fails it if
# its successor sorts before it; when the search misses, one walk decodes
# every id, stepping on the search's seams, and checks that they increase
# and that each block has one owner_id line, so blocks swapped, near or
# far, re-spelled or hidden are CorruptPolicy, never UnknownFile.  A block
# whose closer lost its indent reads as the full parse reads it.
@pytest.mark.parametrize("forgery, outcomes", [
    ("swapped", {"f0": "own", "f1": "CorruptPolicy", "f2": "CorruptPolicy",
                 "f3": "own", "f4": "own"}),
    ("duplicate", {"f0": "own", "f1": "own", "f2": "CorruptPolicy",
                   "f3": "own", "f4": "own"}),
    ("two-ids", {"f0": "own", "f1": "CorruptPolicy", "f2": "own",
                 "f3": "own", "f4": "own"}),
    ("swapped-far", {"f0": "CorruptPolicy", "f1": "CorruptPolicy",
                     "f2": "own", "f9": "CorruptPolicy"}),
    ("respelled-far", {"f0": "CorruptPolicy", "f1": "own", "f2": "own",
                       "f3": "own", "f4": "CorruptPolicy"}),
    ("hidden", {"f0": "own", "f1": "CorruptPolicy", "f2": "CorruptPolicy",
                "f3": "own", "f4": "own"}),
    ("garbage-id", {"f0": "CorruptPolicy", "f1": "CorruptPolicy",
                    "f2": "CorruptPolicy", "f3": "CorruptPolicy", "f4": "own"}),
    ("moved-hidden", {"f0": "own", "f1": "own", "f2": "CorruptPolicy",
                      "f3": "own", "f4": "CorruptPolicy"}),
    ("moved-garbage", {"f0": "own", "f1": "own", "f2": "CorruptPolicy",
                       "f3": "own", "f4": "CorruptPolicy"}),
    ("closer", {"f0": "own", "f1": "own", "f2": "own", "f3": "own",
                "f4": "own"}),
])
def test_forged_layout_under_a_matching_digest_stays_typed(tmp_path, forgery,
                                                           outcomes):
    db, text = forged_policy(tmp_path, forgery)
    store = ObjectStore(tmp_path / "store")
    forge(store, text)
    loaded = load_db(store)
    seen = {}
    for fid in outcomes:
        try:
            grant = loaded.grants.get(fid)
        except CorruptPolicy:
            seen[fid] = "CorruptPolicy"
            continue
        seen[fid] = ("UnknownFile" if grant is None
                     else "own" if grant == db.grants[fid] else "another's")
    assert seen == outcomes
    for fid, outcome in outcomes.items():
        if outcome != "own":
            with pytest.raises(getattr(trishare, outcome)):
                request_decrypt(loaded, store, fid,
                                SharePoint(OWNER_X, 1, db.modulus), C1)
    # Listing checks the order of every quoted id, and only that.
    try:
        listed = list(loaded.grants)
    except CorruptPolicy:
        listed = "CorruptPolicy"
    assert listed == (sorted(db.grants) if forgery in ("two-ids", "closer")
                      else "CorruptPolicy")
    # A grant of a new id commits one block for it, or fails as listing does.
    try:
        grant_access(loaded, store, "e", "olivia", ["carol"], DATA)
        persist_db(loaded, store)
    except CorruptPolicy:
        assert listed == "CorruptPolicy"
    else:
        committed = store.read_bytes(POLICY_FILENAME).decode("ascii")
        assert committed.count('\n    {\n      "file_id": "e"') == 1


def test_a_lone_quote_for_a_user_id_is_corrupt(tmp_path):
    db, _ = base_db(tmp_path)
    text = db_to_json(db).replace('"user_id": "carol",', '"user_id": ",')
    store = ObjectStore(tmp_path / "store")
    forge(store, text)
    loaded = load_db(store)
    with pytest.raises(CorruptPolicy):
        loaded.users.get("carol")


def test_a_user_id_without_its_opening_quote_is_corrupt(tmp_path):
    # carol" is no JSON string: reading it as "arol" would send the search
    # past the block and report carol absent
    db, _ = base_db(tmp_path)
    text = db_to_json(db).replace('"user_id": "carol",', '"user_id": carol",')
    store = ObjectStore(tmp_path / "store")
    forge(store, text)
    with pytest.raises(CorruptPolicy):
        load_db(store).users.get("carol")


def test_a_user_id_with_a_stray_quote_is_corrupt(tmp_path):
    # "car"ol" is no JSON string: reading it as car"ol would send the
    # search past carol's block and report carol absent
    db, _ = base_db(tmp_path)
    text = db_to_json(db).replace('"user_id": "carol",', '"user_id": "car"ol",')
    store = ObjectStore(tmp_path / "store")
    forge(store, text)
    with pytest.raises(CorruptPolicy):
        load_db(store).users.get("carol")


@pytest.mark.parametrize("where", ["p", "user_id"])
def test_a_too_deep_value_is_corrupt_in_every_loader(tmp_path, where):
    # json.loads recurses once per nested array: the full parse, the
    # sliced load's head parse and a block's id read all meet it
    deep = "[" * 100_000
    with pytest.raises(CorruptPolicy) as info:
        db_from_json(deep)
    assert isinstance(info.value.__cause__, RecursionError)
    db, _ = base_db(tmp_path)
    text = db_to_json(db)
    text = {"p": text.replace(f'"p": {db.modulus.p}', f'"p": {deep}'),
            "user_id": text.replace('"user_id": "carol"', f'"user_id": {deep}'),
            }[where]
    store = ObjectStore(tmp_path / "store")
    forge(store, text)
    with pytest.raises(CorruptPolicy) as info:
        load_db(store).users.get("carol")
    assert isinstance(info.value.__cause__, RecursionError)


def forged_users_policy(tmp_path, forgery):
    """Text in db_to_json's layout that persist_db never wrote: user
    blocks carol and chuck swapped, caleb and u59 (the first and last of
    65, as many as policy-churn registers) swapped, a second, different
    chuck block after chuck, or a carol block that names cindy in a
    second user_id key."""
    db, store = base_db(tmp_path, C3, C4)
    for i in range(60):
        register_user(db, UserRecord(f"u{i:02d}", UserType.CONSUMER, b"u"))
    grant_access(db, store, "f", "olivia", ["carol"], DATA)
    doc = json.loads(db_to_json(db))
    users = doc["users"]  # caleb, carol, chuck, cindy, olivia, u00..u59
    if forgery == "swapped":
        users[1], users[2] = users[2], users[1]
    elif forgery == "swapped-far":
        users[0], users[-1] = users[-1], users[0]
    elif forgery == "duplicate":
        users.insert(3, dict(users[2], credentials_hex="00"))
    text = json.dumps(doc, indent=2)
    kind = '"user_type": "consumer",'
    if forgery == "two-ids":
        text = text.replace(f'"carol",\n      {kind}',
                            f'"carol",\n      {kind} "user_id": "cindy",')
    return db, store, text


# As for the grants: every user lookup finds the block that holds its own
# user id or fails typed, so no command blinds or unblinds a share with
# another user's credentials, nor refuses a registered user as unknown.
@pytest.mark.parametrize("forgery, outcomes", [
    ("swapped", {"caleb": "own", "carol": "CorruptPolicy",
                 "chuck": "CorruptPolicy", "cindy": "own", "olivia": "own"}),
    ("swapped-far", {"caleb": "CorruptPolicy", "carol": "CorruptPolicy",
                     "olivia": "own", "u30": "own", "u59": "CorruptPolicy"}),
    ("duplicate", {"caleb": "own", "carol": "own", "chuck": "CorruptPolicy",
                   "cindy": "own", "olivia": "own"}),
    ("two-ids", {"caleb": "own", "carol": "CorruptPolicy", "chuck": "own",
                 "cindy": "own", "olivia": "own"}),
])
def test_forged_users_under_a_matching_digest_stay_typed(tmp_path, forgery,
                                                         outcomes):
    db, store, text = forged_users_policy(tmp_path, forgery)
    forge(store, text)
    loaded = load_db(store)
    seen = {}
    for uid in outcomes:
        try:
            user = loaded.users.get(uid)
        except CorruptPolicy:
            seen[uid] = "CorruptPolicy"
            continue
        seen[uid] = ("UnknownUser" if user is None
                     else "own" if user == db.users[uid] else "another's")
    assert seen == outcomes
    for uid, outcome in outcomes.items():
        if outcome != "own":
            with pytest.raises(getattr(trishare, outcome)):
                grant_access(loaded, store, "g", "olivia", [uid], DATA)
    try:
        listed = list(loaded.users)
    except CorruptPolicy:
        listed = "CorruptPolicy"
    assert listed == (sorted(db.users) if forgery == "two-ids"
                      else "CorruptPolicy")


def store_files(root):
    """Every file under root, by path, with its bytes."""
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


def test_grant_of_a_block_moved_far_is_corrupt(tmp_path):
    # The lookup misses f0, moved to the end of the array; a grant of f0
    # must not commit a second f0 block, nor replace f0's envelope.
    _, text = forged_policy(tmp_path, "swapped-far")
    store = ObjectStore(tmp_path / "store")
    forge(store, text)
    before = store_files(tmp_path / "store")
    loaded = load_db(store)
    with pytest.raises(CorruptPolicy):
        grant_access(loaded, store, "f0", "olivia", ["carol"], DATA)
        persist_db(loaded, store)
    assert store_files(tmp_path / "store") == before


@pytest.mark.parametrize("forgery, fid", [("respelled-far", "f0"),
                                          ("hidden", "f2"),
                                          ("moved-hidden", "f2"),
                                          ("moved-garbage", "f2")])
def test_grant_of_a_respelled_or_hidden_block_is_corrupt(tmp_path, forgery, fid):
    # The lookup misses fid, spelled with an escape and moved to the end,
    # or hidden in f1's block or, moved to the end, in f4's, or with its
    # head broken; a grant must not commit a second block.
    _, text = forged_policy(tmp_path, forgery)
    store = ObjectStore(tmp_path / "store")
    forge(store, text)
    before = store_files(tmp_path / "store")
    loaded = load_db(store)
    with pytest.raises(CorruptPolicy):
        grant_access(loaded, store, fid, "olivia", ["carol"], DATA)
        persist_db(loaded, store)
    assert store_files(tmp_path / "store") == before


def test_register_of_a_block_moved_far_is_corrupt(tmp_path):
    # As for the grants: caleb, moved to the end of the users array, is
    # missed, and registering caleb again must not commit a second block.
    _, store, text = forged_users_policy(tmp_path, "swapped-far")
    forge(store, text)
    before = store_files(tmp_path / "store")
    loaded = load_db(store)
    with pytest.raises(CorruptPolicy):
        register_user(loaded, UserRecord("caleb", UserType.CONSUMER, b"new"))
        persist_db(loaded, store)
    assert store_files(tmp_path / "store") == before


def churn_policy(store):
    """A policy shaped like the policy-churn workload's: 300 grants of 8
    consumers each, drawn from 64."""
    db = PolicyDb()
    register_user(db, OWNER)
    consumers = [f"u{i:03d}" for i in range(64)]
    for uid in consumers:
        register_user(db, UserRecord(uid, UserType.CONSUMER, uid.encode()))
    rng = random.Random(300)
    for i in range(300):
        grant_access(db, store, f"f{i:03d}", "olivia",
                     rng.sample(consumers, 8), b"x")
    persist_db(db, store)


def test_policy_commands_copy_no_whole_policy(tmp_path):
    # A load keeps the bytes it read as the working copy, and a commit
    # streams slices of them: no decoded, split or joined whole policy.
    store = ObjectStore(tmp_path / "store")
    churn_policy(store)
    size = (tmp_path / "store" / POLICY_FILENAME).stat().st_size
    tracemalloc.start()
    try:
        loaded = load_db(store)
        gone = min(loaded.grants["f150"].consumer_shares)
        load_peak = tracemalloc.get_traced_memory()[1]
        revoke_user(loaded, "f150", gone)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        persist_db(loaded, store)
        persist_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert load_peak <= 1.2 * size, load_peak / size
    assert persist_peak <= 0.25 * size, persist_peak / size
    with full_loads_forbidden():
        reloaded = load_db(store)
    assert gone not in reloaded.grants["f150"].consumer_shares
    assert reloaded.grants["f151"] == loaded.grants["f151"]
    assert len(reloaded.grants) == 300


def _det_urandom(seed):
    rng = random.Random(seed)
    return lambda k: rng.randbytes(k)


def _run_policy_command(store, op, ids, file_ids):
    """Load, apply one register/grant/revoke, persist.  The caller fixes
    os.urandom, so two stores given the same commands agree."""
    kind, a, b = op
    db = load_db(store)
    registered = sorted(db.users)
    if kind == "register":
        pending = [uid for uid in ids if uid not in db.users]
        if not pending:
            return
        register_user(db, UserRecord(pending[0], list(UserType)[a % 3],
                                     f"cred-{b}".encode("utf-8")))
    elif kind == "grant":
        consumers = [uid for i, uid in enumerate(registered) if b >> i & 1]
        grant_access(db, store, file_ids[a % len(file_ids)], ids[0],
                     consumers or registered[:1], DATA,
                     secret=(a * 7919 + b) % db.modulus.p)
    else:
        # listing parses no block, so the revoke re-renders only its own
        granted_ids = sorted(db.grants)
        if not granted_ids:
            return
        fid = granted_ids[a % len(granted_ids)]
        consumers = sorted(db.grants[fid].consumer_shares)
        if not consumers:
            return
        revoke_user(db, fid, consumers[b % len(consumers)])
    persist_db(db, store)


# Inserts, re-grants and revokes of the only, first, last and a middle
# block, over ids that sort between escaped and unescaped ones (in file
# id order: 'a"q', "b", "m", "z\\u", "\u2028", "\U0001F600").
_SPLICE_IDS = ["m", 'a"q', "z\\u", "\U0001F600", "b", "\u2028"]
_SPLICE_OPS = ([("grant", 0, 1), ("grant", 0, 3), ("revoke", 0, 0)]
               + [("grant", i, 1) for i in range(1, 6)]
               + [("grant", 1, 2), ("grant", 3, 2), ("grant", 2, 3),
                  ("revoke", 0, 0), ("revoke", 5, 0), ("revoke", 3, 0)])
# The owner "m", then registers before it, before all (escaped), after
# all (escaped, the last non-ASCII) and between, in that order.
_SPLICE_USERS = ["m", "c", 'a"q', "z\\u", "\u2028", "n"]


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([M61, (1 << 31) - 1, 65537]),
       ids=st.lists(TRICKY_TEXT, min_size=2, max_size=5, unique=True),
       file_ids=st.lists(TRICKY_TEXT.filter(bool), min_size=1, max_size=8,
                         unique=True),
       ops=st.lists(st.tuples(st.sampled_from(["register", "grant", "revoke"]),
                              st.integers(0, 63), st.integers(0, 63)),
                    max_size=12))
@example(p=M61, ids=_SPLICE_USERS, file_ids=_SPLICE_IDS,
         ops=([("register", 1, 0), ("register", 1, 1)] + _SPLICE_OPS[:8]
              + [("register", 1, 2), ("register", 2, 3)] + _SPLICE_OPS[8:]
              + [("register", 0, 4)]))
def test_sliced_and_full_loads_write_the_same_bytes(p, ids, file_ids, ops):
    with tempfile.TemporaryDirectory() as root:
        sliced, full = ObjectStore(Path(root, "sliced")), ObjectStore(Path(root, "full"))
        for store in (sliced, full):
            db = PolicyDb(modulus=modulus_for(p))
            register_user(db, UserRecord(ids[0], UserType.OWNER, b"cred-owner"))
            persist_db(db, store)
        for step, op in enumerate(ops):
            with mock.patch.object(trishare.authz.os, "urandom", _det_urandom(step)):
                with full_loads_forbidden():
                    _run_policy_command(sliced, op, ids, file_ids)
            # with no sidecar, load_db takes the full parse
            (full.root / POLICY_DIGEST_FILENAME).unlink(missing_ok=True)
            with mock.patch.object(trishare.authz.os, "urandom", _det_urandom(step)):
                _run_policy_command(full, op, ids, file_ids)
            assert (sliced.read_bytes(POLICY_FILENAME)
                    == full.read_bytes(POLICY_FILENAME)), (step, op)


# ---------------------------------------------------------------- kept policy
#
# load_db skips the SHA-256 of bytes equal to the policy this process
# last verified or committed; every load must decide as one that hashed.

def _policy_outcome(store):
    """What a load gives: p and every record, or the typed error."""
    try:
        db = load_db(store)
        return (db.modulus.p, [(uid, db.users[uid]) for uid in db.users],
                [(fid, db.grants[fid]) for fid in db.grants])
    except trishare.Error as exc:
        return type(exc), str(exc)


def _set_hex_digit(data, rng):
    """A same-length edit: one digit of a hex value set to another."""
    starts = [i for i in range(len(data) - 12) if data.startswith(b'_hex": "', i)]
    if not starts:  # an edit left no hex value: the bytes are rewritten as they are
        return data
    at = rng.choice(starts) + 8 + rng.randrange(4)
    digit = rng.choice([d for d in b"0123456789abcdef" if d != data[at]])
    return data[:at] + bytes([digit]) + data[at + 1:]


def _outside_edit(store, kind, rng, committed):
    """Change the policy or its sidecar as another writer or a crash
    would, past persist_db."""
    policy = store.root / POLICY_FILENAME
    sidecar = store.root / POLICY_DIGEST_FILENAME
    data = policy.read_bytes()
    digest = trishare.policy._digest
    if kind == "flip":  # any byte, the sidecar re-matched
        at = rng.randrange(len(data))
        data = data[:at] + bytes([data[at] ^ 1 << rng.randrange(7)]) + data[at + 1:]
        policy.write_bytes(data)
        sidecar.write_bytes(digest([data]))
    elif kind == "same-length":  # sidecar re-matched, or left stale
        data = _set_hex_digit(data, rng)
        policy.write_bytes(data)
        if rng.random() < 0.5:
            sidecar.write_bytes(digest([data]))
    elif kind == "appended":  # one more byte, the sidecar re-matched
        data += rng.choice([b"\n", b" ", b"}"])
        policy.write_bytes(data)
        sidecar.write_bytes(digest([data]))
    elif kind == "stale":
        sidecar.write_bytes(digest([rng.choice(committed)]))
    elif kind == "torn":
        sidecar.write_bytes(digest([data])[:rng.randrange(65)])
    elif kind == "deleted":
        sidecar.unlink(missing_ok=True)
    else:  # an earlier or the "last" commit, put back with its sidecar
        data = committed[-1] if kind == "last" else rng.choice(committed)
        policy.write_bytes(data)
        sidecar.write_bytes(digest([data]))


_EDITS = ["flip", "same-length", "appended", "stale", "torn", "deleted",
          "restored", "last"]
_IDS = ["olivia", "carol", "chuck", "cindy", "caleb", 'q"uote']
_FILE_IDS = ["f", "g", "h\u2028", "i"]
# Each edit twice after a commit, then that commit put back.
_FIXED_STEPS = ([("register", 0, 1), ("register", 1, 2), ("register", 2, 3),
                 ("grant", 0, 7), ("grant", 1, 3)]
                + [step for kind in _EDITS
                   for step in (("grant", 2, 5), kind, kind, "last",
                                ("revoke", 0, 1))])


def _kept_and_fresh_loads_agree(store, steps, seed):
    """Run steps, each a policy command or an outside edit, and after
    each compare a load with the kept record against one after the record
    is reset.  Returns the steps after which the first load hashed."""
    rng, committed, hashed_after = random.Random(seed), [], []
    db = PolicyDb()
    register_user(db, UserRecord(_IDS[0], UserType.OWNER, b"cred-owner"))
    persist_db(db, store)
    for step, op in enumerate(steps):
        if isinstance(op, tuple):
            with mock.patch.object(trishare.authz.os, "urandom", _det_urandom(step)):
                try:
                    _run_policy_command(store, op, _IDS, _FILE_IDS)
                except trishare.Error:
                    pass  # an edit it refuses leaves the policy as it was
            committed.append(store.read_bytes(POLICY_FILENAME))
        else:
            _outside_edit(store, op, rng, committed or [b"{}"])
        with mock.patch.object(trishare.policy, "_digest",
                               wraps=trishare.policy._digest) as hashed:
            kept = _policy_outcome(store)
        if hashed.call_count:
            hashed_after.append(op)
        after = trishare.policy._kept
        trishare.policy._kept = None
        assert kept == _policy_outcome(store), (seed, step, op)
        trishare.policy._kept = after
    return hashed_after


def test_kept_record_decides_every_fixed_edit_as_a_hash(tmp_path, monkeypatch):
    monkeypatch.setattr(trishare.policy, "_kept", None)
    hashed_after = _kept_and_fresh_loads_agree(
        ObjectStore(tmp_path / "store"), _FIXED_STEPS, 0)
    # Only an edit that changed the bytes costs a hash: never a command's
    # own reload, nor a sidecar edit beside the bytes last verified.
    assert set(hashed_after) == {"flip", "same-length", "appended", "restored",
                                 "last"}


@pytest.mark.parametrize("seed", range(6))
def test_kept_record_decides_random_edits_as_a_hash(tmp_path, monkeypatch, seed):
    monkeypatch.setattr(trishare.policy, "_kept", None)
    rng = random.Random(f"steps-{seed}")
    steps = [rng.choice(_EDITS) if rng.random() < 0.4
             else (rng.choice(["register", "grant", "grant", "revoke"]),
                   rng.randrange(64), rng.randrange(64))
             for _ in range(30)]
    hashed_after = _kept_and_fresh_loads_agree(
        ObjectStore(tmp_path / "store"), steps, seed)
    assert 0 < len(hashed_after) < len(steps)


def test_a_reload_of_kept_bytes_hashes_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(trishare.policy, "_kept", None, raising=False)
    db, store, _ = granted(tmp_path)
    persist_db(db, store)
    policy = tmp_path / "store" / POLICY_FILENAME
    with mock.patch.object(trishare.policy, "_digest",
                           wraps=trishare.policy._digest) as hashed:
        assert load_db(store) == db  # right after its commit
        assert hashed.call_count == 0
        assert load_db(store) == db  # bytes it has verified
        assert hashed.call_count == 0
        data = policy.read_bytes()
        at = data.index(b'"salt_hex": "') + 13
        digit = b"1" if data[at:at + 1] == b"0" else b"0"
        policy.write_bytes(data[:at] + digit + data[at + 1:])
        load_db(store)  # a one-byte outside change, sidecar now stale
        assert hashed.call_count == 1
