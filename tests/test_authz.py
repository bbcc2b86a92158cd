import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import slow_policy_json
from stores import (C1, C2, C3, C4, DATA, OWNER, TRICKY_CHARS, TRICKY_TEXT,
                    assert_every_loader_refuses, base_db, granted)

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
    modulus_for,
    object_key,
    reconstruct_polynomial,
    reconstruct_secret,
    register_user,
    request_decrypt,
    revoke_user,
    update_owner_share,
    verify_binding,
)
import trishare.authz
from trishare.authz import FIRST_CONSUMER_X, OWNER_X, SERVER_X, THRESHOLD


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
