import json
import random
import tracemalloc
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
from trishare.authz import FIRST_CONSUMER_X, OWNER_X, SERVER_X, THRESHOLD
from trishare.storage import POLICY_DIGEST_FILENAME, POLICY_FILENAME

OWNER = UserRecord("olivia", UserType.OWNER, b"cred-olivia")
C1 = UserRecord("carol", UserType.CONSUMER, b"cred-carol")
C2 = UserRecord("chuck", UserType.CONSUMER, b"cred-chuck")
C3 = UserRecord("cindy", UserType.CONSUMER, b"cred-cindy")
C4 = UserRecord("caleb", UserType.CONSUMER, b"cred-caleb")

DATA = b"the cargo leaves at midnight" * 10


def base_db(*extra):
    db = PolicyDb()
    for rec in (OWNER, C1, C2) + extra:
        register_user(db, rec)
    return db, ObjectStore()


# ---------------------------------------------------------------- registration

def test_register_round_trip():
    db, _ = base_db()
    assert db.users["olivia"].user_type == UserType.OWNER
    assert db.users["carol"].credentials == b"cred-carol"


def test_register_rejects_duplicates():
    db, _ = base_db()
    with pytest.raises(DuplicateUser):
        register_user(db, UserRecord("carol", UserType.CONSUMER, b"x"))


# ---------------------------------------------------------------- granting

def test_grant_validation():
    db, store = base_db()
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


def test_grant_blinds_with_registered_credentials():
    db, store = base_db(UserRecord("bob", UserType.CONSUMER, b"cred-bob"))
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


def test_grant_assigns_role_slots():
    db, store = base_db()
    owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    grant = db.grants["f"]
    assert grant.server_share.x == SERVER_X == 1
    assert owner_share.x == OWNER_X == 2
    xs = sorted(rec.x for rec in grant.consumer_shares.values())
    assert xs == [FIRST_CONSUMER_X, FIRST_CONSUMER_X + 1] == [3, 4]


def test_protocol_calls_return_only_what_is_not_stored():
    db, store = PolicyDb(), ObjectStore()
    assert register_user(db, OWNER) is None
    register_user(db, C1)
    owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    assert isinstance(owner_share, SharePoint) and owner_share.x == OWNER_X
    deltas = revoke_user(db, "f", "carol")
    assert isinstance(deltas, tuple) and len(deltas) == THRESHOLD - 1


def test_grant_stores_envelope_under_content_key():
    db, store = base_db()
    grant_access(db, store, "f", "olivia", ["carol"], DATA)
    grant = db.grants["f"]
    assert grant.envelope_ref == object_key("f", 0)
    blob = store.get_object(grant.envelope_ref)
    # the 20-byte header, then one additive-mode byte per plaintext byte
    assert len(blob) == 20 + len(DATA)


def test_grant_hands_the_store_header_and_payload_as_two_pieces():
    db, store = base_db()
    with mock.patch.object(store, "put_object", wraps=store.put_object) as put:
        grant_access(db, store, "f", "olivia", ["carol"], DATA,
                     mode=Mode.POWER, n=3)
    (ref, (header, payload)), = [call.args for call in put.call_args_list]
    assert len(header) == 20 and len(payload) > len(DATA)
    assert store.get_object(ref) == header + payload


def test_owner_share_is_never_stored():
    db, store = base_db()
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


def test_grant_replaces_previous_grant():
    db, store = base_db(C3)
    grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    share2 = grant_access(db, store, "f", "olivia", ["cindy"], b"new body")
    grant = db.grants["f"]
    assert set(grant.consumer_shares) == {"cindy"}
    out = request_decrypt(db, store, "f", share2, C3)
    assert out == b"new body"
    with pytest.raises(NotGranted):
        request_decrypt(db, store, "f", share2, C1)


def test_three_genuine_points_lie_on_one_parabola():
    db, store = base_db()
    owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    grant = db.grants["f"]
    consumer_pt = decrypt_share(grant.consumer_shares["carol"], C1.credentials)
    inp = ReconstructionInput((grant.server_share, owner_share, consumer_pt))
    secret = reconstruct_secret(inp)
    assert 0 <= secret < db.modulus.p


# ---------------------------------------------------------------- request flow

def test_protocol_round_trip_additive():
    db, store = base_db()
    owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    assert request_decrypt(db, store, "f", owner_share, C1) == DATA
    assert request_decrypt(db, store, "f", owner_share, C2) == DATA


def test_protocol_round_trip_power():
    db, store = base_db()
    owner_share = grant_access(
        db, store, "f", "olivia", ["carol"], DATA, mode=Mode.POWER, n=2
    )
    assert request_decrypt(db, store, "f", owner_share, C1) == DATA


def test_receiver_may_present_record_explicitly():
    db, store = base_db()
    owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    record = db.grants["f"].consumer_shares["carol"]
    out = request_decrypt(db, store, "f", owner_share, C1, receiver_share_record=record)
    assert out == DATA


def test_request_error_cases():
    db, store = base_db(C3)
    owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    with pytest.raises(UnknownFile):
        request_decrypt(db, store, "nope", owner_share, C1)
    with pytest.raises(UnknownUser):
        request_decrypt(db, store, "f", owner_share, UserRecord("x", UserType.CONSUMER, b"?"))
    with pytest.raises(InsufficientPoints):
        request_decrypt(db, store, "f", None, C1)
    with pytest.raises(NotGranted):
        request_decrypt(db, store, "f", owner_share, C3)  # registered, no share


def test_tampered_server_share_fails_binding():
    db, store = base_db()
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


def test_borrowed_record_fails_binding():
    # C2 presents C1's record: unblinding with the wrong credentials
    # yields a point off the polynomial
    db, store = base_db()
    owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    stolen = db.grants["f"].consumer_shares["carol"]
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", owner_share, C2, receiver_share_record=stolen)


def test_stored_point_cannot_stand_in_for_the_owner():
    from trishare import RoleMismatch

    db, store = base_db()
    owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    grant = db.grants["f"]
    # the server point and every consumer point sit on the polynomial,
    # so without the slot check they would pass the binding
    with pytest.raises(RoleMismatch):
        request_decrypt(db, store, "f", grant.server_share, C1)
    carol_pt = decrypt_share(grant.consumer_shares["carol"], C1.credentials)
    with pytest.raises(RoleMismatch):
        request_decrypt(db, store, "f", carol_pt, C2)


def test_garbage_owner_point_fails_binding():
    db, store = base_db()
    owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    fake = SharePoint(x=owner_share.x, y=(owner_share.y + 7) % db.modulus.p,
                      modulus=db.modulus)
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", fake, C1)


# ---------------------------------------------------------------- reference fixture

def pinned_report_grant():
    # the worked example's polynomial F(X) = 1234 + 166 X + 94 X^2 under
    # the role layout: server at x=1, owner at x=2, consumers at x=3..6
    db, store = base_db(C3, C4)
    owner_share = grant_access(
        db, store, "report.pdf", "olivia", ["carol", "chuck", "cindy", "caleb"], DATA,
        secret=1234, coeffs=(166, 94),
    )
    return db, store, owner_share


def test_reference_walkthrough():
    db, store, owner_share = pinned_report_grant()
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

def granted():
    db, store = base_db(C3)
    owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck", "cindy"], DATA)
    return db, store, owner_share


def test_revoked_record_goes_stale():
    db, store, owner_share = granted()
    deltas = revoke_user(db, "f", "chuck")
    assert "chuck" not in db.grants["f"].consumer_shares
    with pytest.raises(NotGranted):
        request_decrypt(db, store, "f", update_owner_share(owner_share, deltas), C2)


def test_stale_record_fails_binding_even_if_presented():
    db, store, owner_share = granted()
    stale = db.grants["f"].consumer_shares["chuck"]
    deltas = revoke_user(db, "f", "chuck")
    new_owner = update_owner_share(owner_share, deltas)
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", new_owner, C2, receiver_share_record=stale)


def test_remaining_users_keep_access():
    db, store, owner_share = granted()
    deltas = revoke_user(db, "f", "chuck")
    new_owner = update_owner_share(owner_share, deltas)
    assert request_decrypt(db, store, "f", new_owner, C1) == DATA
    assert request_decrypt(db, store, "f", new_owner, C3) == DATA


def test_old_owner_point_goes_stale_too():
    db, store, owner_share = granted()
    revoke_user(db, "f", "chuck")
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", owner_share, C1)


def test_revocation_leaves_envelope_untouched():
    db, store, owner_share = granted()
    ref = db.grants["f"].envelope_ref
    before = store.get_object(ref)
    revoke_user(db, "f", "chuck")
    assert db.grants["f"].envelope_ref == ref
    assert store.get_object(ref) == before


def test_revocation_rotates_salt_and_binding():
    db, store, owner_share = granted()
    old = db.grants["f"]
    old_salt, old_kc = old.salt, old.binding.kc
    deltas = revoke_user(db, "f", "chuck")
    new = db.grants["f"]
    assert new.salt != old_salt
    assert new.binding.kc != old_kc or new.binding.x_kc == old.binding.x_kc
    assert len(deltas) == THRESHOLD - 1
    assert any(d != 0 for d in deltas)


def test_revocation_preserves_the_secret():
    db, store, owner_share = granted()
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


def test_revoking_the_last_consumer():
    db, store = base_db()
    owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    stale = db.grants["f"].consumer_shares["carol"]
    deltas = revoke_user(db, "f", "carol")
    assert db.grants["f"].consumer_shares == {}
    new_owner = update_owner_share(owner_share, deltas)
    with pytest.raises(NotGranted):
        request_decrypt(db, store, "f", new_owner, C1)
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", new_owner, C1, receiver_share_record=stale)


def test_revoke_error_cases():
    db, store, _ = granted()
    with pytest.raises(UnknownFile):
        revoke_user(db, "ghost-file", "carol")
    with pytest.raises(NotGranted):
        revoke_user(db, "f", "olivia")  # owner holds no consumer share
    db2 = PolicyDb(
        modulus=db.modulus,
        users={k: v for k, v in db.users.items() if k != "olivia"},
        grants=db.grants,
    )
    with pytest.raises(UnknownOwner):
        revoke_user(db2, "f", "carol")


def test_revoke_pinned_grant_twice():
    # delta(0) = 0 whatever the pinned coefficients were, so revocation
    # needs nothing beyond the grant's own record
    db, store, owner_share = pinned_report_grant()
    d1 = revoke_user(db, "report.pdf", "chuck")
    d2 = revoke_user(db, "report.pdf", "caleb")
    new_owner = update_owner_share(update_owner_share(owner_share, d1), d2)
    assert request_decrypt(db, store, "report.pdf", new_owner, C1) == DATA
    assert request_decrypt(db, store, "report.pdf", new_owner, C3) == DATA
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "report.pdf", owner_share, C1)


def test_double_revocation_compounds():
    db, store, owner_share = granted()
    d1 = revoke_user(db, "f", "chuck")
    d2 = revoke_user(db, "f", "cindy")
    owner2 = update_owner_share(update_owner_share(owner_share, d1), d2)
    assert request_decrypt(db, store, "f", owner2, C1) == DATA
    half = update_owner_share(owner_share, d1)
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", half, C1)


def test_revoke_redraws_a_salt_that_moves_no_share():
    # the first salt drawn is the grant's own, so every delta is zero and
    # no issued x would move: revoke_user must draw again
    db, store, owner_share = granted()
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

def test_db_json_round_trip():
    db, store, _ = granted()
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
    store = ObjectStore()
    for file_id in draw(st.lists(TRICKY_TEXT.filter(bool), unique=True, max_size=3)):
        chosen = draw(st.lists(st.sampled_from(consumers), min_size=1,
                               unique_by=lambda u: u.user_id))
        grant_access(db, store, file_id, owner.user_id,
                     [c.user_id for c in chosen], b"body")
        if draw(st.booleans()):
            for consumer in chosen:
                revoke_user(db, file_id, consumer.user_id)
    return db


def all_revoked_db():
    db, store = base_db()
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
    db, _, _ = granted()
    store = ObjectStore(tmp_path / "store")
    persist_db(db, store)
    assert (tmp_path / "store" / POLICY_DIGEST_FILENAME).exists()
    path = tmp_path / "store" / POLICY_FILENAME
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(CorruptPolicy) as info:
        load_db(store)
    assert isinstance(info.value.__cause__, cause)


@pytest.mark.parametrize("value", [None, 5])
@pytest.mark.parametrize("where, key", [
    ("user", "user_id"), ("grant", "file_id"), ("grant", "owner_id"),
    ("grant", "envelope_ref"), ("share", "file_id")])
def test_db_from_json_rejects_non_string_field(where, key, value):
    db, _, _ = granted()
    doc = json.loads(db_to_json(db))
    grant = doc["grants"][0]
    record = {"user": doc["users"][0], "grant": grant,
              "share": next(iter(grant["consumers"].values()))}[where]
    record[key] = value
    with pytest.raises(CorruptPolicy) as info:
        db_from_json(json.dumps(doc))
    assert isinstance(info.value.__cause__, TypeError)


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
    return mock.patch.object(trishare.authz, "db_from_json",
                             side_effect=AssertionError("full parse"))


def counted_grant_parses():
    """Count the grant blocks parsed (each goes through _grant_from_doc)."""
    return mock.patch.object(trishare.authz, "_grant_from_doc",
                             wraps=trishare.authz._grant_from_doc)


def test_sliced_load_parses_only_the_grants_it_reads(tmp_path):
    db, _, owner_share = granted()
    store = ObjectStore(tmp_path / "store")
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


def test_reading_grants_while_iterating_a_sliced_load(tmp_path):
    # a read parses the block in place: the keys stay as they were, so
    # the loop may read every grant it visits
    db, _, _ = granted()
    store = ObjectStore(tmp_path / "store")
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
    assert db_to_json(loaded) == store.read_text(POLICY_FILENAME)


@pytest.mark.parametrize("db", [PolicyDb(), base_db()[0]], ids=["empty", "users-only"])
def test_sliced_load_of_a_policy_without_grants(db):
    store = ObjectStore()
    persist_db(db, store)
    with full_loads_forbidden():
        loaded = load_db(store)
    assert loaded == db and len(loaded.grants) == 0
    assert db_to_json(loaded) == store.read_text(POLICY_FILENAME)


def test_missing_sidecar_takes_the_full_parse_and_persist_writes_one(tmp_path):
    db, _, _ = granted()
    store = ObjectStore(tmp_path / "store")
    persist_db(db, store)
    sidecar = tmp_path / "store" / POLICY_DIGEST_FILENAME
    digest = sidecar.read_text()
    sidecar.unlink()
    with mock.patch.object(trishare.authz, "db_from_json",
                           wraps=trishare.authz.db_from_json) as full:
        loaded = load_db(store)
    assert full.call_count == 1 and loaded == db
    persist_db(loaded, store)
    assert sidecar.read_text() == digest
    with full_loads_forbidden():
        assert load_db(store) == db


@pytest.mark.parametrize("sidecar", ["old-digest", "empty", "truncated",
                                     "next-digest"])
def test_stale_sidecar_takes_the_full_parse(tmp_path, sidecar):
    db, store, owner_share = granted()
    disk = ObjectStore(tmp_path / "store")
    for ref in store.keys():
        disk.put_object(ref, [store.get_object(ref)])
    persist_db(db, disk)
    before = db_to_json(db)
    revoke_user(db, "f", "chuck")
    after = db_to_json(db)
    # The states a crash can leave the unsynced sidecar in, beside the
    # policy.json that was committed.
    def digest(text):
        return trishare.authz._digest([text.encode("utf-8")]).decode("ascii")

    committed, stale = {"old-digest": (after, digest(before)),
                        "empty": (after, ""),
                        "truncated": (after, digest(after)[:32]),
                        "next-digest": (before, digest(after))}[sidecar]
    (tmp_path / "store" / POLICY_FILENAME).write_text(committed)
    sidecar_path = tmp_path / "store" / POLICY_DIGEST_FILENAME
    sidecar_path.write_text(stale)
    with mock.patch.object(trishare.authz, "db_from_json",
                           wraps=trishare.authz.db_from_json) as full:
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
                     cache=(POLICY_DIGEST_FILENAME, trishare.authz._digest([data])))


def test_corrupt_grant_block_under_a_matching_digest(tmp_path):
    db, _, _ = granted()
    store = ObjectStore(tmp_path / "store")
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
    db, _, _ = granted()
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


def forged_policy(forgery):
    """Text in db_to_json's layout that persist_db never wrote: blocks f1
    and f2 swapped, a second, different f2 block after f2, or an f1 block
    that names f3 in a second file_id key."""
    db, store = base_db()
    for i in range(5):
        grant_access(db, store, f"f{i}", "olivia", ["carol"], DATA)
    doc = json.loads(db_to_json(db))
    grants = doc["grants"]
    if forgery == "swapped":
        grants[1], grants[2] = grants[2], grants[1]
    elif forgery == "duplicate":
        grants.insert(3, dict(grants[2], salt_hex="00" * 16))
    # db_to_json writes what json.dumps(doc, indent=2) writes (see the oracle)
    text = json.dumps(doc, indent=2)
    owner = '"owner_id": "olivia",'
    if forgery == "two-ids":
        text = text.replace(f'"f1",\n      {owner}', f'"f1",\n      {owner} "file_id": "f3",')
    return db, text


# Every lookup either finds the block that holds its own file id or fails
# typed; none returns another id's grant.
@pytest.mark.parametrize("forgery, outcomes", [
    ("swapped", {"f0": "own", "f1": "UnknownFile", "f2": "UnknownFile",
                 "f3": "own", "f4": "own"}),
    ("duplicate", {"f0": "own", "f1": "own", "f2": "CorruptPolicy",
                   "f3": "own", "f4": "own"}),
    ("two-ids", {"f0": "own", "f1": "CorruptPolicy", "f2": "own",
                 "f3": "own", "f4": "own"}),
])
def test_forged_layout_under_a_matching_digest_stays_typed(tmp_path, forgery,
                                                           outcomes):
    db, text = forged_policy(forgery)
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
            with pytest.raises(getattr(trishare.authz, outcome)):
                request_decrypt(loaded, store, fid,
                                SharePoint(OWNER_X, 1, db.modulus), C1)
    # Listing checks the order of every quoted id, and only that.
    try:
        listed = list(loaded.grants)
    except CorruptPolicy:
        listed = "CorruptPolicy"
    assert listed == (list(outcomes) if forgery == "two-ids" else "CorruptPolicy")


def churn_policy(store):
    """A policy shaped like the policy-churn workload's: 300 grants of 8
    consumers each, drawn from 64."""
    db = PolicyDb()
    register_user(db, OWNER)
    consumers = [f"u{i:03d}" for i in range(64)]
    for uid in consumers:
        register_user(db, UserRecord(uid, UserType.CONSUMER, uid.encode()))
    rng, envelopes = random.Random(300), ObjectStore()
    for i in range(300):
        grant_access(db, envelopes, f"f{i:03d}", "olivia",
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
    elif kind == "delete":
        granted_ids = sorted(db.grants)
        if not granted_ids:
            return
        del db.grants[granted_ids[a % len(granted_ids)]]
    else:
        live = [fid for fid in sorted(db.grants) if db.grants[fid].consumer_shares]
        if not live:
            return
        fid = live[a % len(live)]
        consumers = sorted(db.grants[fid].consumer_shares)
        revoke_user(db, fid, consumers[b % len(consumers)])
    persist_db(db, store)


# Grants and deletes of the only, first, last and a middle block, over
# ids that sort between escaped and unescaped ones.
_SPLICE_IDS = ["m", 'a"q', "z\\u", "\U0001F600", "b", "\u2028"]
_SPLICE_OPS = ([("grant", 0, 1), ("delete", 0, 0), ("grant", 0, 3)]
               + [("grant", i, 1) for i in range(1, 6)]
               + [("revoke", 2, 0), ("delete", 0, 0), ("delete", 3, 0),
                  ("delete", 3, 0), ("grant", 1, 2), ("delete", 1, 0)])


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([M61, (1 << 31) - 1, 65537]),
       ids=st.lists(TRICKY_TEXT, min_size=2, max_size=5, unique=True),
       file_ids=st.lists(TRICKY_TEXT.filter(bool), min_size=1, max_size=8,
                         unique=True),
       ops=st.lists(st.tuples(st.sampled_from(["register", "grant", "revoke",
                                               "delete"]),
                              st.integers(0, 63), st.integers(0, 63)),
                    max_size=12))
@example(p=M61, ids=["o", "c1", "c2"], file_ids=_SPLICE_IDS,
         ops=[("register", 1, 0), ("register", 1, 1)] + _SPLICE_OPS)
def test_sliced_and_full_loads_write_the_same_bytes(p, ids, file_ids, ops):
    sliced, full = ObjectStore(), ObjectStore()
    for store in (sliced, full):
        db = PolicyDb(modulus=modulus_for(p))
        register_user(db, UserRecord(ids[0], UserType.OWNER, b"cred-owner"))
        persist_db(db, store)
    for step, op in enumerate(ops):
        with mock.patch.object(trishare.authz.os, "urandom", _det_urandom(step)):
            with full_loads_forbidden():
                _run_policy_command(sliced, op, ids, file_ids)
        full.texts.pop(POLICY_DIGEST_FILENAME, None)
        with mock.patch.object(trishare.authz.os, "urandom", _det_urandom(step)):
            _run_policy_command(full, op, ids, file_ids)
        assert sliced.texts[POLICY_FILENAME] == full.texts[POLICY_FILENAME], (step, op)
