import json

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
    RoleSlots,
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
from trishare.authz import FIRST_CONSUMER_X, OWNER_X, SERVER_X, THRESHOLD
from trishare.storage import ACL_BACKUP_FILENAME, POLICY_FILENAME

OWNER = UserRecord("olivia", UserType.OWNER, b"cred-olivia")
C1 = UserRecord("carol", UserType.CONSUMER, b"cred-carol")
C2 = UserRecord("chuck", UserType.CONSUMER, b"cred-chuck")
C3 = UserRecord("cindy", UserType.CONSUMER, b"cred-cindy")
C4 = UserRecord("caleb", UserType.CONSUMER, b"cred-caleb")

DATA = b"the cargo leaves at midnight" * 10


def base_db(*extra):
    db = PolicyDb()
    for rec in (OWNER, C1, C2) + extra:
        db = register_user(db, rec)
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
    db, _, owner_share = grant_access(db, store, "f", "olivia", ["bob"], DATA)
    bob = db.users["bob"]
    grant = db.grants["f"]
    bob_pt = decrypt_share(grant.consumer_shares["bob"], bob.credentials)
    inp = ReconstructionInput(points=(grant.server_share, owner_share, bob_pt),
                              modulus=db.modulus)
    assert verify_binding(reconstruct_polynomial(inp), grant.binding, b"f")
    assert request_decrypt(db, store, "f", owner_share, bob) == DATA
    # other credentials under bob's id open nothing
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", owner_share,
                        UserRecord("bob", UserType.CONSUMER, b"not-bob"))


def test_grant_assigns_role_slots():
    db, store = base_db()
    db, env, owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    grant = db.grants["f"]
    assert grant.server_share.x == SERVER_X == 1
    assert owner_share.x == OWNER_X == 2
    xs = sorted(rec.x for rec in grant.consumer_shares.values())
    assert xs == [FIRST_CONSUMER_X, FIRST_CONSUMER_X + 1] == [3, 4]


def test_grant_stores_envelope_under_content_key():
    db, store = base_db()
    db, env, _ = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    grant = db.grants["f"]
    assert grant.envelope_ref == object_key("f", 0)
    blob = store.get_object(grant.envelope_ref)
    assert len(blob) == 20 + len(env.payload)


def test_owner_share_is_never_stored():
    db, store = base_db()
    db, _, owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
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
    db, _, share1 = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    db, _, share2 = grant_access(db, store, "f", "olivia", ["cindy"], b"new body")
    grant = db.grants["f"]
    assert set(grant.consumer_shares) == {"cindy"}
    out = request_decrypt(db, store, "f", share2, C3)
    assert out == b"new body"
    with pytest.raises(NotGranted):
        request_decrypt(db, store, "f", share2, C1)


def test_three_genuine_points_lie_on_one_parabola():
    db, store = base_db()
    db, _, owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    grant = db.grants["f"]
    consumer_pt = decrypt_share(grant.consumer_shares["carol"], C1.credentials)
    inp = ReconstructionInput(
        points=(grant.server_share, owner_share, consumer_pt),
        modulus=db.modulus,
        k=THRESHOLD,
    )
    secret = reconstruct_secret(inp)
    assert 0 <= secret < db.modulus.p


# ---------------------------------------------------------------- request flow

def test_protocol_round_trip_additive():
    db, store = base_db()
    db, _, owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    assert request_decrypt(db, store, "f", owner_share, C1) == DATA
    assert request_decrypt(db, store, "f", owner_share, C2) == DATA


def test_protocol_round_trip_power():
    db, store = base_db()
    db, _, owner_share = grant_access(
        db, store, "f", "olivia", ["carol"], DATA, mode=Mode.POWER, n=2
    )
    assert request_decrypt(db, store, "f", owner_share, C1) == DATA


def test_receiver_may_present_record_explicitly():
    db, store = base_db()
    db, _, owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    record = db.grants["f"].consumer_shares["carol"]
    out = request_decrypt(db, store, "f", owner_share, C1, receiver_share_record=record)
    assert out == DATA


def test_request_error_cases():
    db, store = base_db(C3)
    db, _, owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
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
    db, _, owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
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
    db, _, owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    stolen = db.grants["f"].consumer_shares["carol"]
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", owner_share, C2, receiver_share_record=stolen)


def test_stored_point_cannot_stand_in_for_the_owner():
    from trishare import RoleMismatch

    db, store = base_db()
    db, _, owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
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
    db, _, owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    fake = SharePoint(x=owner_share.x, y=(owner_share.y + 7) % db.modulus.p,
                      modulus=db.modulus)
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", fake, C1)


# ---------------------------------------------------------------- reference fixture

def test_reference_walkthrough():
    # pinned secret/coefficients with the documented role layout:
    # server at x=2, owner at x=4, consumers at x=1,3,5,6
    db, store = base_db(C3, C4)
    slots = RoleSlots(server_x=2, owner_x=4, consumer_xs=(1, 3, 5, 6))
    db, env, owner_share = grant_access(
        db, store, "report.pdf", "olivia", ["carol", "chuck", "cindy", "caleb"], DATA,
        secret=1234, coeffs=(166, 94), slots=slots,
    )
    grant = db.grants["report.pdf"]
    assert (grant.server_share.x, grant.server_share.y) == (2, 1942)
    assert (owner_share.x, owner_share.y) == (4, 3402)
    table = {1: 1494, 3: 2578, 5: 4414, 6: 5614}
    for rec, user in zip(
        (grant.consumer_shares[c.user_id] for c in (C1, C2, C3, C4)),
        (C1, C2, C3, C4),
    ):
        pt = decrypt_share(rec, user.credentials)
        assert pt.y == table[pt.x]
    receiver = C3  # holds the x=5 share
    pt = decrypt_share(grant.consumer_shares["cindy"], C3.credentials)
    assert (pt.x, pt.y) == (5, 4414)
    assert request_decrypt(db, store, "report.pdf", owner_share, receiver) == DATA


# ---------------------------------------------------------------- revocation

def granted():
    db, store = base_db(C3)
    db, env, owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck", "cindy"], DATA)
    return db, store, owner_share


def test_revoked_record_goes_stale():
    db, store, owner_share = granted()
    db, deltas = revoke_user(db, "f", "chuck")
    assert "chuck" not in db.grants["f"].consumer_shares
    with pytest.raises(NotGranted):
        request_decrypt(db, store, "f", update_owner_share(owner_share, deltas), C2)


def test_stale_record_fails_binding_even_if_presented():
    db, store, owner_share = granted()
    stale = db.grants["f"].consumer_shares["chuck"]
    db, deltas = revoke_user(db, "f", "chuck")
    new_owner = update_owner_share(owner_share, deltas)
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", new_owner, C2, receiver_share_record=stale)


def test_remaining_users_keep_access():
    db, store, owner_share = granted()
    db, deltas = revoke_user(db, "f", "chuck")
    new_owner = update_owner_share(owner_share, deltas)
    assert request_decrypt(db, store, "f", new_owner, C1) == DATA
    assert request_decrypt(db, store, "f", new_owner, C3) == DATA


def test_old_owner_point_goes_stale_too():
    db, store, owner_share = granted()
    db, _ = revoke_user(db, "f", "chuck")
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", owner_share, C1)


def test_revocation_leaves_envelope_untouched():
    db, store, owner_share = granted()
    ref = db.grants["f"].envelope_ref
    before = store.get_object(ref)
    db, _ = revoke_user(db, "f", "chuck")
    assert db.grants["f"].envelope_ref == ref
    assert store.get_object(ref) == before


def test_revocation_rotates_salt_and_binding():
    db, store, owner_share = granted()
    old = db.grants["f"]
    old_salt, old_kc = old.salt, old.binding.kc
    db, deltas = revoke_user(db, "f", "chuck")
    new = db.grants["f"]
    assert new.salt != old_salt
    assert new.binding.kc != old_kc or new.binding.x_kc == old.binding.x_kc
    assert len(deltas) == THRESHOLD - 1
    assert any(d != 0 for d in deltas)


def test_revocation_preserves_the_secret():
    db, store, owner_share = granted()
    grant = db.grants["f"]
    pt1 = decrypt_share(grant.consumer_shares["carol"], C1.credentials)
    before = reconstruct_secret(ReconstructionInput(
        points=(grant.server_share, owner_share, pt1), modulus=db.modulus))
    db, deltas = revoke_user(db, "f", "chuck")
    grant = db.grants["f"]
    new_owner = update_owner_share(owner_share, deltas)
    pt1b = decrypt_share(grant.consumer_shares["carol"], C1.credentials)
    after = reconstruct_secret(ReconstructionInput(
        points=(grant.server_share, new_owner, pt1b), modulus=db.modulus))
    assert before == after


def test_revoking_the_last_consumer():
    db, store = base_db()
    db, _, owner_share = grant_access(db, store, "f", "olivia", ["carol"], DATA)
    stale = db.grants["f"].consumer_shares["carol"]
    db, deltas = revoke_user(db, "f", "carol")
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


def test_revoke_pinned_grant_needs_old_coeffs():
    db, store = base_db(C3, C4)
    slots = RoleSlots(server_x=2, owner_x=4, consumer_xs=(1, 3, 5, 6))
    db, _, owner_share = grant_access(
        db, store, "report.pdf", "olivia", ["carol", "chuck", "cindy", "caleb"], DATA,
        secret=1234, coeffs=(166, 94), slots=slots,
    )
    db, deltas = revoke_user(db, "report.pdf", "chuck", old_coeffs=(166, 94))
    new_owner = update_owner_share(owner_share, deltas)
    assert request_decrypt(db, store, "report.pdf", new_owner, C1) == DATA
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "report.pdf", owner_share, C1)


def test_double_revocation_compounds():
    db, store, owner_share = granted()
    db, d1 = revoke_user(db, "f", "chuck")
    db, d2 = revoke_user(db, "f", "cindy")
    owner2 = update_owner_share(update_owner_share(owner_share, d1), d2)
    assert request_decrypt(db, store, "f", owner2, C1) == DATA
    half = update_owner_share(owner_share, d1)
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", half, C1)


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
        db = register_user(db, rec)
    db, _, owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck"], DATA)
    persist_db(db, store, backup=True)
    assert (tmp_path / "store" / POLICY_FILENAME).exists()
    assert store.read_text(POLICY_FILENAME) == store.read_text(ACL_BACKUP_FILENAME)
    fresh_store = ObjectStore(tmp_path / "store")
    db2 = load_db(fresh_store)
    assert request_decrypt(db2, fresh_store, "f", owner_share, C1) == DATA


def test_store_never_holds_plaintext(tmp_path):
    sentinel = b"TOP-SECRET-SENTINEL-0xDEADBEEF"
    body = sentinel * 64
    store = ObjectStore(tmp_path / "store")
    db = PolicyDb()
    for rec in (OWNER, C1):
        db = register_user(db, rec)
    db, _, _ = grant_access(db, store, "f", "olivia", ["carol"], body)
    persist_db(db, store, backup=True)
    for path in sorted((tmp_path / "store").rglob("*")):
        if path.is_file():
            assert sentinel not in path.read_bytes(), path
