"""
The four-party authorization protocol, end to end
=================================================

Owner seals a file; the secret is split so that decryption needs the
server share, the owner's never-stored point, and one receiver share.
Revocation shifts the polynomial without touching the ciphertext.
"""

from trishare import (
    BindingMismatch,
    ObjectStore,
    PolicyDb,
    RoleMismatch,
    UserRecord,
    UserType,
    grant_access,
    persist_db,
    register_user,
    request_decrypt,
    revoke_user,
    update_owner_share,
)

db = PolicyDb()
store = ObjectStore()  # in-memory here; pass a directory for disk

owner = UserRecord("alice", UserType.OWNER, b"cred-alice")
bob = UserRecord("bob", UserType.CONSUMER, b"cred-bob")
carol = UserRecord("carol", UserType.CONSUMER, b"cred-carol")
for rec in (owner, bob, carol):
    register_user(db, rec)
print(f"registered: {sorted(db.users)}")

body = b"wire the funds on friday\n" * 16
db, envelope, owner_point = grant_access(db, store, "memo.txt", "alice",
                                         ["bob", "carol"], body)
grant = db.grants["memo.txt"]
print(f"\ngranted memo.txt: server holds x={grant.server_share.x}, "
      f"consumers hold x={sorted(r.x for r in grant.consumer_shares.values())}")
print(f"owner keeps (x={owner_point.x}, y={owner_point.y}) privately; "
      "it appears nowhere in the policy db")

# A receiver decrypts by presenting the owner point alongside their own
# stored share; the server contributes its share and the envelope.
out = request_decrypt(db, store, "memo.txt", owner_point, bob)
print(f"\nbob decrypts: {out[:24]!r}... ({len(out)} B)")

# Two stored points cannot impersonate the owner: the slot check stops
# a server+consumer collusion before reconstruction.
try:
    request_decrypt(db, store, "memo.txt", grant.server_share, carol)
except RoleMismatch as exc:
    print(f"server-as-owner rejected: {exc}")

# Revoke carol.  The polynomial is re-randomized by a delta with
# delta(0) = 0: same secret, same ciphertext, all old shares dead.
stale_record = grant.consumer_shares["carol"]
db, deltas = revoke_user(db, "memo.txt", "carol")
print(f"\nrevoked carol; owner applies deltas {deltas} to their point")

new_owner_point = update_owner_share(owner_point, deltas)
print(f"bob still decrypts: "
      f"{request_decrypt(db, store, 'memo.txt', new_owner_point, bob) == body}")

try:
    request_decrypt(db, store, "memo.txt", new_owner_point, carol,
                    receiver_share_record=stale_record)
except BindingMismatch:
    print("carol's stale share fails the binding check")

try:
    request_decrypt(db, store, "memo.txt", owner_point, bob)
except BindingMismatch:
    print("the pre-revocation owner point is stale too")

# The policy db serializes to JSON; persist_db drops it (plus an ACL
# backup) into the store.
persist_db(db, store, backup=True)
print(f"\npersisted policy: {len(store.read_text('policy.json'))} B of JSON, "
      f"backup matches: "
      f"{store.read_text('policy.json') == store.read_text('acl-backup.json')}")
