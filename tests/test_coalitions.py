"""What each coalition can compute about a file's secret a0, at p = 97.

A grant stores its polynomial F(X) = a0 + a1 X + a2 X^2 in pieces: the
server share (1, F(1)), the binding code kc = a0 + F(x_kc) (in the grant
and in every consumer's record), each consumer's point blinded by a hash
of their credentials, and the salt from which a1 and a2 are derived with
the owner's credentials.  Each piece a coalition reads is a linear
equation c0 a0 + c1 a1 + c2 a2 = v mod p.  For every view below, the
test counts the secrets a0 for which some (a1, a2) satisfies all of the
view's equations, by brute force over the 97^2 pairs (a revoked
consumer's view spans two polynomials with the same a0, each with its
own a1 and a2).  A count of 1 means the view fixes a0; 97 means it says
nothing about a0.

"As stored" reads policy.json as persist_db writes it, with every
user's credentials_hex; "credentials withheld" reads it without them,
so neither a1 and a2 nor another user's point can be computed from it.
"""

import json
import time

from trishare import (ObjectStore, PolicyDb, UserRecord, UserType,
                      db_to_json, grant_access, modulus_for, register_user,
                      revoke_user)
from trishare.authz import _owner_attributes
from trishare.sharing import (EncryptedShare, decrypt_share,
                              derive_attribute_tokens, derive_binding_x)

P = 97
SECRET = 42
FILE_ID = "report.pdf"
CONSUMERS = ["c1", "c2", "c3", "c4"]

# view -> (count as stored, count with credentials withheld)
TABLE = {
    "the store alone": (1, 97),
    "the store plus one consumer": (1, 1),
    "one consumer": (97, 97),
    "two consumers": (1, 1),
    "three consumers": (1, 1),
    "two consumers plus the server share": (1, 1),
    "the owner point alone": (97, 97),
    "a revoked consumer plus the current store": (1, 97),
}


def _point(x, y):
    return (1, x, x * x % P, y)


def _binding(kc, x_kc):
    return (2, x_kc, x_kc * x_kc % P, kc)


def _consumer(doc, uid):
    """A consumer's own record, unblinded with their credentials: their
    point and the binding code it carries."""
    rec = EncryptedShare.from_dict(doc["grants"][0]["consumers"][uid])
    pt = decrypt_share(rec, b"cred-" + uid.encode())
    return [_point(pt.x, pt.y), _binding(rec.kc, rec.x_kc)]


def _server(doc):
    share = doc["grants"][0]["server_share"]
    return [_point(share["x"], share["y"])]


def _store(doc, credentials):
    """policy.json: the server share and kc, and with the credentials
    also a1, a2 and every consumer's point."""
    grant = doc["grants"][0]
    eqs = _server(doc) + [_binding(grant["kc"], grant["x_kc"])]
    if credentials:
        creds = {u["user_id"]: bytes.fromhex(u["credentials_hex"])
                 for u in doc["users"]}
        owner = UserRecord(grant["owner_id"], UserType.OWNER,
                           creds[grant["owner_id"]])
        a1, a2 = derive_attribute_tokens(_owner_attributes(owner),
                                         bytes.fromhex(grant["salt_hex"]),
                                         modulus_for(P))
        eqs += [(0, 1, 0, a1), (0, 0, 1, a2)]
        for uid, rec in grant["consumers"].items():
            pt = decrypt_share(EncryptedShare.from_dict(rec), creds[uid])
            eqs.append(_point(pt.x, pt.y))
    return eqs


def consistent_secrets(*polynomials):
    """The a0 in Z_p for which each list of equations, over its own
    polynomial's a1 and a2, has a solution."""
    fits = set(range(P))
    for eqs in polynomials:
        found = set()
        for a1 in range(P):
            for a2 in range(P):
                rest = [(c0, (v - c1 * a1 - c2 * a2) % P) for c0, c1, c2, v in eqs]
                if any(r for c0, r in rest if c0 == 0):
                    continue
                fixed = {r * pow(c0, -1, P) % P for c0, r in rest if c0}
                if len(fixed) <= 1:
                    found |= fixed or set(range(P))
        fits &= found
    return fits


def grant_and_revoke(tmp_path):
    """policy.json after a grant to c1..c4 and after revoking c4, and the
    owner point."""
    db, envelopes = PolicyDb(modulus=modulus_for(P)), ObjectStore(tmp_path / "store")
    register_user(db, UserRecord("olivia", UserType.OWNER, b"cred-olivia"))
    for uid in CONSUMERS:
        register_user(db, UserRecord(uid, UserType.CONSUMER, b"cred-" + uid.encode()))
    owner = grant_access(db, envelopes, FILE_ID, "olivia", CONSUMERS,
                         b"payload", secret=SECRET)
    granted = json.loads(db_to_json(db))
    revoke_user(db, FILE_ID, "c4")
    return granted, json.loads(db_to_json(db)), owner


def views(credentials, tmp_path):
    granted, revoked, owner = grant_and_revoke(tmp_path)
    store = _store(granted, credentials)
    return {
        "the store alone": [store],
        "the store plus one consumer": [store + _consumer(granted, "c1")],
        "one consumer": [_consumer(granted, "c1")],
        "two consumers": [_consumer(granted, "c1") + _consumer(granted, "c2")],
        "three consumers": [_consumer(granted, "c1") + _consumer(granted, "c2")
                            + _consumer(granted, "c3")],
        "two consumers plus the server share": [
            _consumer(granted, "c1") + _consumer(granted, "c2") + _server(granted)],
        "the owner point alone": [[_point(owner.x, owner.y)]],
        "a revoked consumer plus the current store": [
            _consumer(granted, "c4"), _store(revoked, credentials)],
    }


def test_binding_abscissa_is_not_a_share_slot():
    # x_kc = 1 would make kc - F(1) = a0 for this file id by itself
    assert derive_binding_x(FILE_ID.encode(), modulus_for(P)) > 2 + len(CONSUMERS)


def test_what_each_coalition_learns_about_the_secret(tmp_path):
    start = time.monotonic()
    counts = {}
    for column, credentials in enumerate((True, False)):
        for name, polynomials in views(credentials, tmp_path).items():
            fits = consistent_secrets(*polynomials)
            assert SECRET in fits, name
            counts.setdefault(name, [0, 0])[column] = len(fits)
    assert {name: tuple(pair) for name, pair in counts.items()} == TABLE
    assert time.monotonic() - start < 5
