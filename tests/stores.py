"""The principals, builders and store helpers the test files share.

Unlike oracles.py this module builds on trishare: it holds one copy of
each setup and each check of a store's files that more than one test
file makes, not a reference to check the library against.
"""

import hashlib

import pytest
from hypothesis import strategies as st

import trishare.policy
from trishare import (CorruptPolicy, ObjectStore, PolicyDb, UserRecord, UserType,
                      db_from_json, grant_access, load_db, register_user)
from trishare.policy import POLICY_DIGEST_FILENAME, POLICY_FILENAME

OWNER = UserRecord("olivia", UserType.OWNER, b"cred-olivia")
C1 = UserRecord("carol", UserType.CONSUMER, b"cred-carol")
C2 = UserRecord("chuck", UserType.CONSUMER, b"cred-chuck")
C3 = UserRecord("cindy", UserType.CONSUMER, b"cred-cindy")
C4 = UserRecord("caleb", UserType.CONSUMER, b"cred-caleb")

DATA = b"the cargo leaves at midnight" * 10


def base_db(tmp_path, *extra):
    """olivia, carol, chuck and the extra records registered, and an
    empty store under tmp_path."""
    db = PolicyDb()
    for rec in (OWNER, C1, C2) + extra:
        register_user(db, rec)
    return db, ObjectStore(tmp_path / "store")


def granted(tmp_path):
    """base_db with cindy, and f granted to carol, chuck and cindy;
    returns (db, store, owner point)."""
    db, store = base_db(tmp_path, C3)
    owner_share = grant_access(db, store, "f", "olivia", ["carol", "chuck", "cindy"], DATA)
    return db, store, owner_share


def sidecar_of(data):
    """The sidecar persist_db writes beside the policy bytes `data`."""
    return hashlib.sha256(data).hexdigest().encode("ascii") + b"\n"


def forge(store, policy):
    """Commit `policy`, text or bytes, with the sidecar persist_db would
    write."""
    data = policy.encode("utf-8") if isinstance(policy, str) else policy
    store.write_text(POLICY_FILENAME, [data],
                     cache=(POLICY_DIGEST_FILENAME, sidecar_of(data)))


def store_files(root):
    """Every file under root, by its path relative to root, with its
    bytes."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def assert_kept_is_the_policy(root, what=None):
    """The sidecar is the SHA-256 of the policy, the kept layout is what a
    fresh scan of the policy finds, and each index the kept record carries
    is the ids and offsets a walk finds."""
    data = (root / POLICY_FILENAME).read_bytes()
    assert (root / POLICY_DIGEST_FILENAME).read_bytes() == sidecar_of(data), what
    layout, fresh = trishare.policy._kept.layout, trishare.policy._sliced_db(data)
    assert layout[:3] == (fresh.modulus, fresh.users._start,
                          fresh.grants._start), what
    for index, blocks in ((layout.users, fresh.users), (layout.grants, fresh.grants)):
        assert index == blocks._index, what


# Quotes, backslashes, control characters, non-ASCII and astral code points
# (written as surrogate-pair escapes), mixed with arbitrary text.
TRICKY_CHARS = '"\\/\x00\x08\x1f\x7f\u00e9\u2028\U0001F600\U0001D11E'
TRICKY_TEXT = st.text(st.one_of(st.sampled_from(TRICKY_CHARS),
                                st.characters(codec="utf-8")),
                      max_size=6)


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
