"""Differential test of the two policy loaders over forged policies.

A policy of 6 users and 6 grants at p = 2^31 - 1 is mutated in two
ways.  Whole block by whole block: swapped with another, moved,
duplicated (with another record), deleted, or renamed to another id,
existing or new, and a grant renamed with or without the file id its
records repeat.  Byte by byte: one byte overwritten with a printable
ASCII byte, 1-4 bytes deleted, one byte inserted, or the first character
of a block's id re-spelled as \\u00XX, each in place or with the block
moved to the end of its array first.  Each mutant is committed
with its digest sidecar re-matched, as any writer of the store can, and
with it stale, as a crash can leave it.  load_db then takes the sliced
path or the full parse; db_from_json always parses it whole.

The oracle, for every id of either array and for the listing of each:
both loaders return the same record (or both none), or at least one
raises a typed trishare.Error; nothing raises any other exception; and a
register or grant committed after the load never leaves an id in more
blocks than the mutant held (checked when the committed text is JSON).

The example counts are fixed and derandomized, so every run checks the
same mutants.  Raise MAX_EXAMPLES or BYTE_EXAMPLES for a longer run.
"""

import copy
import hashlib
import json
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from trishare import (Error, ObjectStore, PolicyDb, UserRecord, UserType,
                      db_from_json, db_to_json, grant_access, load_db,
                      modulus_for, persist_db, register_user)
from trishare.policy import POLICY_DIGEST_FILENAME, POLICY_FILENAME

MAX_EXAMPLES = 200
BYTE_EXAMPLES = 200
P = (1 << 31) - 1
OWNER = "olivia"
# Escaped and unescaped ids, in both arrays' sorted order.
CONSUMERS = ['a"q', "carol", "chuck", "cindy", "éva"]
FILE_IDS = ['f"0', "f1", "f2", "f3", " ", "\U0001F600"]
KEYS = {"users": "user_id", "grants": "file_id"}
# Ids a rename may give a block: every id of the array and new ones that
# sort before, between and after them.
IDS = {"users": sorted([OWNER, *CONSUMERS, "", "b", "zz"]),
       "grants": sorted([*FILE_IDS, "", "f15", "zz"])}
STALE_DIGEST = hashlib.sha256(b"").hexdigest() + "\n"


def base_doc():
    """The honest policy, as the JSON document db_to_json writes."""
    db = PolicyDb(modulus=modulus_for(P))
    register_user(db, UserRecord(OWNER, UserType.OWNER, b"cred-owner"))
    for uid in CONSUMERS:
        register_user(db, UserRecord(uid, UserType.CONSUMER, uid.encode()))
    with tempfile.TemporaryDirectory() as root:
        store = ObjectStore(root)
        for i, fid in enumerate(FILE_IDS):
            grant_access(db, store, fid, OWNER, CONSUMERS[i % 4:i % 4 + 2],
                         b"body", secret=i + 1, coeffs=(i + 2, i + 3))
    doc = json.loads(db_to_json(db))
    for i, grant in enumerate(doc["grants"]):  # fixed salts: same bytes each run
        grant["salt_hex"] = f"{i:032x}"
    return doc


BASE = base_doc()


@st.composite
def mutants(draw):
    """BASE with one or two of its blocks mutated."""
    doc = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(1, 2))):
        table = draw(st.sampled_from(sorted(KEYS)))
        blocks, key = doc[table], KEYS[table]
        if not blocks:
            continue
        i = draw(st.integers(0, len(blocks) - 1))
        op = draw(st.sampled_from(["swap", "move", "duplicate", "delete",
                                   "rename"]))
        if op == "swap":
            j = draw(st.integers(0, len(blocks) - 1))
            blocks[i], blocks[j] = blocks[j], blocks[i]
        elif op == "move":
            blocks.insert(draw(st.integers(0, len(blocks) - 1)), blocks.pop(i))
        elif op == "duplicate":
            other = {"users": {"credentials_hex": "00"},
                     "grants": {"salt_hex": "ff" * 16}}[table]
            blocks.insert(draw(st.integers(0, len(blocks))),
                          dict(copy.deepcopy(blocks[i]), **other))
        elif op == "delete":
            del blocks[i]
        else:
            new = draw(st.sampled_from(IDS[table]))
            if table == "grants" and draw(st.booleans()):
                for record in blocks[i]["consumers"].values():
                    record["file_id"] = new
            blocks[i][key] = new
    return doc


def lookups(load):
    """(table, id) -> ("record", record or None) or ("refused",) for
    every id, through the db `load` returns; None if load refuses."""
    try:
        db = load()
    except Error:
        return None
    seen = {}
    for table, ids in IDS.items():
        for key in ids:
            try:
                seen[table, key] = ("record", getattr(db, table).get(key))
            except Error:
                seen[table, key] = ("refused",)
        try:
            seen[table] = ("record", set(getattr(db, table)))
        except Error:
            seen[table] = ("refused",)
    return seen


# A command after the load: a register or a grant of one id.
COMMITS = st.one_of(
    st.tuples(st.just("register"), st.sampled_from(IDS["users"])),
    st.tuples(st.just("grant"), st.sampled_from(IDS["grants"])))


def commit(store, op, key):
    """Load the store, register or grant `key`, and commit."""
    db = load_db(store)
    if op == "register":
        register_user(db, UserRecord(key, UserType.CONSUMER, b"new"))
    else:
        grant_access(db, store, key, OWNER, ["carol"], b"new", secret=1,
                     coeffs=(2, 3))
    persist_db(db, store)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ObjectStore(tmp_path_factory.mktemp("store"))


def block_counts(doc):
    """table -> Counter of the ids its blocks name in a JSON document."""
    return {table: Counter(b.get(key) for b in doc.get(table, [])
                           if isinstance(b, dict))
            for table, key in KEYS.items()}


def check(store, text, before, command):
    """The oracle above for one mutant `text` whose tables held `before`
    blocks per id, with `command` committed after each load."""
    full = lookups(lambda: db_from_json(text.decode("ascii")))
    for sidecar in (hashlib.sha256(text).hexdigest() + "\n", STALE_DIGEST):
        (store.root / POLICY_FILENAME).write_bytes(text)
        (store.root / POLICY_DIGEST_FILENAME).write_text(sidecar)
        loaded = lookups(lambda: load_db(store))
        if loaded is not None and full is not None:
            for where, got in loaded.items():
                if got[0] == full[where][0] == "record":
                    assert got == full[where], where
        try:
            commit(store, *command)
        except Error:
            assert (store.root / POLICY_FILENAME).read_bytes() == text
            continue
        try:
            committed = json.loads(store.read_bytes(POLICY_FILENAME))
        except ValueError:  # a commit spliced around a broken block
            continue
        for table, counts in block_counts(committed).items():
            for block_id, n in counts.items():
                assert n <= max(1, before[table][block_id]), (table, block_id)


@settings(max_examples=MAX_EXAMPLES, derandomize=True, database=None,
          deadline=None)
@given(doc=mutants(), command=COMMITS)
def test_both_loaders_agree_or_refuse_typed(store, doc, command):
    check(store, json.dumps(doc, indent=2).encode("ascii"), block_counts(doc),
          command)


def respelled(doc, table, i):
    """doc's text with block i's id written with its first character as
    \\u00XX, or None if db_to_json escapes that character itself."""
    key, block_id = KEYS[table], doc[table][i][KEYS[table]]
    if not block_id or not " " <= block_id[0] <= "~" or block_id[0] in '"\\':
        return None
    head = f'\n      "{key}": {json.dumps(block_id)}'
    text = json.dumps(doc, indent=2)
    assert text.count(head) == 1
    return text.replace(head, f'\n      "{key}": "\\u{ord(block_id[0]):04x}'
                        + json.dumps(block_id)[2:]).encode("ascii")


@st.composite
def byte_mutants(draw):
    """BASE's text, one block maybe moved to the end of its array, with
    one byte-level change; see the module docstring."""
    doc = copy.deepcopy(BASE)
    table = draw(st.sampled_from(sorted(KEYS)))
    i = draw(st.integers(0, len(doc[table]) - 1))
    if draw(st.booleans()):
        doc[table].append(doc[table].pop(i))
        i = len(doc[table]) - 1
    text = json.dumps(doc, indent=2).encode("ascii")
    byte = bytes([draw(st.integers(0x20, 0x7e))])
    op = draw(st.sampled_from(["overwrite", "delete", "insert", "respell"]))
    if op == "respell":
        forged = respelled(doc, table, i)
        return text if forged is None else forged
    at = draw(st.integers(0, len(text) - 1))
    if op == "overwrite":
        return text[:at] + byte + text[at + 1:]
    if op == "delete":
        return text[:at] + text[at + draw(st.integers(1, 4)):]
    return text[:at] + byte + text[at:]


@settings(max_examples=BYTE_EXAMPLES, derandomize=True, database=None,
          deadline=None)
@given(mutant=byte_mutants(), command=COMMITS)
def test_byte_level_forgeries_agree_or_refuse_typed(store, mutant, command):
    try:
        before = block_counts(json.loads(mutant))
    except ValueError:  # not JSON: one change left one block per id
        before = block_counts(BASE)
    check(store, mutant, before, command)
