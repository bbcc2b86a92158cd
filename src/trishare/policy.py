"""The policy store: policy.json, its digest sidecar and their bytes.

This module alone knows the policy file's name, its sidecar and its
byte layout.  It holds the records the protocol in authz reads and
assigns (UserRecord, FileGrant, PolicyDb), the Blocks that keep them
as edits against the verified bytes, and load_db and persist_db, which
read and commit them through storage.ObjectStore.  The store keeps
policy.json at its root, beside objects/, with the SHA-256 sidecar
policy.json.sha256; a missing or stale sidecar only costs the next
load a full parse of policy.json.

Each mutation loads, edits and commits policy.json, so transaction
holds store.lock(exclusive=True) from load_db to persist_db, and a
shared one for a read; every CLI command on a store runs in one, and
library callers that share a store with other processes use it too.

A command works on the policy bytes themselves once their digest
sidecar verifies them.  Each array, the users and the grants, which
persist_db writes sorted by id, has an index from the moment it is
opened: its ids in order and each block's offset.  A lookup bisects the
ids and parses only the block it finds; a commit splices the assigned
blocks between slices of the untouched ones, streams the pieces to disk
and to SHA-256, and moves the index to match.  The process keeps the
last policy it verified or committed: its pieces, its digest, the
SHA-256 state at every _MARK bytes, and its layout: p's modulus, where
each array starts and each array's index.  One rule reads it for a load
and a commit alike: bytes equal to the kept ones, compared in place,
take its digest and layout unhashed and unscanned, and any others are
hashed on from the mark before their first change, scanned for their
layout and walked for their indexes.  So a commit re-hashes only from
its first edit, and a load of the bytes this process last read or wrote
scans and walks nothing.
"""

from __future__ import annotations

import bisect
import contextlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple, Sequence,
                    Set, Tuple)

from .errors import Error
from .field import FieldModulus, default_modulus, modulus_for
from .sharing import (BindingCode, EncryptedShare, SharePoint, _number, _text,
                      read_json)
from .storage import NotFound, ObjectStore, is_object_key

POLICY_FILENAME = "policy.json"
POLICY_DIGEST_FILENAME = POLICY_FILENAME + ".sha256"


class CorruptPolicy(Error):
    """Stored policy is not UTF-8 JSON in the policy schema."""


class UserType(str, Enum):
    OWNER = "owner"
    CONSUMER = "consumer"
    SERVER = "server"


@dataclass(frozen=True)
class UserRecord:
    """Registered participant; credentials blind that user's shares."""

    user_id: str
    user_type: UserType
    credentials: bytes


@dataclass
class FileGrant:
    """Server-side record of one sealed file; holds no owner point."""

    file_id: str
    owner_id: str
    server_share: SharePoint
    consumer_shares: Dict[str, EncryptedShare]
    binding: BindingCode
    salt: bytes
    envelope_ref: str


class _Index(NamedTuple):
    """One array's blocks in text order: their ids, and the offset of
    each block's start from the array's first (lo)."""

    ids: List[str]
    offsets: List[int]


class Blocks(Mapping):
    """id -> record for one array of the policy, its users or its grants,
    kept as edits against the verified policy; a record is replaced or
    added by assignment, never deleted.

    Each block of the array opens at indent 4 with `key` (the id's JSON
    key and the record's attribute), then the quoted id, then `next_key`.
    A policy loaded through its sidecar keeps its bytes, and text[start:
    end] is the array as db_to_json writes it: its blocks sit in
    text[lo:hi] sorted by id, joined by ",".  Every Blocks holds the
    array's index (its ids in order and each block's offset from lo, see
    _Index) from __init__ on: the one it is given, which a commit carried
    (see load_db), or else the one _walk finds.  The walk steps from seam
    to seam ("," and opener; past the first, a block starts after its
    seam, which only _next_start finds) and decodes each id, so a block
    out of order, repeated, re-spelled, or hidden in another by an opener
    that lost its indent makes the array CorruptPolicy as it is opened.
    Every lookup, membership test and insert goes through one search,
    _span, which bisects the ids and reads no byte.  Only the block a
    lookup returns is parsed, by `parse`, and it is kept, not written
    back.  A record stored becomes an edit against its block's span, and
    a new id's span is empty, at its sorted place.  _spliced gives every
    run of blocks no edit touches as a slice of the text and each edit
    rendered by `render`, with the index moved to match.  A new db and a
    full parse start from b"[]", whose index is empty, where every
    record is such an insert.
    """

    def __init__(self, key: str, next_key: bytes, parse: Callable[[Any], Any],
                 render: Callable[[Any], str], text: bytes, start: int,
                 end: int, index: "_Index | None"):
        self._key, self._next_key = key, next_key
        self._parse, self._render = parse, render
        self._mark = b'\n    {\n      "%s": ' % key.encode("ascii")
        self._seam = b"," + self._mark  # a block starts after its ","
        if end == start + 2 and text.startswith(b"[]", start):
            lo = hi = start
        elif (text.startswith(b"[" + self._mark, start)
              and text.endswith(_ARRAY_END, start, end)):
            lo, hi = start + 1, end - len(_ARRAY_END)
        else:
            raise CorruptPolicy(f"the {key} blocks do not have the layout "
                                "db_to_json writes")
        self._text, self._start, self._lo, self._hi = text, start, lo, hi
        # id -> (start, end, record) for every record read or assigned;
        # _spliced renders only the assigned
        self._records: Dict[str, Tuple[int, int, Any]] = {}
        self._assigned: Set[str] = set()
        self._index = self._walk() if index is None else index

    def __getitem__(self, key: str) -> Any:
        hit = self._records.get(key)
        if hit is not None:
            return hit[2]
        start, end = self._span(key)
        if start == end:
            raise KeyError(key)
        record = read_json(self._text[start:end], self._parse, "policy",
                           CorruptPolicy)
        found = getattr(record, self._key)
        if found != key:
            raise CorruptPolicy(f"the block found for {key!r} is {found!r}'s")
        self._records[key] = (start, end, record)
        return record

    def __setitem__(self, key: str, record: Any) -> None:
        hit = self._records.get(key)
        start, end = hit[:2] if hit is not None else self._span(key)
        self._records[key] = (start, end, record)
        self._assigned.add(key)

    def __contains__(self, key: object) -> bool:
        if not isinstance(key, str):
            return False
        if key in self._records:
            return True
        start, end = self._span(key)
        return start < end

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._records.keys() | self._index.ids))

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def _spliced(self) -> Tuple[List[bytes], _Index]:
        """Every block in id order, for _policy_pieces: each run that no
        edit touches as one slice of the text (its blocks still joined by
        ","), each assigned record rendered anew.  With them, the index
        of the array they make: a block of a run moves with the run, and
        a rendered one starts where it lands."""
        lo, hi, old = self._lo, self._hi, self._index
        text, cursor, ids, offsets = memoryview(self._text), lo, [], []
        items: List[bytes] = []
        pos = 0  # where the next item lands, from the new array's lo
        # An insert sorts before the block whose start it shares; the
        # last entry only ends the run after every edit.
        edits = sorted(self._records[key][:2] + (key,) for key in self._assigned)
        for start, end, key in edits + [(hi, hi, None)]:
            if cursor < start:  # the run before start, less the "," ending it
                stop = start - 1 if start < hi else hi
                items.append(text[cursor:stop])
                first = bisect.bisect_left(old.offsets, cursor - lo)
                past = bisect.bisect_left(old.offsets, stop - lo, first)
                shift = pos - (cursor - lo)
                ids += old.ids[first:past]
                offsets += [at + shift for at in old.offsets[first:past]]
                pos += stop - cursor + 1
            if key is None:
                break
            items.append(self._render(self._records[key][2]).encode("ascii"))
            ids.append(key)
            offsets.append(pos)
            pos += len(items[-1]) + 1
            cursor = start if start == end else min(end + 1, hi)
        return items, _Index(ids, offsets)

    def _span(self, key: str) -> Tuple[int, int]:
        """The text span of key's block, or an empty span where it would
        go: a bisection of the index, which reads no byte."""
        ids, offsets = self._index
        at = bisect.bisect_left(ids, key)
        if at == len(ids):
            return self._hi, self._hi
        start = self._lo + offsets[at]
        if ids[at] != key:
            return start, start
        return start, (self._lo + offsets[at + 1] - 1 if at + 1 < len(ids)
                       else self._hi)

    def _next_start(self, start: int) -> int:
        """Where the block after the one at start begins, or hi: just
        past the next seam, which no block holds."""
        seam = self._text.find(self._seam, start, self._hi)
        return seam + 1 if seam >= 0 else self._hi

    def _walk(self) -> _Index:
        """The array's index, found by a walk from seam to seam that
        decodes each block's id.  CorruptPolicy unless the ids strictly
        increase and the array holds one `next_key` per block, so that
        none hides in another."""
        ids, offsets, start = [], [], self._lo
        while start < self._hi:
            key = self._id_at(start)
            if ids and ids[-1] >= key:
                raise CorruptPolicy(f"the {self._key} block at byte "
                                    f"{start} is out of order")
            ids.append(key)
            offsets.append(start - self._lo)
            start = self._next_start(start)
        if self._text.count(self._next_key, self._lo, self._hi) != len(ids):
            raise CorruptPolicy(f"a {self._key} block hides in another")
        return _Index(ids, offsets)

    def _id_at(self, start: int) -> str:
        """The JSON string at the head of the block at start, or CorruptPolicy."""
        at = start + len(self._mark)
        stop = self._text.find(self._next_key, at, self._hi)
        quoted = self._text[at:stop] if stop >= 0 else b""
        if (quoted[:1] == b'"' == quoted[-1:] and quoted.count(b'"') == 2
                and b"\\" not in quoted):
            # A JSON string with no escape is its text between quotes.
            return quoted[1:-1].decode("ascii")
        return read_json(quoted, _text, f"the {self._key} of the block at "
                         f"byte {start}", CorruptPolicy)


@dataclass
class PolicyDb:
    """User table plus per-file grants, all under one modulus.  Both start
    empty and are filled by assignment (register_user, grant_access)."""

    modulus: FieldModulus = field(default_factory=default_modulus)
    users: Blocks = field(init=False)
    grants: Blocks = field(init=False)

    def __post_init__(self) -> None:
        self.users = _user_blocks()
        self.grants = _grant_blocks(self.modulus)


# ---------------------------------------------------------------------------
# Persistence: PolicyDb <-> JSON
# ---------------------------------------------------------------------------

# Each block is json.dumps of its record's doc nested at depth 2, so the
# policy is json.dumps(doc, indent=2) of the whole document.
def _block(doc: dict) -> str:
    return "\n    " + json.dumps(doc, indent=2).replace("\n", "\n    ")


def _user_json(u: UserRecord) -> str:
    return _block({"user_id": u.user_id, "user_type": u.user_type.value,
                   "credentials_hex": u.credentials.hex()})


def _grant_json(g: FileGrant) -> str:
    consumers = {uid: rec._asdict() for uid, rec in sorted(g.consumer_shares.items())}
    return _block({"file_id": g.file_id, "owner_id": g.owner_id,
                   "server_share": {"x": g.server_share.x, "y": g.server_share.y},
                   "consumers": consumers, "kc": g.binding.kc,
                   "x_kc": g.binding.x_kc, "salt_hex": g.salt.hex(),
                   "envelope_ref": g.envelope_ref})


# A file db_to_json wrote is cut at these seams.  A JSON string
# holds no raw newline, and only a user or a grant opens a block at
# indent 4, so each seam marks the same place in every such file.
_USERS_KEY = b',\n  "users": '
_GRANTS_KEY = b',\n  "grants": '
_ARRAY_END = b'\n  ]'


class _Layout(NamedTuple):
    """Where bytes db_to_json wrote keep their arrays: p's modulus, where
    the users and the grants array start (at their "["), and each array's
    index.  _sliced_db finds the first three, and leaves the indexes None
    for the walk of each array as _db_at opens it."""

    modulus: FieldModulus
    users_at: int
    grants_at: int
    users: "_Index | None" = None
    grants: "_Index | None" = None


def _user_blocks(text: bytes = b"[]", start: int = 0, end: int = 2,
                 index: "_Index | None" = None) -> Blocks:
    """The users array at text[start:end], or an empty one."""
    return Blocks("user_id", b',\n      "user_type": ', _user_from_doc,
                  _user_json, text, start, end, index)


def _grant_blocks(modulus: "FieldModulus | None", text: bytes = b"[]",
                  start: int = 0, end: int = 2,
                  index: "_Index | None" = None) -> Blocks:
    """The grants array at text[start:end], or an empty one."""
    return Blocks("file_id", b',\n      "owner_id": ',
                  partial(_grant_from_doc, modulus=modulus), _grant_json,
                  text, start, end, index)


def _policy_pieces(db: PolicyDb) -> Tuple[List[bytes], _Layout]:
    """The policy text in pieces, which persist_db streams and whose join
    db_to_json returns: the rendered head, then the user and the grant
    blocks as Blocks._spliced gives them, with brackets and commas.  With
    them, the layout of that text and the index of each array that
    _spliced gives."""
    pieces = [f'{{\n  "p": {db.modulus.p}'.encode("ascii")]
    starts, indexes = [], []
    for key, blocks in ((_USERS_KEY, db.users), (_GRANTS_KEY, db.grants)):
        starts.append(sum(map(len, pieces)) + len(key))
        items, index = blocks._spliced()
        indexes.append(index)
        if not items:
            pieces.append(key + b"[]")
            continue
        pieces.append(key + b"[")
        for item in items:
            pieces += (item, b",")
        pieces[-1] = _ARRAY_END
    pieces.append(b"\n}")
    return pieces, _Layout(db.modulus, *starts, *indexes)


def db_to_json(db: PolicyDb) -> str:
    """Serialize to the documented policy schema (stable key order)."""
    return b"".join(_policy_pieces(db)[0]).decode("ascii")


def _sliced_db(data: bytes) -> PolicyDb:
    """PolicyDb over bytes db_to_json wrote, whose layout is found by a
    scan of them and a walk of each array: p is parsed now, each user
    and grant block only when first read (see Blocks)."""
    users = data.find(_USERS_KEY)
    grants = data.find(_GRANTS_KEY)
    if not (0 <= users < grants and data.isascii() and data.endswith(b"\n}")):
        raise CorruptPolicy("policy does not have the layout db_to_json writes")
    modulus = read_json(data[:users] + b"}",
                        lambda doc: modulus_for(_number(doc["p"])),
                        "policy", CorruptPolicy)
    return _db_at(data, _Layout(modulus, users + len(_USERS_KEY),
                                grants + len(_GRANTS_KEY)))


def _db_at(data: bytes, layout: _Layout) -> PolicyDb:
    """PolicyDb over bytes db_to_json wrote, at their known layout; an
    array with no index in it is walked as it is opened."""
    db = PolicyDb.__new__(PolicyDb)  # with these arrays, not empty ones
    db.modulus = layout.modulus
    db.users = _user_blocks(data, layout.users_at,
                            layout.grants_at - len(_GRANTS_KEY), layout.users)
    db.grants = _grant_blocks(layout.modulus, data, layout.grants_at,
                              len(data) - 2, layout.grants)
    return db


def db_from_json(text: "str | bytes") -> PolicyDb:
    """Inverse of db_to_json; the modulus profile is inferred from p.

    Raises CorruptPolicy when the text (or bytes, as UTF-8) is not JSON
    or does not follow the schema (missing keys, wrong types or values).
    """
    return read_json(text, _db_from_doc, "policy", CorruptPolicy)


def _hex(doc: dict, key: str) -> bytes:
    """doc[key], a bytes field of the schema, in the lower-case, unspaced
    hex that db_to_json writes; ValueError for any other spelling, naming
    the field, never its value (a credential or a salt)."""
    value = _text(doc[key])
    raw = bytes.fromhex(value)
    if raw.hex() != value:
        raise ValueError(f"{key} is not lower-case, unspaced hex")
    return raw


def _db_from_doc(doc: dict) -> PolicyDb:
    modulus = modulus_for(_number(doc["p"]))
    db = PolicyDb(modulus=modulus)
    for blocks, docs in ((db.users, doc["users"]), (db.grants, doc["grants"])):
        for record in map(blocks._parse, docs):
            key = getattr(record, blocks._key)
            if key in blocks:  # the sliced load would read only one of them
                raise ValueError(f"{blocks._key} {key!r} appears twice")
            blocks[key] = record
    return db


def _user_from_doc(u: dict) -> UserRecord:
    return UserRecord(user_id=_text(u["user_id"]),
                      user_type=UserType(u["user_type"]),
                      credentials=_hex(u, "credentials_hex"))


def _grant_from_doc(g: dict, modulus: FieldModulus) -> FileGrant:
    read_share = EncryptedShare.from_dict
    file_id, ref = _text(g["file_id"]), _text(g["envelope_ref"])
    if not is_object_key(ref):  # a path such as "../x" would leave the store
        raise ValueError(f"grant {file_id!r} has envelope_ref {ref!r}, "
                         "not an object key")
    binding = BindingCode(kc=_number(g["kc"]), x_kc=_number(g["x_kc"]))
    consumers = {uid: read_share(rec) for uid, rec in g["consumers"].items()}
    # Each record repeats its grant's file id, p and binding code.
    copies = (file_id, modulus.p, binding.kc, binding.x_kc)
    for uid, rec in consumers.items():
        if (rec.file_id, rec.p, rec.kc, rec.x_kc) != copies:
            raise ValueError(f"grant {file_id!r} holds a record for {uid!r} "
                             "that does not repeat its file id, p and binding")
    return FileGrant(
        file_id=file_id,
        owner_id=_text(g["owner_id"]),
        server_share=SharePoint(x=_number(g["server_share"]["x"]),
                                y=_number(g["server_share"]["y"]),
                                modulus=modulus),
        consumer_shares=consumers, binding=binding,
        salt=_hex(g, "salt_hex"),
        envelope_ref=ref)


#: The bytes between two kept SHA-256 states: a hash _recall resumes
#: re-hashes at most this much before the first change.
_MARK = 16 * 1024


def _digest(pieces: Sequence[bytes], marks: List[Any]) -> bytes:
    """The policy sidecar's content: SHA-256 hex of the policy bytes.

    marks holds the SHA-256 states after the first 1, 2, .. len(marks)
    _MARK-byte steps of those bytes: hashing resumes from the last of
    them, or from byte 0, and appends the state after each later whole
    step."""
    # Imported here for ROADMAP item 3: `secrets` still loads hashlib
    # through hmac, but once os.urandom replaces it, commands that touch
    # no policy will not load hashlib.
    import hashlib
    sha = marks[-1].copy() if marks else hashlib.sha256()
    done = len(marks) * _MARK
    end = 0  # where the piece ends in the bytes; done of them are hashed
    for piece in pieces:
        end += len(piece)
        if end <= done:
            continue
        view = memoryview(piece)[len(piece) - (end - done):]
        while done // _MARK < end // _MARK:
            step = _MARK - done % _MARK
            sha.update(view[:step])
            view, done = view[step:], done + step
            marks.append(sha.copy())
        sha.update(view)
        done = end
    return sha.hexdigest().encode("ascii") + b"\n"


class _Kept(NamedTuple):
    """One policy's bytes as pieces, with what is true of them wherever
    they are read: their digest line, their SHA-256 marks (see _digest),
    and their layout: p's modulus, where each array starts and each
    array's index (see _Layout).  _recall gives it for the bytes a load
    read or a commit wrote: the kept one for equal bytes, else a new one,
    whose layout is None until load_db finds it or persist_db gives it."""

    pieces: Sequence[bytes]
    digest: bytes
    marks: List[Any]
    layout: "_Layout | None"


#: The last policy this process verified or committed, or None.  For
#: load_db and persist_db alike, _recall takes its digest and layout for
#: bytes equal to its pieces, and resumes SHA-256 from its marks for any
#: others.  Such a record is never stale, only unused.
_kept: "_Kept | None" = None


def _prefix(text: bytes, pieces: Sequence[bytes]) -> int:
    """How many leading bytes of text the pieces repeat: their lengths
    summed up to the first that differs from text where it lies in it,
    each compared in place, with no copy."""
    pos = 0
    for piece in pieces:
        if not text.startswith(piece, pos):
            break
        pos += len(piece)
    return pos


def _recall(pieces: Sequence[bytes]) -> _Kept:
    """The kept record, if the join of pieces is its bytes, found with
    no hash; else a record of pieces with their digest, the marks that
    hash passed and no layout.  The hash resumes from the last kept mark
    before the first piece that differs, found by _prefix in place where
    either side is one piece; where neither is, it starts at byte 0."""
    kept, marks = _kept, []
    if kept is not None:
        same = (_prefix(kept.pieces[0], pieces) if len(kept.pieces) == 1
                else _prefix(pieces[0], kept.pieces) if len(pieces) == 1
                else 0)
        if same == sum(map(len, pieces)) == sum(map(len, kept.pieces)):
            return kept
        marks = kept.marks[:same // _MARK]
    return _Kept(pieces, _digest(pieces, marks), marks, None)


def persist_db(db: PolicyDb, store: ObjectStore) -> None:
    """Commit policy.json and its digest sidecar, the same for every
    command: the policy's temp file is fsynced, the sidecar overwritten
    in place (not fsynced), the policy renamed and the store root fsynced
    once.  A failure before the rename leaves policy.json as it was.
    The sidecar is only a cache: a crash may leave it stale, torn or one
    commit ahead, and load_db then takes the full parse.

    The policy is spliced, not rebuilt: its pieces (see _policy_pieces)
    are streamed into the file and hashed as they are, with no copy of
    the whole text.  Their digest is _recall's, as a load's is: SHA-256
    resumes from the kept mark before the first edit.  The kept record
    becomes these bytes, with the layout _policy_pieces gives: each
    array's index is carried forward, as Blocks._spliced moves its
    offsets and adds the inserted ids."""
    global _kept
    pieces, layout = _policy_pieces(db)
    kept = _recall(pieces)
    store.write_text(POLICY_FILENAME, pieces,
                     cache=(POLICY_DIGEST_FILENAME, kept.digest))
    _kept = kept._replace(layout=layout)


def load_db(store: ObjectStore) -> PolicyDb:
    """Load policy.json from the store root; CorruptPolicy if unreadable.

    The file and its sidecar are read on every call, the file once, as
    bytes.  When the sidecar holds their digest, persist_db wrote them,
    and they become the db's working copy (see Blocks); a missing or
    stale sidecar only costs a full parse.  The digest is _recall's, as
    a commit's is: bytes equal to the policy this process last verified
    or committed take its kept digest instead of a SHA-256 (equal bytes
    have equal digests, so every load decides as if it had hashed them)
    and take the db from its layout, indexes included, with no scan or
    walk of the bytes.  Others, such as another writer's commit, are
    hashed on from the kept mark before their first change, and
    _sliced_db scans them for their layout and walks each array for its
    index; that layout is kept, so a second load of them walks nothing.
    A layout the walk refuses is CorruptPolicy here, for every command.
    """
    global _kept
    data = store.read_bytes(POLICY_FILENAME)
    try:
        sidecar = store.read_bytes(POLICY_DIGEST_FILENAME)
    except Error:  # absent or unreadable: it is only a cache
        sidecar = b""
    kept = _recall([data])
    if sidecar != kept.digest:
        return db_from_json(data)
    if kept.layout is None:
        db = _sliced_db(data)
        kept = kept._replace(layout=_Layout(
            db.modulus, db.users._start, db.grants._start, db.users._index,
            db.grants._index))
    else:
        db = _db_at(data, kept.layout)
    _kept = kept._replace(pieces=[data])
    return db


@contextlib.contextmanager
def transaction(store: ObjectStore, exclusive: bool = True,
                modulus: "FieldModulus | None" = None) -> Iterator[PolicyDb]:
    """Yield the store's policy under store.lock(exclusive), held from
    load_db until an exclusive transaction's persist_db on a clean exit.
    An exception out of the block writes nothing, and a shared
    transaction never commits.  A missing root or policy is NotFound,
    unless `modulus` is given: then the root is created first, so that
    there is one to lock, and a store with no policy starts from an empty
    PolicyDb(modulus)."""
    if modulus is not None:
        store.create_root()
    with store.lock(exclusive):
        try:
            db = load_db(store)
        except NotFound:
            if modulus is None:
                raise
            db = PolicyDb(modulus=modulus)
        yield db
        if exclusive:
            persist_db(db, store)
