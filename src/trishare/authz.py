"""Four-participant authorization: owner, consumers, server, store.

A grant splits a fresh file secret a0 across three roles with a
degree-2 polynomial (threshold k = 3): the organization server keeps
one point, the data owner walks away with one that is never persisted,
and each consumer receives one blinded by their credentials.  A request
therefore needs server + owner + receiver to cooperate; any other
combination of three points fails the role check, which reads only the
fixed x slots of the owner and the receiver, or the binding check.
The store's files alone still open every file: policy.json holds what
derives a1 and a2, and with the server point they give a0.

Revocation re-randomizes the polynomial around the same a0 by re-salting
the attribute-derived coefficients.  Because share blinding is additive,
remaining consumers' records are refreshed without ever decrypting them,
and the owner refreshes their own point from the returned coefficient
deltas - the server never learns it.

Each mutation loads, edits and commits policy.json, so the CLI holds
store.lock(exclusive=True) from load_db to persist_db, and a request a
shared one; library callers that mutate one store concurrently do too.

A command works on the policy bytes themselves once their digest
sidecar verifies them: a lookup is a binary search over the user or
grant blocks, which db_to_json writes sorted by id, and parses only the
block it finds; a commit splices the assigned blocks between slices of
the untouched ones and streams the pieces to disk and to SHA-256.
The process keeps the pieces of the last policy it verified or
committed, with their digest, so a load that reads those same bytes
again compares them in place instead of hashing them.
"""

from __future__ import annotations

import json
import os
import secrets as _secrets
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Sequence, Set, Tuple

from .cipher import Mode, derive_file_key, open_file, seal_file
from .errors import Error
from .field import (FieldModulus, InvalidPolynomial, SecretPolynomial,
                    default_modulus, modulus_for, poly_eval)
from .interpolate import ReconstructionInput, reconstruct_polynomial, verify_binding
from .sharing import (BindingCode, EncryptedShare, SharePoint, _number, _text,
                      binding_code, decrypt_share, derive_attribute_tokens,
                      encrypt_share, read_json, split_secret)
from .storage import (POLICY_DIGEST_FILENAME, POLICY_FILENAME, ObjectStore,
                      decode_envelope, envelope_pieces, is_object_key,
                      object_key)
# Unused here, but perfbench/tracing.py wraps it in this namespace.
from .storage import encode_envelope  # noqa: F401

#: Reconstruction threshold: server + owner + receiver.
THRESHOLD = 3

#: x-slot convention.  The owner's slot is never stored.
SERVER_X = 1
OWNER_X = 2
FIRST_CONSUMER_X = 3


class DuplicateUser(Error):
    """User id already registered (or repeated in a consumer list)."""


class UnknownUser(Error):
    """User id absent from the user table."""


class UnknownOwner(Error):
    """Granting user is not a registered owner."""


class NoConsumers(Error):
    """A grant needs at least one consumer."""


class UnknownFile(Error):
    """No grant recorded for that file id."""


class NotGranted(Error):
    """Receiver holds no share for that file."""


class BindingMismatch(Error):
    """Reconstructed polynomial fails the file's binding check."""


class InsufficientPoints(Error):
    """Fewer than the three role points were supplied."""


class RoleMismatch(Error):
    """A presented point sits in another role's x slot."""


class InvalidFileId(Error):
    """File id is not encodable as UTF-8 (it holds a lone surrogate)."""


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


class Blocks(Mapping):
    """id -> record for one array of the policy, its users or its grants,
    kept as edits against the verified policy; a record is replaced or
    added by assignment, never deleted.

    Each block of the array opens at indent 4 with `key` (the id's JSON
    key and the record's attribute), then the quoted id, then `next_key`.
    A policy loaded through its sidecar keeps its bytes, and text[start:
    end] is the array as db_to_json writes it: its blocks sit in
    text[lo:hi] sorted by id, joined by ",".  Every lookup, membership
    test and insert goes through one search, _span: a binary search over
    byte offsets, where each probe takes the block that starts nearest
    the middle and decodes only its quoted id.  Past the first, a block
    starts after its seam ("," and opener), which only _next_start finds.
    A miss is checked by _ids, one walk from seam to seam, done once: a
    block out of order, re-spelled, or hidden in another by an opener
    that lost its indent is CorruptPolicy, never absent.
    Only the block a lookup returns is parsed, by `parse`, and it is
    kept, not written back.  A record stored becomes an edit against its
    block's span, and a new id's span is empty, at its sorted place.
    _spliced gives every run of blocks no edit touches as a slice of the
    text and each edit rendered by `render`.  A new db and a full parse
    start from b"[]", where every record is such an insert.
    """

    def __init__(self, key: str, next_key: bytes, parse: Callable[[Any], Any],
                 render: Callable[[Any], str], text: bytes, start: int,
                 end: int):
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
        self._text, self._lo, self._hi = text, lo, hi
        # id -> (start, end, record) for every record read or assigned;
        # _spliced renders only the assigned
        self._records: Dict[str, Tuple[int, int, Any]] = {}
        self._assigned: Set[str] = set()
        self._walked: "List[str] | None" = None  # _ids, once it has passed

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
        return iter(sorted(self._records.keys() | self._ids()))

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def _spliced(self) -> List[bytes]:
        """Every block in id order, for _policy_pieces: each run that no
        edit touches as one slice of the text (its blocks still joined by
        ","), each assigned record rendered anew."""
        text, cursor, hi = memoryview(self._text), self._lo, self._hi
        items = []
        # An insert sorts before the block whose start it shares.
        edits = sorted(self._records[key][:2] + (key,) for key in self._assigned)
        for start, end, key in edits:
            if cursor < start:  # the run before start, less the "," ending it
                items.append(text[cursor:start - 1 if start < hi else hi])
            items.append(self._render(self._records[key][2]).encode("ascii"))
            cursor = start if start == end else min(end + 1, hi)
        if cursor < hi:
            items.append(text[cursor:hi])
        return items

    def _span(self, key: str) -> Tuple[int, int]:
        """The text span of key's block, or an empty span where it would
        go.  CorruptPolicy if the next block repeats the id or sorts
        before it, or if the search misses a block that holds the id out
        of order, re-spelled or hidden, which an insert would repeat."""
        hi = self._hi
        # The block just before a holds a smaller id, and b_id is the id
        # of the block at b, not smaller; a and b are block starts or hi.
        a, b, b_id = self._lo, hi, None
        while a < b:
            probe = self._next_start((a + b) // 2)
            if probe >= b:
                probe = a
            probe_id = self._id_at(probe)
            if probe_id < key:
                a = self._next_start(probe + 1)
            else:
                b, b_id = probe, probe_id
        if b_id != key:
            self._ids()
            return a, a
        after = self._next_start(a + 1)
        if after < hi and self._id_at(after) <= key:
            raise CorruptPolicy(f"the blocks after {key!r} are not in "
                                f"{self._key} order")
        return a, after - 1 if after < hi else hi

    def _next_start(self, pos: int) -> int:
        """The first block start at or after pos, or hi; every caller
        passes a pos past lo (a probe's midpoint or a block start + 1)."""
        seam = self._text.find(self._seam, pos - 1, self._hi)
        return seam + 1 if seam >= 0 else self._hi

    def _ids(self) -> List[str]:
        """Every block's id, in text order, found once and kept; the walk
        steps from seam to seam, as the search does.  CorruptPolicy unless
        the ids strictly increase and the array holds one `next_key` per
        block, so that none hides in another."""
        if self._walked is None:
            ids, start = [], self._lo
            while start < self._hi:
                key = self._id_at(start)
                if ids and ids[-1] >= key:
                    raise CorruptPolicy(f"the {self._key} block at byte "
                                        f"{start} is out of order")
                ids.append(key)
                start = self._next_start(start + 1)
            if self._text.count(self._next_key, self._lo, self._hi) != len(ids):
                raise CorruptPolicy(f"a {self._key} block hides in another")
            self._walked = ids
        return self._walked

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


def register_user(db: PolicyDb, record: UserRecord) -> None:
    """Add a user at its sorted place; the rest of the db is untouched."""
    if record.user_id in db.users:
        raise DuplicateUser(f"user {record.user_id!r} already registered")
    db.users[record.user_id] = record


def _file_id_bytes(file_id: str) -> bytes:
    """The UTF-8 bytes that key and bind a file; InvalidFileId for an id
    that holds a lone surrogate."""
    try:
        return file_id.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidFileId(f"file id {file_id!r} is not UTF-8 text") from exc


def _owner_attributes(owner: UserRecord) -> List[bytes]:
    # One attribute per coefficient a1, a2, from the owner's credentials.
    return [owner.credentials + bytes([i]) for i in range(1, THRESHOLD)]


def grant_access(db: PolicyDb, store: ObjectStore, file_id: str,
                 owner_id: str, consumer_ids: Sequence[str],
                 data: bytes, *,
                 mode: Mode = Mode.ADDITIVE, n: int = 1,
                 secret: "int | None" = None,
                 coeffs: "Sequence[int] | None" = None) -> SharePoint:
    """Seal `data` under a fresh secret and split it across the roles.

    The owner and every consumer are looked up in db.users, and each
    consumer's share is blinded with the credentials registered there.
    The server takes x = SERVER_X, the owner OWNER_X and the consumers
    FIRST_CONSUMER_X onwards, in the order given: split_secret's x = 1,
    2, 3, ... in that order.  The envelope goes to
    `store` and the grant into db.grants; the owner share is returned
    and never stored anywhere, so losing it means the file can only be
    re-granted, not decrypted.  Granting an already-granted file_id
    replaces the previous grant.

    `secret` and `coeffs` pin the polynomial for a reproducible grant;
    left unset, both are fresh.
    """
    file_id_bytes = _file_id_bytes(file_id)
    p = db.modulus.p
    owner = db.users.get(owner_id)
    if owner is None or owner.user_type != UserType.OWNER:
        raise UnknownOwner(f"{owner_id!r} is not a registered owner")
    if len(consumer_ids) == 0:
        raise NoConsumers("a grant needs at least one consumer")
    consumers: Dict[str, UserRecord] = {}
    for cid in consumer_ids:
        consumer = db.users.get(cid)
        if consumer is None:
            raise UnknownUser(f"consumer {cid!r} is not registered")
        if cid in consumers:
            raise DuplicateUser(f"consumer {cid!r} listed twice")
        consumers[cid] = consumer

    if secret is None:
        secret = _secrets.randbelow(p)
    salt = os.urandom(16)
    if coeffs is None:
        coeffs = derive_attribute_tokens(_owner_attributes(owner), salt,
                                         db.modulus)

    server_point, owner_point, *consumer_points = split_secret(
        secret, coeffs, len(consumers) + 2, db.modulus)
    poly = SecretPolynomial((secret, *coeffs), db.modulus)
    binding = binding_code(poly, file_id_bytes)

    key = derive_file_key(secret, file_id_bytes, mode=mode, n=n)
    envelope = seal_file(data, key)
    ref = object_key(file_id)

    consumer_records = {
        cid: encrypt_share(point, consumer.credentials, file_id, binding)
        for (cid, consumer), point in zip(consumers.items(), consumer_points)
    }
    # Assigned first: a grant the policy refuses leaves the store as it was.
    db.grants[file_id] = FileGrant(
        file_id=file_id,
        owner_id=owner_id,
        server_share=server_point,
        consumer_shares=consumer_records,
        binding=binding,
        salt=salt,
        envelope_ref=ref,
    )
    store.put_object(ref, envelope_pieces(envelope))
    return owner_point


def request_decrypt(db: PolicyDb, store: ObjectStore, file_id: str,
                    owner_point: "SharePoint | None", receiver: UserRecord,
                    receiver_share_record: "EncryptedShare | None" = None) -> bytes:
    """Reconstruct the secret from the three role points and open the file.

    The receiver may present their share record explicitly (the normal
    hand-over flow); otherwise it is looked up in the grant, and absence
    means NotGranted.  Roles are checked by slot: RoleMismatch unless the
    owner point sits at OWNER_X and the receiver's at FIRST_CONSUMER_X
    or above.  A presented record is not checked for membership: stale
    or forged records reach reconstruction and die on the binding check.
    """
    file_id_bytes = _file_id_bytes(file_id)
    grant = db.grants.get(file_id)
    if grant is None:
        raise UnknownFile(f"no grant for {file_id!r}")
    if receiver.user_id not in db.users:
        raise UnknownUser(f"receiver {receiver.user_id!r} is not registered")
    if owner_point is None:
        raise InsufficientPoints("owner point missing; need server+owner+receiver")

    record = receiver_share_record
    if record is None:
        record = grant.consumer_shares.get(receiver.user_id)
        if record is None:
            raise NotGranted(f"{receiver.user_id!r} holds no share for {file_id!r}")
    receiver_point = decrypt_share(record, receiver.credentials)

    # A point outside its role's slot is a role violation, not a math error.
    if owner_point.x != OWNER_X or receiver_point.x < FIRST_CONSUMER_X:
        raise RoleMismatch(f"owner x={owner_point.x}, receiver "
                           f"x={receiver_point.x}: not the role slots")

    inp = ReconstructionInput((grant.server_share, owner_point, receiver_point))
    try:
        poly = reconstruct_polynomial(inp)
    except InvalidPolynomial as exc:
        raise BindingMismatch(f"degenerate reconstruction: {exc}") from exc
    if not verify_binding(poly, grant.binding, file_id_bytes):
        raise BindingMismatch(f"reconstructed polynomial fails binding for {file_id!r}")

    secret = poly.coeffs[0]
    envelope = decode_envelope(store.get_object(grant.envelope_ref))
    key = derive_file_key(secret, file_id_bytes, mode=envelope.mode, n=envelope.n)
    return open_file(envelope, key)


def revoke_user(db: PolicyDb, file_id: str, user_id: str) -> Tuple[int, ...]:
    """Remove a consumer and re-randomize every remaining share.

    Re-salts the attribute-derived coefficients and shifts the whole
    polynomial by delta(X) = F_new - F_old, which has delta(0) = 0: the
    secret and the sealed envelope are untouched, but every old share
    point falls off the new polynomial (guaranteed, not just probable:
    salts are resampled until delta is nonzero at every issued x).
    Only the difference of the two salts' tokens matters, so a grant
    made with pinned coefficients is revoked the same way.

    The grant is replaced in db; the return value is the coefficient
    differences (delta_1, ..., delta_{k-1}), which the owner applies to
    their own never-stored point via update_owner_share.
    """
    grant = db.grants.get(file_id)
    if grant is None:
        raise UnknownFile(f"no grant for {file_id!r}")
    if user_id not in grant.consumer_shares:
        raise NotGranted(f"{user_id!r} holds no share for {file_id!r}")
    owner = db.users.get(grant.owner_id)
    if owner is None:
        raise UnknownOwner(f"owner {grant.owner_id!r} missing from user table")

    p = db.modulus.p
    attrs = _owner_attributes(owner)
    old_tokens = derive_attribute_tokens(attrs, grant.salt, db.modulus)

    # Every x that ever held a share must move off the old polynomial.
    issued_xs = {rec.x for rec in grant.consumer_shares.values()}
    issued_xs.add(grant.server_share.x)

    while True:
        new_salt = os.urandom(16)
        new_tokens = derive_attribute_tokens(attrs, new_salt, db.modulus)
        deltas = tuple((nc - oc) % p for nc, oc in zip(new_tokens, old_tokens))
        if any(_delta_at(deltas, x, p) == 0 for x in issued_xs):
            continue
        break

    del grant.consumer_shares[user_id]

    shift = lambda x: _delta_at(deltas, x, p)  # noqa: E731
    grant.server_share = update_owner_share(grant.server_share, deltas)
    new_kc = (grant.binding.kc + shift(grant.binding.x_kc)) % p
    grant.binding = BindingCode(kc=new_kc, x_kc=grant.binding.x_kc)
    # Additive blinding commutes with the shift: adjusting y_enc re-issues
    # the share under the same credentials without decrypting it.
    for uid, rec in list(grant.consumer_shares.items()):
        grant.consumer_shares[uid] = rec._replace(
            y_enc=(rec.y_enc + shift(rec.x)) % p, kc=new_kc)
    grant.salt = new_salt
    db.grants[file_id] = grant
    return deltas


def _delta_at(deltas: Sequence[int], x: int, p: int) -> int:
    """delta_1 * x + delta_2 * x^2 + ... mod p (no constant term)."""
    return poly_eval((0, *deltas), x, p)


def update_owner_share(point: SharePoint, deltas: Sequence[int]) -> SharePoint:
    """Move a share point onto the post-revocation polynomial: the owner
    applies it to their own point, revoke_user to the server's."""
    p = point.modulus.p
    return SharePoint(x=point.x, y=(point.y + _delta_at(deltas, point.x, p)) % p,
                      modulus=point.modulus)


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


def _user_blocks(text: bytes = b"[]", start: int = 0, end: int = 2) -> Blocks:
    """The users array at text[start:end], or an empty one."""
    return Blocks("user_id", b',\n      "user_type": ', _user_from_doc,
                  _user_json, text, start, end)


def _grant_blocks(modulus: "FieldModulus | None", text: bytes = b"[]",
                  start: int = 0, end: int = 2) -> Blocks:
    """The grants array at text[start:end], or an empty one."""
    return Blocks("file_id", b',\n      "owner_id": ',
                  partial(_grant_from_doc, modulus=modulus), _grant_json,
                  text, start, end)


def _policy_pieces(db: PolicyDb) -> List[bytes]:
    """The policy text in pieces, which persist_db streams and whose join
    db_to_json returns: the rendered head, then the user and the grant
    blocks as Blocks._spliced gives them, with brackets and commas."""
    pieces = [f'{{\n  "p": {db.modulus.p}'.encode("ascii")]
    for key, blocks in ((_USERS_KEY, db.users), (_GRANTS_KEY, db.grants)):
        items = blocks._spliced()
        if not items:
            pieces.append(key + b"[]")
            continue
        pieces.append(key + b"[")
        for item in items:
            pieces += (item, b",")
        pieces[-1] = _ARRAY_END
    pieces.append(b"\n}")
    return pieces


def db_to_json(db: PolicyDb) -> str:
    """Serialize to the documented policy schema (stable key order)."""
    return b"".join(_policy_pieces(db)).decode("ascii")


def _sliced_db(data: bytes) -> PolicyDb:
    """PolicyDb over bytes db_to_json wrote: p is parsed now, each user
    and grant block only when first read (see Blocks)."""
    users = data.find(_USERS_KEY)
    grants = data.find(_GRANTS_KEY)
    if not (0 <= users < grants and data.isascii() and data.endswith(b"\n}")):
        raise CorruptPolicy("policy does not have the layout db_to_json writes")
    db = PolicyDb(read_json(data[:users] + b"}",
                            lambda doc: modulus_for(_number(doc["p"])),
                            "policy", CorruptPolicy))
    db.users = _user_blocks(data, users + len(_USERS_KEY), grants)
    db.grants = _grant_blocks(db.modulus, data, grants + len(_GRANTS_KEY),
                              len(data) - 2)
    return db


def db_from_json(text: "str | bytes") -> PolicyDb:
    """Inverse of db_to_json; the modulus profile is inferred from p.

    Raises CorruptPolicy when the text (or bytes, as UTF-8) is not JSON
    or does not follow the schema (missing keys, wrong types or values).
    """
    return read_json(text, _db_from_doc, "policy", CorruptPolicy)


def _hex(value) -> bytes:
    """A bytes field of the schema, in the lower-case, unspaced hex that
    db_to_json writes; ValueError for any other spelling."""
    raw = bytes.fromhex(_text(value))
    if raw.hex() != value:
        raise ValueError(f"{value!r} is not lower-case, unspaced hex")
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
                      credentials=_hex(u["credentials_hex"]))


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
        salt=_hex(g["salt_hex"]),
        envelope_ref=ref)


def _digest(pieces: Sequence[bytes]) -> bytes:
    """The policy sidecar's content: SHA-256 hex of the policy bytes."""
    # Imported here for ROADMAP item 3: `secrets` still loads hashlib
    # through hmac, but once os.urandom replaces it, commands that touch
    # no policy will not load hashlib.
    import hashlib
    sha = hashlib.sha256()
    for piece in pieces:
        sha.update(piece)
    return sha.hexdigest().encode("ascii") + b"\n"


#: (pieces, the digest line of their join) for the last policy this
#: process verified or committed, or None: load_db skips the SHA-256 of
#: bytes equal to those pieces.  Such a pair is true of the bytes it
#: names wherever they are read, so it is never stale, only unused.
_kept: "Tuple[Sequence[bytes], bytes] | None" = None


def _kept_digest(data: bytes) -> "bytes | None":
    """The kept digest line if data is the join of the kept pieces, each
    compared where it lies in data, with no copy; else None."""
    kept = _kept
    if kept is None:
        return None
    pos = 0
    for piece in kept[0]:
        if not data.startswith(piece, pos):
            return None
        pos += len(piece)
    return kept[1] if pos == len(data) else None


def persist_db(db: PolicyDb, store: ObjectStore) -> None:
    """Commit policy.json and its digest sidecar, the same for every
    command: the policy's temp file is fsynced, the sidecar overwritten
    in place (not fsynced), the policy renamed and the store root fsynced
    once.  A failure before the rename leaves policy.json as it was.
    The sidecar is only a cache: a crash may leave it stale, torn or one
    commit ahead, and load_db then takes the full parse.

    The policy is spliced, not rebuilt: its pieces (see _policy_pieces)
    are streamed into the file and hashed as they are, with no copy of
    the whole text."""
    global _kept
    pieces = _policy_pieces(db)
    digest = _digest(pieces)
    store.write_text(POLICY_FILENAME, pieces,
                     cache=(POLICY_DIGEST_FILENAME, digest))
    _kept = (pieces, digest)


def load_db(store: ObjectStore) -> PolicyDb:
    """Load policy.json from the store root; CorruptPolicy if unreadable.

    The file and its sidecar are read on every call, the file once, as
    bytes.  When the sidecar holds their digest, persist_db wrote them,
    and they become the db's working copy (see Blocks); a missing or
    stale sidecar only costs a full parse.  Bytes equal to the policy
    this process last verified or committed take its kept digest
    instead of a SHA-256: equal bytes have equal digests, so every load
    decides as if it had hashed them.
    """
    global _kept
    data = store.read_bytes(POLICY_FILENAME)
    try:
        sidecar = store.read_bytes(POLICY_DIGEST_FILENAME)
    except Error:  # absent or unreadable: it is only a cache
        sidecar = b""
    digest = _kept_digest(data)
    if digest is None:
        digest = _digest([data])
    if sidecar == digest:
        _kept = ([data], digest)
        return _sliced_db(data)
    return db_from_json(data)
