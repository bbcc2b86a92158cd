"""Four-participant authorization: owner, consumers, server, store.

A grant splits a fresh file secret a0 across three roles with a
degree-2 polynomial (threshold k = 3): the organization server keeps
one point, the data owner walks away with one that is never persisted,
and each consumer receives one blinded by their credentials.  Decryption
therefore requires server + owner + receiver to cooperate; any other
combination of three points fails role validation or the binding check.

Revocation re-randomizes the polynomial around the same a0 by re-salting
the attribute-derived coefficients.  Because share blinding is additive,
remaining consumers' records are refreshed without ever decrypting them,
and the owner refreshes their own point from the returned coefficient
deltas - the server never learns it.

Mutations are a single-writer contract per store: every grant, revoke
and register rewrites the whole policy.json, so callers serialize them
across all files of a store; read-only queries may run concurrently.

A command works on the policy bytes themselves once their digest
sidecar verifies them: a lookup is a binary search over the grant
blocks, which db_to_json writes sorted by file id, and parses only the
block it finds; a commit splices the edited blocks between slices of
the untouched ones and streams the pieces to disk and to SHA-256.
"""

from __future__ import annotations

import json
import os
import secrets as _secrets
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Dict, Iterator, List, Sequence, Tuple

from .cipher import Mode, derive_file_key, open_file, seal_file
from .errors import Error
from .field import (FieldModulus, InvalidPolynomial, SecretPolynomial,
                    default_modulus, modulus_for, poly_eval)
from .interpolate import ReconstructionInput, reconstruct_polynomial, verify_binding
from .sharing import (BindingCode, EncryptedShare, SharePoint, binding_code,
                      decrypt_share, derive_attribute_tokens, encrypt_share,
                      split_secret)
from .storage import (POLICY_DIGEST_FILENAME, POLICY_FILENAME, ObjectStore,
                      decode_envelope, envelope_pieces, object_key)
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


class Grants(MutableMapping):
    """file_id -> FileGrant, kept as edits against the verified policy.

    A policy loaded through its sidecar keeps its bytes, whose grant
    blocks sit in text[lo:hi] sorted by file id, joined by ",".  A lookup
    finds a block by binary search over byte offsets: each probe takes
    the block that starts nearest the middle and decodes only its quoted
    file id.  Only the block a lookup returns is parsed.  Each grant read
    or stored becomes an edit against its block's span, and a new file
    id's span is empty, at its sorted place; _spliced gives every run of
    blocks no edit touches as a slice of the text.  With no text (a new
    db or a full parse) every grant is such an insert.
    """

    def __init__(self, text: bytes = b"", lo: int = 0, hi: int = 0,
                 modulus: "FieldModulus | None" = None):
        self._text, self._lo, self._hi = text, lo, hi
        self._modulus = modulus
        # file_id -> (start, end, grant); a deleted block's grant is None
        self._edits: Dict[str, Tuple[int, int, "FileGrant | None"]] = {}

    def __getitem__(self, file_id: str) -> FileGrant:
        edit = self._edits.get(file_id)
        if edit is not None:
            if edit[2] is None:
                raise KeyError(file_id)
            return edit[2]
        start, end = self._span(file_id)
        if start == end:
            raise KeyError(file_id)
        grant = _parsed(self._text[start:end], _grant_from_doc, self._modulus)
        if grant.file_id != file_id:
            raise CorruptPolicy(f"the block found for {file_id!r} is "
                                f"{grant.file_id!r}'s")
        self._edits[file_id] = (start, end, grant)
        return grant

    def __setitem__(self, file_id: str, grant: FileGrant) -> None:
        start, end = self._place(file_id)
        self._edits[file_id] = (start, end, grant)

    def __delitem__(self, file_id: str) -> None:
        if file_id not in self:
            raise KeyError(file_id)
        start, end = self._place(file_id)
        if start == end:  # an insert: nothing in the text to remove
            del self._edits[file_id]
        else:
            self._edits[file_id] = (start, end, None)

    def __contains__(self, file_id: object) -> bool:
        if not isinstance(file_id, str):
            return False
        edit = self._edits.get(file_id)
        if edit is not None:
            return edit[2] is not None
        start, end = self._span(file_id)
        return start < end

    def __iter__(self) -> Iterator[str]:
        ids, start = [], self._lo
        while start < self._hi:
            ids.append(self._id_at(start))
            start = self._next_start(start + 1)
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise CorruptPolicy("grant blocks are not in file id order")
        edits = self._edits
        return iter(sorted([fid for fid in ids if fid not in edits]
                           + [fid for fid, e in edits.items() if e[2] is not None]))

    def __len__(self) -> int:
        n = self._text.count(_SEAM, self._lo, self._hi) + (self._lo < self._hi)
        for start, end, grant in self._edits.values():
            n += (start == end) - (grant is None)
        return n

    def _spliced(self) -> List[bytes]:
        """Every grant block in file id order, for _policy_pieces: each
        run that no edit touches as one slice of the text (its blocks
        still joined by ","), each edited grant rendered anew."""
        text, cursor, hi = memoryview(self._text), self._lo, self._hi
        items = []
        # An insert sorts before the block whose start it shares.
        for start, end, _, grant in sorted(
                (start, end, fid, grant)
                for fid, (start, end, grant) in self._edits.items()):
            if cursor < start:  # the run before start, less the "," ending it
                items.append(text[cursor:start - 1 if start < hi else hi])
            if grant is not None:
                items.append(_grant_json(grant).encode("ascii"))
            cursor = start if start == end else min(end + 1, hi)
        if cursor < hi:
            items.append(text[cursor:hi])
        return items

    def _place(self, file_id: str) -> Tuple[int, int]:
        edit = self._edits.get(file_id)
        return edit[:2] if edit is not None else self._span(file_id)

    def _span(self, file_id: str) -> Tuple[int, int]:
        """The text span of file_id's block, or an empty span where it
        would go.  CorruptPolicy if the next block repeats the id or
        sorts before it."""
        hi = self._hi
        # The block just before a holds a smaller id, and b_id is the id
        # of the block at b, not smaller; a and b are block starts or hi.
        a, b, b_id = self._lo, hi, None
        while a < b:
            probe = self._next_start((a + b) // 2)
            if probe >= b:
                probe = a
            probe_id = self._id_at(probe)
            if probe_id < file_id:
                a = self._next_start(probe + 1)
            else:
                b, b_id = probe, probe_id
        if b_id != file_id:
            return a, a
        after = self._next_start(a + 1)
        if after < hi and self._id_at(after) <= file_id:
            raise CorruptPolicy(f"the grant blocks after {file_id!r} are "
                                "not in file id order")
        return a, after - 1 if after < hi else hi

    def _next_start(self, pos: int) -> int:
        """The first block start at or after pos, or hi."""
        if pos <= self._lo:
            return self._lo
        seam = self._text.find(_SEAM, pos - 1, self._hi)
        return seam + 1 if seam >= 0 else self._hi

    def _id_at(self, start: int) -> str:
        """The file id quoted at the head of the block at start."""
        at = start + len(_GRANT_MARK)
        stop = self._text.find(_OWNER_KEY, at, self._hi)
        quoted = self._text[at:stop] if stop >= 0 else b""
        if (quoted[:1] == b'"' == quoted[-1:] and len(quoted) > 1
                and b"\\" not in quoted):
            # A JSON string with no escape is its text between quotes.
            return quoted[1:-1].decode("ascii")
        try:
            file_id = json.loads(quoted)
        except ValueError as exc:
            raise CorruptPolicy(f"a grant block's file id is not JSON: {exc}") from exc
        if not isinstance(file_id, str):
            raise CorruptPolicy(f"the grant block at byte {start} has no file id")
        return file_id


@dataclass
class PolicyDb:
    """User table plus per-file grants, all under one modulus."""

    modulus: FieldModulus = field(default_factory=default_modulus)
    users: Dict[str, UserRecord] = field(default_factory=dict)
    grants: Grants = field(default_factory=Grants)


def register_user(db: PolicyDb, record: UserRecord) -> None:
    """Append a user; the rest of the db is untouched."""
    if record.user_id in db.users:
        raise DuplicateUser(f"user {record.user_id!r} already registered")
    db.users[record.user_id] = record


def _owner_attributes(owner: UserRecord, k: int) -> List[bytes]:
    # k-1 distinct attribute strings derived from the owner's credentials.
    return [owner.credentials + bytes([i]) for i in range(1, k)]


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
    FIRST_CONSUMER_X onwards, in the order given.  The envelope goes to
    `store` and the grant into db.grants; the owner share is returned
    and never stored anywhere, so losing it means the file can only be
    re-granted, not decrypted.  Granting an already-granted file_id
    replaces the previous grant.

    `secret` and `coeffs` pin the polynomial for a reproducible grant;
    left unset, both are fresh.
    """
    try:
        file_id_bytes = file_id.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidFileId(f"file id {file_id!r} is not UTF-8 text") from exc
    p = db.modulus.p
    owner = db.users.get(owner_id)
    if owner is None or owner.user_type != UserType.OWNER:
        raise UnknownOwner(f"{owner_id!r} is not a registered owner")
    if len(consumer_ids) == 0:
        raise NoConsumers("a grant needs at least one consumer")
    consumers: Dict[str, UserRecord] = {}
    for cid in consumer_ids:
        if cid not in db.users:
            raise UnknownUser(f"consumer {cid!r} is not registered")
        if cid in consumers:
            raise DuplicateUser(f"consumer {cid!r} listed twice")
        consumers[cid] = db.users[cid]

    if secret is None:
        secret = _secrets.randbelow(p)
    salt = os.urandom(16)
    if coeffs is None:
        coeffs = derive_attribute_tokens(_owner_attributes(owner, THRESHOLD),
                                         salt, THRESHOLD, db.modulus)

    shares = split_secret(secret, coeffs, len(consumers) + 2, db.modulus)
    by_x = {pt.x: pt for pt in shares}
    poly = SecretPolynomial((secret, *coeffs), db.modulus)
    binding = binding_code(secret, poly, file_id_bytes)

    key = derive_file_key(secret, file_id_bytes, mode=mode, n=n)
    envelope = seal_file(data, key)
    ref = object_key(file_id, 0)
    store.put_object(ref, envelope_pieces(envelope))

    consumer_records = {
        cid: encrypt_share(by_x[x], consumer.credentials, file_id, binding)
        for x, (cid, consumer) in enumerate(consumers.items(), FIRST_CONSUMER_X)
    }
    db.grants[file_id] = FileGrant(
        file_id=file_id,
        owner_id=owner_id,
        server_share=by_x[SERVER_X],
        consumer_shares=consumer_records,
        binding=binding,
        salt=salt,
        envelope_ref=ref,
    )
    return by_x[OWNER_X]


def request_decrypt(db: PolicyDb, store: ObjectStore, file_id: str,
                    owner_point: "SharePoint | None", receiver: UserRecord,
                    receiver_share_record: "EncryptedShare | None" = None) -> bytes:
    """Reconstruct the secret from the three role points and open the file.

    The receiver may present their share record explicitly (the normal
    hand-over flow); otherwise it is looked up in the grant, and absence
    means NotGranted.  A presented record is not checked for membership:
    stale or forged records reach reconstruction and die on the binding
    check instead.
    """
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

    # Role validation: the owner's slot is whatever x was never issued to
    # the server or a consumer.  A stored point presented as the owner
    # point is a role violation, not a math error.
    stored_xs = {rec.x for rec in grant.consumer_shares.values()}
    stored_xs.add(grant.server_share.x)
    if owner_point.x in stored_xs or owner_point.x == receiver_point.x:
        raise RoleMismatch(
            f"x={owner_point.x} belongs to a stored share, not the owner slot"
        )

    inp = ReconstructionInput((grant.server_share, owner_point, receiver_point))
    try:
        poly = reconstruct_polynomial(inp)
    except InvalidPolynomial as exc:
        raise BindingMismatch(f"degenerate reconstruction: {exc}") from exc
    if not verify_binding(poly, grant.binding, file_id.encode("utf-8")):
        raise BindingMismatch(f"reconstructed polynomial fails binding for {file_id!r}")

    secret = poly.coeffs[0]
    envelope = decode_envelope(store.get_object(grant.envelope_ref))
    key = derive_file_key(secret, file_id, mode=envelope.mode, n=envelope.n)
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

    The grant is updated in db; the return value is the coefficient
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
    attrs = _owner_attributes(owner, THRESHOLD)
    old_tokens = derive_attribute_tokens(attrs, grant.salt, THRESHOLD,
                                         db.modulus)

    # Every x that ever held a share must move off the old polynomial.
    issued_xs = {rec.x for rec in grant.consumer_shares.values()}
    issued_xs.add(grant.server_share.x)

    while True:
        new_salt = os.urandom(16)
        new_tokens = derive_attribute_tokens(attrs, new_salt, THRESHOLD,
                                             db.modulus)
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

# db_to_json writes exactly what json.dumps(doc, indent=2) writes for the
# policy schema (users, then grants with their server_share and consumers),
# but from fixed templates: any indent sends json.dumps to its pure-Python
# encoder, which took most of every grant and revoke.
# Every string goes through the C escaper json.dumps uses and every int
# through int.__repr__, as json does; the nesting depth fixes each indent.
_str = encode_basestring_ascii
_int = int.__repr__


def _user_json(u: UserRecord) -> str:
    return (f'\n    {{\n      "user_id": {_str(u.user_id)},'
            f'\n      "user_type": {_str(u.user_type.value)},'
            f'\n      "credentials_hex": {_str(u.credentials.hex())}\n    }}')


def _consumer_json(uid: str, rec: EncryptedShare) -> str:
    return (f'\n        {_str(uid)}: {{\n          "file_id": {_str(rec.file_id)},'
            f'\n          "x": {_int(rec.x)},\n          "y_enc": {_int(rec.y_enc)},'
            f'\n          "p": {_int(rec.p)},\n          "kc": {_int(rec.kc)},'
            f'\n          "x_kc": {_int(rec.x_kc)}\n        }}')


def _grant_json(g: FileGrant) -> str:
    consumers = [_consumer_json(uid, rec)
                 for uid, rec in sorted(g.consumer_shares.items())]
    return (f'\n    {{\n      "file_id": {_str(g.file_id)},'
            f'\n      "owner_id": {_str(g.owner_id)},'
            f'\n      "server_share": {{\n        "x": {_int(g.server_share.x)},'
            f'\n        "y": {_int(g.server_share.y)}\n      }},'
            f'\n      "consumers": {_block(consumers, "{", "}", 6)},'
            f'\n      "kc": {_int(g.binding.kc)},'
            f'\n      "x_kc": {_int(g.binding.x_kc)},'
            f'\n      "salt_hex": {_str(g.salt.hex())},'
            f'\n      "envelope_ref": {_str(g.envelope_ref)}\n    }}')


def _block(items: List[str], open_: str, close: str, indent: int) -> str:
    """A JSON array or object of pre-rendered items, closed at `indent`."""
    if not items:
        return open_ + close
    return open_ + ",".join(items) + "\n" + " " * indent + close


# A file db_to_json wrote is cut at these template seams.  A JSON string
# holds no raw newline, and only a grant opens a block at indent 4 inside
# the grants array, so each seam marks the same place in every such file.
_GRANTS_KEY = b',\n  "grants": '
_GRANT_MARK = b'\n    {\n      "file_id": '
_SEAM = b"," + _GRANT_MARK
_OWNER_KEY = b',\n      "owner_id": '
_GRANTS_END = b'\n  ]\n}'


def _policy_pieces(db: PolicyDb) -> List[bytes]:
    """The policy text in pieces, which persist_db streams and whose join
    db_to_json returns: the rendered head, then the grant blocks as
    Grants._spliced gives them, with the array's brackets and commas."""
    users = [_user_json(u)
             for u in sorted(db.users.values(), key=lambda u: u.user_id)]
    head = (f'{{\n  "p": {_int(db.modulus.p)},'
            f'\n  "users": {_block(users, "[", "]", 2)}').encode("ascii")
    items = db.grants._spliced()
    if not items:
        return [head, _GRANTS_KEY + b"[]\n}"]
    pieces = [head, _GRANTS_KEY + b"["]
    for item in items:
        pieces += (item, b",")
    pieces[-1] = _GRANTS_END
    return pieces


def db_to_json(db: PolicyDb) -> str:
    """Serialize to the documented policy schema (stable key order)."""
    return b"".join(_policy_pieces(db)).decode("ascii")


def _sliced_db(data: bytes) -> PolicyDb:
    """PolicyDb over bytes db_to_json wrote: p and the users are parsed
    now, each grant block only when first read (see Grants)."""
    at = data.find(_GRANTS_KEY)
    start = at + len(_GRANTS_KEY)
    empty = len(data) == start + 4 and data.endswith(b"[]\n}")
    if at < 0 or not data.isascii() or not empty and not (
            data.startswith(b"[" + _GRANT_MARK, start)
            and data.endswith(_GRANTS_END)):
        raise CorruptPolicy("policy does not have the layout db_to_json writes")
    lo, hi = (0, 0) if empty else (start + 1, len(data) - len(_GRANTS_END))
    db = _parsed(data[:at] + b"\n}", _db_from_doc)
    db.grants = Grants(data, lo, hi, db.modulus)
    return db


def db_from_json(text: str) -> PolicyDb:
    """Inverse of db_to_json; the modulus profile is inferred from p.

    Raises CorruptPolicy when the text is not JSON or does not follow the
    schema (missing keys, wrong types or values).
    """
    return _parsed(text, _db_from_doc)


def _parsed(text: str, read, *args):
    """read(json.loads(text), *args); CorruptPolicy for text that is not
    JSON or for a document outside the schema."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise CorruptPolicy(f"policy is not valid JSON: {exc}") from exc
    try:
        return read(doc, *args)
    except KeyError as exc:
        raise CorruptPolicy(f"policy entry lacks key {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError, Error) as exc:
        # Error: a value the record types reject, such as a non-prime p.
        raise CorruptPolicy(f"policy entry has a wrong type or value: {exc}") from exc


def _text(value) -> str:
    """A string field of the schema; TypeError for anything else, which
    db_to_json could not write back."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _db_from_doc(doc: dict) -> PolicyDb:
    modulus = modulus_for(int(doc["p"]))
    db = PolicyDb(modulus=modulus)
    for u in doc.get("users", []):
        user_id = _text(u["user_id"])
        db.users[user_id] = UserRecord(
            user_id=user_id,
            user_type=UserType(u["user_type"]),
            credentials=bytes.fromhex(u["credentials_hex"]))
    for g in doc.get("grants", []):
        grant = _grant_from_doc(g, modulus)
        db.grants[grant.file_id] = grant
    return db


def _grant_from_doc(g: dict, modulus: FieldModulus) -> FileGrant:
    read_share = EncryptedShare.from_dict
    return FileGrant(
        file_id=_text(g["file_id"]),
        owner_id=_text(g["owner_id"]),
        server_share=SharePoint(x=int(g["server_share"]["x"]),
                                y=int(g["server_share"]["y"]),
                                modulus=modulus),
        consumer_shares={uid: read_share(rec)
                         for uid, rec in g["consumers"].items()},
        binding=BindingCode(kc=int(g["kc"]), x_kc=int(g["x_kc"])),
        salt=bytes.fromhex(g["salt_hex"]),
        envelope_ref=_text(g["envelope_ref"]))


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


def persist_db(db: PolicyDb, store: ObjectStore) -> None:
    """Commit policy.json and its digest sidecar as one group, the same
    for every command: the policy is fsynced, the sidecar is not, the
    two are renamed in that order and the store root is fsynced once.
    A failure before the first rename changes neither.  The sidecar is
    only a cache: a crash may leave it stale, empty or one commit ahead,
    and load_db then takes the full parse.

    The policy is spliced, not rebuilt: its pieces (see _policy_pieces)
    are streamed into the file and hashed as they are, with no copy of
    the whole text."""
    pieces = _policy_pieces(db)
    store.write_text(POLICY_FILENAME, pieces,
                     cache=(POLICY_DIGEST_FILENAME, _digest(pieces)))


def load_db(store: ObjectStore) -> PolicyDb:
    """Load policy.json from the store root; CorruptPolicy if unreadable.

    The file is read once, as bytes.  When the sidecar holds their
    digest, persist_db wrote them, and they become the db's working copy
    (see Grants); a missing or stale sidecar only costs a full parse.
    """
    data = store.read_bytes(POLICY_FILENAME)
    try:
        sidecar = store.read_bytes(POLICY_DIGEST_FILENAME)
    except Error:  # absent or unreadable: it is only a cache
        sidecar = b""
    if sidecar == _digest([data]):
        return _sliced_db(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptPolicy(f"{POLICY_FILENAME} is not UTF-8: {exc}") from exc
    return db_from_json(text)
