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

Mutations are a single-writer contract per file_id: callers serialize
grant/revoke on the same file; read-only queries may run concurrently.
"""

from __future__ import annotations

import json
import os
import secrets as _secrets
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Sequence, Tuple

from .cipher import CipherEnvelope, Mode, derive_file_key, open_file, seal_file
from .errors import Error
from .field import (FieldModulus, InvalidPolynomial, SecretPolynomial,
                    default_modulus, modulus_for, poly_eval)
from .interpolate import ReconstructionInput, reconstruct_polynomial, verify_binding
from .sharing import (BindingCode, EncryptedShare, SharePoint, binding_code,
                      decrypt_share, derive_attribute_tokens, encrypt_share,
                      split_secret)
from .storage import (ACL_BACKUP_FILENAME, POLICY_FILENAME, ObjectStore,
                      decode_envelope, encode_envelope, object_key)

#: Reconstruction threshold: server + owner + receiver.
THRESHOLD = 3

#: Default x-slot convention.  The owner's slot is never stored.
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


@dataclass(frozen=True)
class RoleSlots:
    """Explicit x-slot assignment overriding the 1/2/3.. convention."""

    server_x: int
    owner_x: int
    consumer_xs: Tuple[int, ...]

    def __post_init__(self) -> None:
        xs = (self.server_x, self.owner_x, *self.consumer_xs)
        if len(set(xs)) != len(xs):
            raise Error(f"role slots must be distinct, got {xs}")
        if min(xs) < 1:
            raise Error("role slots must be >= 1")


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


@dataclass
class PolicyDb:
    """User table plus per-file grants, all under one modulus."""

    modulus: FieldModulus = field(default_factory=default_modulus)
    users: Dict[str, UserRecord] = field(default_factory=dict)
    grants: Dict[str, FileGrant] = field(default_factory=dict)


def register_user(db: PolicyDb, record: UserRecord) -> PolicyDb:
    """Append a user; the rest of the db is untouched."""
    if record.user_id in db.users:
        raise DuplicateUser(f"user {record.user_id!r} already registered")
    db.users[record.user_id] = record
    return db


def _owner_attributes(owner: UserRecord, k: int) -> List[bytes]:
    # k-1 distinct attribute strings derived from the owner's credentials.
    return [owner.credentials + bytes([i]) for i in range(1, k)]


def grant_access(db: PolicyDb, store: ObjectStore, file_id: str,
                 owner_id: str, consumer_ids: Sequence[str],
                 data: bytes, *,
                 mode: Mode = Mode.ADDITIVE, n: int = 1,
                 secret: "int | None" = None,
                 coeffs: "Sequence[int] | None" = None,
                 slots: "RoleSlots | None" = None,
                 ) -> Tuple[PolicyDb, "CipherEnvelope", SharePoint]:
    """Seal `data` under a fresh secret and split it across the roles.

    The owner and every consumer are looked up in db.users, and each
    consumer's share is blinded with the credentials registered there.
    Returns (db, envelope, owner_share).  The owner share is handed to
    the caller and never stored anywhere; losing it means the file can
    only be re-granted, not decrypted.  Granting an already-granted
    file_id replaces the previous grant.

    The keyword overrides (secret, coeffs, slots) exist for
    deterministic fixtures; production callers leave them unset.
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

    n_points = len(consumers) + 2
    if slots is None:
        slots = RoleSlots(server_x=SERVER_X, owner_x=OWNER_X,
                          consumer_xs=tuple(range(FIRST_CONSUMER_X,
                                                  FIRST_CONSUMER_X + len(consumers))))
    if len(slots.consumer_xs) != len(consumers):
        raise Error(f"{len(slots.consumer_xs)} slots for {len(consumers)} consumers")
    if max((slots.server_x, slots.owner_x, *slots.consumer_xs)) > n_points:
        raise Error(f"slot beyond the {n_points} issued points")

    shares = split_secret(secret, coeffs, n_points, db.modulus)
    by_x = {pt.x: pt for pt in shares}
    poly = SecretPolynomial((secret, *coeffs), db.modulus)
    binding = binding_code(secret, poly, file_id_bytes)

    key = derive_file_key(secret, file_id_bytes, mode=mode, n=n)
    envelope = seal_file(data, key)
    ref = object_key(file_id, 0)
    store.put_object(ref, encode_envelope(envelope))

    consumer_records = {
        cid: encrypt_share(by_x[x], consumer.credentials, file_id, binding)
        for (cid, consumer), x in zip(consumers.items(), slots.consumer_xs)
    }
    db.grants[file_id] = FileGrant(
        file_id=file_id,
        owner_id=owner_id,
        server_share=by_x[slots.server_x],
        consumer_shares=consumer_records,
        binding=binding,
        salt=salt,
        envelope_ref=ref,
    )
    return db, envelope, by_x[slots.owner_x]


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

    inp = ReconstructionInput(
        points=(grant.server_share, owner_point, receiver_point),
        modulus=db.modulus)
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


def revoke_user(db: PolicyDb, file_id: str, user_id: str, *,
                old_coeffs: "Sequence[int] | None" = None,
                ) -> Tuple[PolicyDb, Tuple[int, ...]]:
    """Remove a consumer and re-randomize every remaining share.

    Re-salts the attribute-derived coefficients and shifts the whole
    polynomial by delta(X) = F_new - F_old, which has delta(0) = 0: the
    secret and the sealed envelope are untouched, but every old share
    point falls off the new polynomial (guaranteed, not just probable:
    salts are resampled until delta is nonzero at every issued x).

    Returns (db, deltas) where deltas are the coefficient differences
    (delta_1, ..., delta_{k-1}); the owner applies them to their own
    never-stored point via update_owner_share.  `old_coeffs` must be
    supplied for grants created with pinned coefficients.
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
    if old_coeffs is None:
        old_coeffs = derive_attribute_tokens(attrs, grant.salt, THRESHOLD,
                                             db.modulus)
    old_coeffs = [c % p for c in old_coeffs]

    # Every x that ever held a share must move off the old polynomial.
    issued_xs = {rec.x for rec in grant.consumer_shares.values()}
    issued_xs.add(grant.server_share.x)

    while True:
        new_salt = os.urandom(16)
        new_coeffs = derive_attribute_tokens(attrs, new_salt, THRESHOLD,
                                             db.modulus)
        deltas = tuple((nc - oc) % p for nc, oc in zip(new_coeffs, old_coeffs))
        if all(d == 0 for d in deltas):
            continue
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
    return db, deltas


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


def db_to_json(db: PolicyDb) -> str:
    """Serialize to the documented policy schema (stable key order)."""
    users = [_user_json(u)
             for u in sorted(db.users.values(), key=lambda u: u.user_id)]
    grants = [_grant_json(g)
              for g in sorted(db.grants.values(), key=lambda g: g.file_id)]
    return (f'{{\n  "p": {_int(db.modulus.p)},'
            f'\n  "users": {_block(users, "[", "]", 2)},'
            f'\n  "grants": {_block(grants, "[", "]", 2)}\n}}')


def db_from_json(text: str) -> PolicyDb:
    """Inverse of db_to_json; the modulus profile is inferred from p.

    Raises CorruptPolicy when the text is not JSON or does not follow the
    schema (missing keys, wrong types or values).
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise CorruptPolicy(f"policy is not valid JSON: {exc}") from exc
    try:
        return _db_from_doc(doc)
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
    read_share = EncryptedShare.from_dict
    for u in doc.get("users", []):
        user_id = _text(u["user_id"])
        db.users[user_id] = UserRecord(
            user_id=user_id,
            user_type=UserType(u["user_type"]),
            credentials=bytes.fromhex(u["credentials_hex"]))
    for g in doc.get("grants", []):
        file_id = _text(g["file_id"])
        db.grants[file_id] = FileGrant(
            file_id=file_id,
            owner_id=_text(g["owner_id"]),
            server_share=SharePoint(x=int(g["server_share"]["x"]),
                                    y=int(g["server_share"]["y"]),
                                    modulus=modulus),
            consumer_shares={uid: read_share(rec)
                             for uid, rec in g["consumers"].items()},
            binding=BindingCode(kc=int(g["kc"]), x_kc=int(g["x_kc"])),
            salt=bytes.fromhex(g["salt_hex"]),
            envelope_ref=_text(g["envelope_ref"]))
    return db


def persist_db(db: PolicyDb, store: ObjectStore, backup: bool = False) -> None:
    """Write policy.json at the store root; mirror the ACL backup too when
    asked (grant/revoke paths)."""
    text = db_to_json(db)
    store.write_text(POLICY_FILENAME, text)
    if backup:
        store.write_text(ACL_BACKUP_FILENAME, text)


def load_db(store: ObjectStore) -> PolicyDb:
    """Load policy.json from the store root; CorruptPolicy if unreadable."""
    try:
        text = store.read_text(POLICY_FILENAME)
    except UnicodeDecodeError as exc:
        raise CorruptPolicy(f"{POLICY_FILENAME} is not UTF-8: {exc}") from exc
    return db_from_json(text)
