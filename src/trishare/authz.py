"""Four-participant authorization: owner, consumers, server, store.

A grant splits a fresh file secret a0 across three roles with a
degree-2 polynomial (threshold k = 3): the organization server keeps
one point, the data owner walks away with one that is never persisted,
and each consumer receives one blinded by their credentials.  A request
therefore needs server + owner + receiver to cooperate; any other
combination of three points fails the role check, which reads only the
fixed x slots of the owner and the receiver, or the binding check.
The store's files alone still open every file: the policy holds what
derives a1 and a2, and with the server point they give a0.

Revocation re-randomizes the polynomial around the same a0 by re-salting
the attribute-derived coefficients.  Because share blinding is additive,
remaining consumers' records are refreshed without ever decrypting them,
and the owner refreshes their own point from the returned coefficient
deltas - the server never learns it.

This module is the protocol only: each function reads and assigns the
records of a PolicyDb, and trishare.policy owns how they are stored.
"""

from __future__ import annotations

import os
import secrets as _secrets
from typing import Dict, List, Sequence, Tuple

from .cipher import Mode, derive_file_key, open_file, seal_file
from .errors import Error
from .field import InvalidPolynomial, SecretPolynomial, poly_eval
from .interpolate import ReconstructionInput, reconstruct_polynomial, verify_binding
from .policy import FileGrant, PolicyDb, UserRecord, UserType
from .sharing import (BindingCode, EncryptedShare, SharePoint, binding_code,
                      decrypt_share, derive_attribute_tokens, encrypt_share,
                      split_secret)
from .storage import (ObjectStore, decode_envelope, envelope_pieces,
                      object_key)
# Unused here, but perfbench/tracing.py wraps them in this namespace.
from .policy import db_from_json, db_to_json  # noqa: F401
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
