"""Threshold splitting of a secret into share points on a polynomial.

The secret a0 is the constant term of F(X) = a0 + a1*X + ... over Z_p;
users receive points (x, F(x)) with x = 1..n, never x = 0.  Coefficients
come from salted attribute hashes, so re-salting re-randomizes every
share while keeping the same secret.  A binding code ties the polynomial
to a file identity so reconstruction from tampered points is detectable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, List, NamedTuple, Sequence, Type

from .errors import Error
from .field import FieldModulus, SecretPolynomial, modulus_for, poly_eval
from .hashing import fnv1a64


class SecretTooLarge(Error):
    """The secret must be a field element, i.e. less than p."""


class NotEnoughUsers(Error):
    """Fewer share points requested than the threshold k."""


@dataclass(frozen=True)
class SharePoint:
    """One share (x, y) on the polynomial, with its modulus.

    x = 0 is forbidden: the point (0, F(0)) is the secret itself.
    """

    x: int
    y: int
    modulus: FieldModulus

    def __post_init__(self) -> None:
        p = self.modulus.p
        if not 1 <= self.x < p:
            raise Error(f"share abscissa x={self.x} outside [1, {p})")
        object.__setattr__(self, "y", self.y % p)


@dataclass(frozen=True)
class BindingCode:
    """kc = (secret + F(x_kc)) mod p, evaluated at a file-derived x_kc."""

    kc: int
    x_kc: int


class CorruptShareRecord(Error):
    """A share record that is not UTF-8 JSON in the record schema."""


def read_json(data: "str | bytes", read: Callable[[Any], Any], what: str,
              error: Type[Error]) -> Any:
    """read(json.loads(data)), the one decode of stored JSON, with bytes
    taken as UTF-8 only (json.loads would guess UTF-16 or UTF-32).

    Raises `error`, naming `what`, chained from the first exception met:
    UnicodeDecodeError for bytes that are not UTF-8, JSONDecodeError for
    text that is not JSON, RecursionError for a document nested too
    deeply to parse (json.loads recurses once per nested value), or what
    `read` raises for a document outside the schema: KeyError,
    TypeError, ValueError, AttributeError, OverflowError or an Error,
    such as a non-prime p.
    """
    try:
        text = data if isinstance(data, str) else data.decode("utf-8")
        return read(json.loads(text))
    except KeyError as exc:
        raise error(f"{what} lacks key {exc}") from exc
    except (ValueError, RecursionError, TypeError, AttributeError,
            OverflowError, Error) as exc:
        raise error(f"{what} is not UTF-8 JSON in its schema: {exc}") from exc


def _text(value) -> str:
    """A string field of a stored record; TypeError for anything else,
    which could not be written back."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _number(value) -> int:
    """An int field of a stored record; TypeError for anything but a JSON
    int (a bool, float or numeric string), which would be written back
    as another value."""
    if type(value) is not int:
        raise TypeError(f"expected an int, got {type(value).__name__}")
    return value


class EncryptedShare(NamedTuple):
    """Share record handed to a receiver; y is blinded by their credentials.

    An immutable named tuple, one per consumer of a grant: a command
    builds those of the grants it reads, and only a full parse of the
    policy builds them all.  Serializes to the wire format:
    {"file_id", "x", "y_enc", "p", "kc", "x_kc"}.
    """

    file_id: str
    x: int
    y_enc: int
    p: int
    kc: int
    x_kc: int

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "EncryptedShare":
        """The one reader of a record.  KeyError or TypeError for a dict
        outside the schema, TypeError for a field _text or _number
        refuses."""
        # Positional through tuple.__new__, as NamedTuple._make builds: the
        # generated __new__ would add a Python call to each of the records
        # a full parse builds.
        return tuple.__new__(cls, (_text(d["file_id"]), _number(d["x"]),
                                   _number(d["y_enc"]), _number(d["p"]),
                                   _number(d["kc"]), _number(d["x_kc"])))

    @classmethod
    def from_json(cls, text: "str | bytes") -> "EncryptedShare":
        """Parse the wire form, or its UTF-8 bytes; CorruptShareRecord if
        it is not a record."""
        return read_json(text, cls.from_dict, "share record", CorruptShareRecord)


def derive_attribute_tokens(attributes: Sequence[bytes], salt: bytes,
                            modulus: FieldModulus) -> List[int]:
    """Coefficients a1, a2, ... from salted attribute hashes, one each.

    Token j = fnv1a64(salt || attribute_j) mod p, with 0 remapped to 1
    so no coefficient (in particular the leading one) degenerates.
    """
    p = modulus.p
    tokens = []
    for attr in attributes:
        t = fnv1a64(salt + attr) % p
        tokens.append(t if t != 0 else 1)
    return tokens


def split_secret(secret: int, coeffs: Sequence[int], n_users: int,
                 modulus: FieldModulus) -> List[SharePoint]:
    """Evaluate F at x = 1..n_users; F = secret + coeffs[0]*X + ...

    k = len(coeffs) + 1 is the reconstruction threshold; n_users must be
    at least k or the secret could never be recovered.
    """
    p = modulus.p
    if not 0 <= secret < p:
        raise SecretTooLarge(f"secret {secret} is not a field element mod {p}")
    k = len(coeffs) + 1
    if n_users < k:
        raise NotEnoughUsers(f"{n_users} users cannot meet threshold k={k}")
    poly = SecretPolynomial((secret, *coeffs), modulus)
    return [SharePoint(x=x, y=poly_eval(poly.coeffs, x, p), modulus=modulus)
            for x in range(1, n_users + 1)]


def derive_binding_x(file_id: bytes, modulus: FieldModulus) -> int:
    """File-derived evaluation abscissa in [1, p-1]; never 0."""
    return fnv1a64(file_id) % (modulus.p - 1) + 1


def binding_code(poly: SecretPolynomial, file_id: bytes) -> BindingCode:
    """kc = (a0 + F(x_kc)) mod p at the file-derived x_kc; a0 = F(0)."""
    p = poly.modulus.p
    x_kc = derive_binding_x(file_id, poly.modulus)
    kc = (poly.coeffs[0] + poly_eval(poly.coeffs, x_kc, p)) % p
    return BindingCode(kc=kc, x_kc=x_kc)


def _cred_blind(credentials: bytes, p: int) -> int:
    return fnv1a64(credentials) % p


def encrypt_share(share: SharePoint, receiver_credentials: bytes, file_id: str,
                  binding: BindingCode) -> EncryptedShare:
    """Blind y with the receiver's credential hash: y_enc = (y + h) mod p.

    The record carries the binding fields so a receiver can present it
    standalone.  x stays in the clear; a lone x reveals nothing about
    the secret.
    """
    p = share.modulus.p
    y_enc = (share.y + _cred_blind(receiver_credentials, p)) % p
    return EncryptedShare(file_id=file_id, x=share.x, y_enc=y_enc, p=p,
                          kc=binding.kc, x_kc=binding.x_kc)


def decrypt_share(record: EncryptedShare, credentials: bytes) -> SharePoint:
    """Unblind a share record with the holder's credentials."""
    modulus = modulus_for(record.p)
    y = (record.y_enc - _cred_blind(credentials, record.p)) % record.p
    return SharePoint(x=record.x, y=y, modulus=modulus)
