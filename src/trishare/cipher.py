"""Involution stream cipher: c = (a - s')^n over masked bytes s'.

Two exact realizations of the same involution family:

* Additive (n=1): per byte, c = (a - s) mod 256.  Length preserving,
  and its own inverse, so one substitution table serves both directions.
* Power (n in 1..8): per byte, the integer c = (a - s)^n serialized as a
  fixed-width big-endian symbol.  Both directions are table lookups over
  the 256 symbols of the key.  A symbol missing from the table is
  corrupt; its exact integer n-th root says how (not a perfect power,
  or a root that maps outside the byte range).

The pipeline is mask-then-encrypt: seal_file XORs data with a two-stream
keystream mask first, so equal plaintext bytes do not map to equal
symbols.  Mask seeds are derived from the key, never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .errors import Error
from .field import integer_nth_root
from .hashing import fnv1a64, fold64, mix64
from .keystream import MaskSchedule, mask_rand, mask_rep, xor_mask

DEFAULT_BLOCK_BYTES = 1024
DEFAULT_REP_PERIOD_BITS = 64

ENVELOPE_MAGIC = b"IFSC"
ENVELOPE_VERSION = 1
MAX_POWER = 8


class EmptyFilename(Error):
    """File keys must bind to a non-empty filename."""


class KeyOutOfRange(Error):
    """Key parameters outside the mode's valid range."""


class InexactRoot(Error):
    """A Power-mode symbol is not a perfect n-th power."""


class SymbolOutOfRange(Error):
    """A decrypted symbol does not map back to a byte in [0, 255]."""


class BadHeader(Error):
    """Envelope magic, version, or field values are invalid."""


class LengthMismatch(Error):
    """Payload length inconsistent with the header's plaintext length."""


class Mode(IntEnum):
    ADDITIVE = 0
    POWER = 1


@dataclass(frozen=True)
class CipherKey:
    """Key (a, n) plus the mode selecting the realization.

    Additive requires n = 1 (the effective key is a mod 256).  Power
    requires a >= 256 so that a - s > 0 for every byte s, and n in
    [1, 8].
    """

    a: int
    n: int = 1
    mode: Mode = Mode.ADDITIVE

    def __post_init__(self) -> None:
        if self.a < 1:
            raise KeyOutOfRange(f"a={self.a} must be positive")
        if self.mode == Mode.ADDITIVE:
            if self.n != 1:
                raise KeyOutOfRange(f"Additive mode requires n=1, got n={self.n}")
        else:
            if self.a < 256:
                raise KeyOutOfRange(f"Power mode requires a >= 256, got a={self.a}")
            if not 1 <= self.n <= MAX_POWER:
                raise KeyOutOfRange(
                    f"Power mode requires 1 <= n <= {MAX_POWER}, got n={self.n}"
                )


def symbol_width(key: CipherKey) -> int:
    """Serialized bytes per ciphertext symbol (1 in Additive mode)."""
    if key.mode == Mode.ADDITIVE:
        return 1
    bits = key.n * key.a.bit_length()
    width = (bits + 7) // 8 + 1
    if width > 255:
        raise KeyOutOfRange(f"symbol width {width} exceeds the u8 header field")
    return width


def derive_file_key(master_key: int, filename: "bytes | str",
                    mode: Mode = Mode.ADDITIVE, n: int = 1) -> CipherKey:
    """Per-file key a = master_key XOR fnv1a64(filename).

    Deterministic in both inputs; distinct filenames give distinct keys
    except for FNV collisions.  In Power mode a result below 256 is
    adjusted upward by 256 to stay in range; a zero result becomes 256
    so the key stays positive.
    """
    if isinstance(filename, str):
        filename = filename.encode("utf-8")
    if len(filename) == 0:
        raise EmptyFilename("filename must be non-empty")
    a = master_key ^ fnv1a64(filename)
    if mode == Mode.POWER and a < 256:
        a += 256
    if a == 0:
        a = 256
    return CipherKey(a=a, n=n if mode == Mode.POWER else 1, mode=mode)


def _additive_table(a: int) -> bytes:
    # (a - s) mod 256 is an involution on bytes: the same table encrypts
    # and decrypts.
    return bytes((a - s) % 256 for s in range(256))


def encrypt_bytes(data: bytes, key: CipherKey) -> bytes:
    """Apply the involution to raw bytes; returns the serialized payload."""
    if key.mode == Mode.ADDITIVE:
        return data.translate(_additive_table(key.a))
    width = symbol_width(key)
    table = b"".join(((key.a - s) ** key.n).to_bytes(width, "big") for s in range(256))
    out = bytearray(len(data) * width)
    for k in range(width):
        # byte k of every symbol, by one translate through column k of the table
        out[k::width] = data.translate(table[k::width])
    return bytes(out)


def decrypt_bytes(payload: bytes, key: CipherKey, width: "int | None" = None) -> bytes:
    """Invert encrypt_bytes.

    `width` overrides the symbol width (used when the envelope header is
    authoritative); by default it is computed from the key.  Symbols are
    looked up in the inverse of the key's table at that width.  The first
    one not found is corrupt: InexactRoot if it is not a perfect n-th
    power, SymbolOutOfRange if its root maps outside [0, 255].
    """
    if key.mode == Mode.ADDITIVE:
        return payload.translate(_additive_table(key.a))
    a, n = key.a, key.n
    if width is None:
        width = symbol_width(key)
    if len(payload) % width != 0:
        raise LengthMismatch(
            f"payload of {len(payload)} bytes is not a multiple of "
            f"symbol width {width}"
        )
    limit = 1 << (8 * width)
    inverse = {}
    for s in range(256):
        c = (a - s) ** n
        if c < limit:
            inverse[c.to_bytes(width, "big")] = s
    symbols = (payload[i:i + width] for i in range(0, len(payload), width))
    try:
        return bytes(map(inverse.__getitem__, symbols))
    except KeyError as miss:
        c = int.from_bytes(miss.args[0], "big")
    # Every symbol whose exact root maps into [0, 255] is in the table.
    r = integer_nth_root(c, n)
    if r ** n != c:
        raise InexactRoot(f"symbol {c} is not a perfect {n}th power")
    raise SymbolOutOfRange(f"symbol maps to {a - r}, outside [0, 255]")


@dataclass(frozen=True)
class CipherEnvelope:
    """Sealed file: header fields plus the ciphertext payload.

    plaintext_len is the original byte length; payload length is
    plaintext_len * symbol_width.
    """

    mode: Mode
    n: int
    symbol_width: int
    block_bytes: int
    plaintext_len: int
    payload: bytes

    def __post_init__(self) -> None:
        if self.mode not in (Mode.ADDITIVE, Mode.POWER):
            raise BadHeader(f"unknown mode {self.mode}")
        if not 1 <= self.n <= MAX_POWER:
            raise BadHeader(f"n={self.n} outside [1, {MAX_POWER}]")
        if not 1 <= self.symbol_width <= 255:
            raise BadHeader(f"symbol_width={self.symbol_width} outside [1, 255]")
        if not 1 <= self.block_bytes <= (1 << 32) - 1:
            raise BadHeader(f"block_bytes={self.block_bytes} outside u32 range")
        if self.plaintext_len < 0:
            raise BadHeader("negative plaintext length")


_RAND_TAG = 0x52414E44  # "RAND"
_REP_TAG = 0x52455031  # "REP1"


def mask_schedule_for_key(key_a: int, n: int, mode: Mode,
                          block_bytes: int = DEFAULT_BLOCK_BYTES) -> MaskSchedule:
    """Keystream schedule with seeds derived from the key, never stored.

    Both seeds come from a multiply-xor-shift cascade over (a, n, mode),
    so anyone holding the key re-derives the identical mask; the
    envelope only records block_bytes.
    """
    base = mix64(fold64(key_a) ^ (n << 8) ^ int(mode))
    rand_seed = mix64(base ^ _RAND_TAG)
    rep_seed = mix64(base ^ _REP_TAG)
    return MaskSchedule(
        rand_params=mask_rand(rand_seed),
        rep_params=mask_rep(rep_seed),
        rep_period_bits=DEFAULT_REP_PERIOD_BITS,
        block_bytes=block_bytes,
    )


def seal_file(data: bytes, key: CipherKey,
              schedule: "MaskSchedule | None" = None) -> CipherEnvelope:
    """Mask then encrypt; returns the envelope (header + payload).

    The default schedule is derived from the key, which is what
    open_file reconstructs; pass a custom schedule only if the opener
    will supply the same one.
    """
    if schedule is None:
        schedule = mask_schedule_for_key(key.a, key.n, key.mode)
    masked = xor_mask(data, schedule)
    payload = encrypt_bytes(masked, key)
    return CipherEnvelope(
        mode=key.mode,
        n=key.n,
        symbol_width=symbol_width(key),
        block_bytes=schedule.block_bytes,
        plaintext_len=len(data),
        payload=payload,
    )


def open_file(envelope: CipherEnvelope, key: CipherKey,
              schedule: "MaskSchedule | None" = None) -> bytes:
    """Decrypt then unmask; returns the plaintext.

    The header's mode, n, symbol width and block size are authoritative:
    only `a` is taken from the supplied key.  A wrong `a` surfaces as
    InexactRoot/SymbolOutOfRange in Power mode and as garbage output in
    Additive mode (no integrity).
    """
    mode = Mode(envelope.mode)
    expected = envelope.plaintext_len * (envelope.symbol_width if mode == Mode.POWER else 1)
    if len(envelope.payload) != expected:
        raise LengthMismatch(
            f"payload is {len(envelope.payload)} bytes, header implies {expected}"
        )
    effective = CipherKey(a=key.a, n=envelope.n if mode == Mode.POWER else 1, mode=mode)
    masked = decrypt_bytes(envelope.payload, effective,
                           width=envelope.symbol_width if mode == Mode.POWER else None)
    if schedule is None:
        schedule = mask_schedule_for_key(effective.a, effective.n, mode,
                                         envelope.block_bytes)
    return xor_mask(masked, schedule)
