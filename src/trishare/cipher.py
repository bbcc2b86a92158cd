"""Involution stream cipher: c = (a - s')^n over masked bytes s'.

Two exact realizations of the same involution family:

* Additive (n=1): per byte, c = (a - s) mod 256.  Length preserving,
  and its own inverse, so one substitution table serves both directions.
* Power (n in 1..8): per byte, the integer c = (a - s)^n serialized as a
  fixed-width big-endian symbol.  Encryption looks each masked byte up
  in the key's 256-symbol table and joins the symbols with bytes.join,
  a run at a time.  Decryption reads three adjacent byte columns: each
  symbol is an edge joining its bytes in those columns, and peeling that
  3-hypergraph (as an xor filter is built) gives tables T0, T1, T2 with
  T0[b_k] ^ T1[b_k-1] ^ T2[b_k-2] = s, so three translates and two
  big-int XORs decode the payload.  The result is kept only if
  re-encrypting it reproduces the payload, column by column.  Without a
  plan, or when that check fails, symbols are looked up one by one in
  the inverse table; a symbol missing from it is corrupt, and its exact
  integer n-th root says how (not a perfect power, or a root that maps
  outside the byte range).

The pipeline is mask-then-encrypt: seal_file XORs data with the
two-stream Lehmer mask first (keystream._lehmer_bits_int computes both
streams), so equal plaintext bytes do not map to equal symbols.  The
mask's start states are derived from the key, never stored; the
envelope records only the mask's block size, and open_file rebuilds the
schedule from the key and that header field.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .errors import Error
from .field import integer_nth_root
from .hashing import fnv1a64, fold64, mix64
from .keystream import MaskSchedule, start_state, xor_mask

DEFAULT_BLOCK_BYTES = 1024
MAX_POWER = 8

# Symbols per bytes.join in encrypt_bytes.  A join holds a buffer view
# (80 bytes) and a list slot of each item, so one join of a whole payload
# would take 88 bytes of temporary memory per plaintext byte.
_JOIN_RUN = 4096


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
    [1, 8].  `mode` is stored as a Mode; any other value is rejected.
    """

    a: int
    n: int = 1
    mode: Mode = Mode.ADDITIVE

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "mode", Mode(self.mode))
        except ValueError:
            raise KeyOutOfRange(f"unknown mode {self.mode!r}") from None
        if self.a < 1:
            raise KeyOutOfRange("a must be positive")
        if self.mode == Mode.ADDITIVE:
            if self.n != 1:
                raise KeyOutOfRange(f"Additive mode requires n=1, got n={self.n}")
        else:
            if self.a < 256:
                raise KeyOutOfRange("Power mode requires a >= 256")
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


def derive_file_key(master_key: int, filename: bytes,
                    mode: Mode = Mode.ADDITIVE, n: int = 1) -> CipherKey:
    """Per-file key a = master_key XOR fnv1a64(filename), a name in bytes.

    Deterministic in both inputs; distinct filenames give distinct keys
    except for FNV collisions.  In Power mode a result below 256 is
    adjusted upward by 256 to stay in range; a zero result becomes 256
    so the key stays positive.  `n` is checked as CipherKey checks it:
    Additive mode takes only n = 1.
    """
    if len(filename) == 0:
        raise EmptyFilename("filename must be non-empty")
    a = master_key ^ fnv1a64(filename)
    if mode == Mode.POWER and a < 256:
        a += 256
    if a == 0:
        a = 256
    return CipherKey(a=a, n=n, mode=mode)


#: 255, 254, .. 0: _additive_table rotates it.
_DESCENDING = bytes(range(255, -1, -1))


def _additive_table(a: int) -> bytes:
    # (a - s) mod 256 is an involution on bytes: the same table encrypts
    # and decrypts.  It is 255 - (k + s) mod 256 with k = 255 - a mod 256,
    # the descending bytes rotated left by k.
    k = 255 - a % 256
    return _DESCENDING[k:] + _DESCENDING[:k]


def _power_symbols(a: int, n: int, width: int) -> "list[bytes | None]":
    """The 256 symbols (a - s)^n as width-byte big-endian strings.

    A symbol too large for `width` bytes is None: no payload of that
    width can hold it.
    """
    limit = 1 << (8 * width)
    return [c.to_bytes(width, "big") if c < limit else None
            for c in [(a - s) ** n for s in range(256)]]


def encrypt_bytes(data: bytes, key: CipherKey) -> bytes:
    """Apply the involution to raw bytes; returns the serialized payload."""
    if key.mode == Mode.ADDITIVE:
        return data.translate(_additive_table(key.a))
    # symbol_width fits every symbol of the key, so no row is None
    row = _power_symbols(key.a, key.n, symbol_width(key)).__getitem__
    return b"".join([b"".join(map(row, data[i:i + _JOIN_RUN]))
                     for i in range(0, len(data), _JOIN_RUN)])


def _peeling_plan(table: bytes, width: int) -> "tuple[int, bytes, bytes, bytes] | None":
    """Column k and tables T0, T1, T2 with T0[b_k] ^ T1[b_k-1] ^ T2[b_k-2] = s.

    Symbol s of `table` (256 symbols of `width` bytes) is an edge joining
    its bytes in columns k, k-1 and k-2.  Peeling keeps, per vertex, only
    a degree and the XOR of its incident edge ids; every edge peels iff
    the 3-hypergraph has no 2-core, and then assigning the peeled edges
    in reverse order solves for the tables.  Triples are tried from the
    low-order end, whose bytes vary most from symbol to symbol; returns
    None if no triple peels.
    """
    for k in range(width - 1, 1, -1):
        cols = (table[k::width], table[k - 1::width], table[k - 2::width])
        if len(set(zip(*cols))) < 256:
            continue  # two symbols agree in all three columns
        deg = [0] * 768
        acc = [0] * 768
        for off, col in zip((0, 256, 512), cols):
            for s, b in enumerate(col):
                deg[off + b] += 1
                acc[off + b] ^= s
        c0, c1, c2 = cols
        stack = [v for v in range(768) if deg[v] == 1]
        order = []
        while stack:
            v = stack.pop()
            if deg[v] == 0:
                continue  # its edge was peeled from another vertex
            s = acc[v]
            order.append((s, v))
            for u in (c0[s], 256 + c1[s], 512 + c2[s]):
                deg[u] -= 1
                acc[u] ^= s
                if deg[u] == 1:
                    stack.append(u)
        if len(order) == 256:
            t = bytearray(768)
            for s, v in reversed(order):
                # t[v] is still 0 here: v met no edge peeled after s
                t[v] = s ^ t[c0[s]] ^ t[256 + c1[s]] ^ t[512 + c2[s]]
            return k, bytes(t[:256]), bytes(t[256:512]), bytes(t[512:])
    return None


def _decrypt_by_columns(payload: bytes, table: bytes, width: int) -> "bytes | None":
    """Three-column decode of a Power payload, or None to use the lookup path.

    The output is returned only if encrypting it through `table` gives
    back the payload, checked one column at a time so no second payload
    is built.  A payload that passes is a valid encryption, and
    encryption is injective, so the output is the only preimage.
    """
    plan = _peeling_plan(table, width)
    if plan is None:
        return None
    k, t0, t1, t2 = plan
    x = (int.from_bytes(payload[k::width].translate(t0), "little")
         ^ int.from_bytes(payload[k - 1::width].translate(t1), "little")
         ^ int.from_bytes(payload[k - 2::width].translate(t2), "little"))
    out = x.to_bytes(len(payload) // width, "little")
    for j in range(width):
        if payload[j::width] != out.translate(table[j::width]):
            return None
    return out


def decrypt_bytes(payload: bytes, key: CipherKey, width: "int | None" = None) -> bytes:
    """Invert encrypt_bytes.

    `width` overrides the symbol width (used when the envelope header is
    authoritative); by default it is computed from the key.  In Power
    mode, when all 256 symbols fit the width, the payload is decoded
    from three byte columns and kept only if re-encrypting it, column by
    column, reproduces the payload.  Otherwise (no peeling plan for the
    key, a width too narrow for some symbol, or a failed check) symbols
    are looked up one by one in the inverse of the key's table at that
    width.  The first one not found is corrupt: InexactRoot if it is not
    a perfect n-th power, SymbolOutOfRange if its root maps outside
    [0, 255].
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
    symbols = _power_symbols(a, n, width)
    if None not in symbols:
        out = _decrypt_by_columns(payload, b"".join(symbols), width)
        if out is not None:
            return out
    inverse = {c: s for s, c in enumerate(symbols) if c is not None}
    chunks = (payload[i:i + width] for i in range(0, len(payload), width))
    try:
        return bytes(map(inverse.__getitem__, chunks))
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
    plaintext_len * symbol_width.  `mode` is stored as a Mode; an
    Additive envelope has n = 1 and symbol_width = 1.
    """

    mode: Mode
    n: int
    symbol_width: int
    block_bytes: int
    plaintext_len: int
    payload: bytes

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "mode", Mode(self.mode))
        except ValueError:
            raise BadHeader(f"unknown mode {self.mode!r}") from None
        if not 1 <= self.n <= MAX_POWER:
            raise BadHeader(f"n={self.n} outside [1, {MAX_POWER}]")
        if not 1 <= self.symbol_width <= 255:
            raise BadHeader(f"symbol_width={self.symbol_width} outside [1, 255]")
        if self.mode == Mode.ADDITIVE and (self.n, self.symbol_width) != (1, 1):
            raise BadHeader(f"additive envelope with n={self.n}, "
                            f"symbol_width={self.symbol_width}; both must be 1")
        if not 1 <= self.block_bytes <= (1 << 32) - 1:
            raise BadHeader(f"block_bytes={self.block_bytes} outside u32 range")
        if self.plaintext_len < 0:
            raise BadHeader("negative plaintext length")
        expected = self.plaintext_len * self.symbol_width
        if len(self.payload) != expected:
            raise LengthMismatch(
                f"payload is {len(self.payload)} bytes, header implies {expected}")


_RAND_TAG = 0x52414E44  # "RAND"
_REP_TAG = 0x52455031  # "REP1"


def mask_schedule_for_key(key: CipherKey,
                          block_bytes: int = DEFAULT_BLOCK_BYTES) -> MaskSchedule:
    """Keystream schedule with start states derived from the key, never stored.

    Both seeds come from a multiply-xor-shift cascade over (a, n, mode),
    and keystream.start_state folds each into a Lehmer start state, so
    anyone holding the key re-derives the identical mask; the envelope
    only records block_bytes.
    """
    base = mix64(fold64(key.a) ^ (key.n << 8) ^ int(key.mode))
    return MaskSchedule(rand_x0=start_state(mix64(base ^ _RAND_TAG)),
                        rep_x0=start_state(mix64(base ^ _REP_TAG)),
                        block_bytes=block_bytes)


def seal_file(data: bytes, key: CipherKey) -> CipherEnvelope:
    """Mask then encrypt; returns the envelope (header + payload).

    The mask schedule is derived from the key at the default block
    size, which the header records for open_file.
    """
    schedule = mask_schedule_for_key(key)
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


def open_file(envelope: CipherEnvelope, key: CipherKey) -> bytes:
    """Decrypt then unmask; returns the plaintext.

    The header's mode, n, symbol width and block size are authoritative:
    only `a` is taken from the supplied key, and the mask schedule comes
    from `a` and the header.  A header block size that is not a whole
    number of Rep periods raises InvalidParams.  A wrong `a` surfaces as
    InexactRoot/SymbolOutOfRange in Power mode and as garbage output in
    Additive mode (no integrity).
    """
    effective = CipherKey(a=key.a, n=envelope.n, mode=envelope.mode)
    masked = decrypt_bytes(envelope.payload, effective, width=envelope.symbol_width)
    schedule = mask_schedule_for_key(effective, envelope.block_bytes)
    return xor_mask(masked, schedule)
