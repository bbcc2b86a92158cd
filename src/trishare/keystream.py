"""Lehmer keystreams and the two-stream XOR mask.

Each data bit is XORed with K = N1 ^ N2, where N1 is a fresh bit from
the Rand stream and N2 comes from a 64-bit pattern drawn once per block
from the Rep stream and tiled across it.  Applying the mask twice is the
identity, which is what the cipher layer relies on.

Both streams are Lehmer generators x_{i+1} = a * x_i mod p with
p = 2^31 - 1 and the minstd multipliers (Park & Miller, CACM 1988), and
bit i of a stream is the parity of state i + 1.  The odd prime modulus
keeps that parity well distributed; with a power-of-two modulus and an
odd increment the parity bit of an LCG simply alternates.  State i is
x0 * a^i mod p, so _lehmer_bits_int, the one bit generator, computes
states out of order and bit-sliced, and reads each parity off one bit
of a product instead of reducing the product mod p.  Three identities
make that work.

Tap identity.  For 0 <= z < 2^62 that is 0 or not a multiple of p,
parity(z mod p) = bit 0 XOR bit 62 of y = z * (2^31 + 1).  Write
z = h * 2^31 + l with h, l < 2^31 and s = h + l < 2^32.  Then
y = l + s * 2^31 + h * 2^62; l fills bits 0..30 and s * 2^31 bits
31..62, so bit 0 of y is bit 0 of l and bit 62 is bit 31 of s XOR
bit 0 of h, and the two taps XOR to bit 0 XOR bit 31 of s.  As
2^31 = 1 mod p, z = s mod p with 0 <= s <= 2p.  Below p, s is z mod p
and its bit 31 is 0.  Between p and 2p, its bit 31 is 1 and z mod p is
s - p, of the other parity as p is odd.  s = p or 2p would need
z = 0 mod p with z > 0; the generator's z is a product of two residues
in [0, p - 1], and p is prime, so that never happens.

Folded tap.  For z = c * v, bit 0 of y = z * (2^31 + 1) is bit 0 of z,
that is bit 0 of c AND bit 0 of v.  Multiply c by the folded value
V = v * (2^31 + 1) + (v & 1) * 2^62 instead of v * (2^31 + 1): then
c * V = y + c * (v & 1) * 2^62.  The addend has no bit below 62, so
bits 0..61 of the sum are those of y and no carry reaches bit 62, and
bit 62 of the sum is bit 62 of y XOR bit 0 of c * (v & 1), which is
bit 0 of y.  So bit 62 of c * V alone is the tap identity's parity.
For v in [1, p - 1], v * (2^31 + 1) <= 2^62 - 2^31 - 2, so V < 2^63,
and a scalar c < 2^30 keeps c * V below 2^93.

Negation identity.  For z not a multiple of p,
parity(-z mod p) = 1 XOR parity(z mod p), since -z mod p is
p - (z mod p) and p is odd.  So a scalar c >= 2^30 is replaced by
p - c < 2^30, which fits one 30-bit CPython digit, and the bits it
yields are flipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import Error


class InvalidParams(Error):
    """Mask schedule parameters violate a construction invariant."""


MASK_MODULUS = (1 << 31) - 1
MASK_RAND_MULTIPLIER = 48271
MASK_REP_MULTIPLIER = 16807
#: Bits N2 draws from Rep once per block and tiles across the block.
REP_PERIOD_BITS = 64


def start_state(seed: int) -> int:
    """Fold a non-negative seed into a start state in [1, p - 1].

    0 is the fixed point of x -> a * x mod p, so it is never a start
    state: the fold is seed mod (p - 1), plus 1.
    """
    return seed % (MASK_MODULUS - 1) + 1


#: Lanes per slab of the bit-sliced Lehmer generator; a lane carries 64
#: stream bits, so one slab yields 64 * _LANES stream bits.
_LANES = 2048

@lru_cache(maxsize=8)
def _slab_tables(a: int, lanes: int) -> tuple:
    """(factors, stride, vectors, taps, ones) for a slab of `lanes` lanes.

    factors are the sub-stream scalars a^(j+1) mod p (j = 0..63) and
    stride is a^(64 _LANES) mod p, the step between slab base states.
    The lane tables are built for exactly `lanes` 96-bit lanes: ones has
    a 1 at the bottom of every lane; vectors[g] is the lane vector, lane
    l holding the folded lane value of v = a^(64l) mod p,
    v * (2^31 + 1) + (v & 1) * 2^62, shifted by 4g; taps[g] is bit 62 of
    every lane, shifted by 4g (g = 0..15).

    The tables are cached per (multiplier, lanes) shape.  A call uses at
    most two shapes per multiplier, full slabs and the last one, so a
    seal or open uses at most four, and the cache keeps the eight most
    recently used.
    """
    p = MASK_MODULUS
    step = pow(a, 64, p)
    x, words = 1, []
    for _ in range(lanes):
        words.append(x.to_bytes(12, "little"))
        x = x * step % p
    v = int.from_bytes(b"".join(words), "little")
    ones = int.from_bytes((1).to_bytes(12, "little") * lanes, "little")
    # the sums are lane by lane: no lane's sum reaches 2^63 to carry
    vector = v + (v << 31) + ((v & ones) << 62)
    taps = ones << 62
    factors, f = [], 1
    for _ in range(64):
        f = f * a % p
        factors.append(f)
    return (tuple(factors), pow(a, 64 * _LANES, p),
            tuple(vector << 4 * g for g in range(16)),
            tuple(taps << 4 * g for g in range(16)), ones)


def _lehmer_bits_int(x0: int, a: int, count: int) -> int:
    """The first `count` bits of the stream from x0 packed into one int.

    Bit i, the parity of x0 * a^(i+1) mod p, sits at position i, so
    byte i of the little-endian encoding holds bits 8i..8i+7.

    The states are computed bit-sliced (Biham, FSE 1997), one slab of
    K = _LANES lanes at a time: stream bit 64l + j of a slab is the
    parity of (b * a^(j+1) mod p) * a^(64l) mod p, where b is the slab's
    base state.  Sub-stream j (j = 0..63) runs down the lanes, and all
    K of its lanes come from one product of its scalar
    c = b * a^(j+1) mod p, negated below 2^30 (module docstring), with
    the cached lane vector, whose 96-bit lane l holds the folded value
    V_l of v_l = a^(64l) mod p (module docstring).  c * V_l < 2^93, so
    no product carries into the next lane, and bit 62 of lane l of the
    product is the parity of c * v_l mod p.

    Sub-stream j = s + d (s = 4g, g = 0..15; d = 0..3) multiplies the
    copy of the vector shifted by s, keeps one tap per lane, bit s + 62,
    and is XORed into accumulator d.  For s >= 36 the tap lies past bit
    95, in the next lane's span; it is still lane l's bit.  In one
    accumulator the sixteen sub-streams' taps sit at lane offsets
    s + 62 = 62, 66, .., 122, that is 62, 66, .., 94 and 2, 6, .., 26
    mod 96; they span 60 < 96 bits, so they are distinct mod 96 and no
    two taps share a bit, whatever their lanes.  Once per slab,
    acc >> (62 - d) moves bit 96l + s + 62 to 96l + s + d, offset j of
    lane l: the shift counts from the tap's position in the whole int,
    so a tap that wrapped into lane l + 1's span comes back to lane l,
    and none falls off the low end, since every tap is at offset 62 or
    above.  The offsets s + d cover 0..63 once, so the low 8 bytes of
    each 12-byte lane are then the lane's 64 stream bits, gathered with
    8 strided copies.

    A slab of fewer than K lanes, the last one of a count that is not a
    whole number of slabs, has tables of its own size (_slab_tables).
    As those tables match the slab exactly, the negated sub-streams are
    flipped in the slab itself: flip * ones puts the 64-bit flip word at
    offset 96l of every lane l, and 64 < 96, so no lane carries into the
    next.
    """
    p = MASK_MODULUS
    words = []
    base = x0
    for done in range(0, count, 64 * _LANES):
        lanes = min(_LANES, -(-(count - done) // 64))
        factors, stride, vectors, taps, ones = _slab_tables(a, lanes)
        scalars, flip = [], 0
        for j, f in enumerate(factors):
            c = base * f % p
            if c >> 30:
                c = p - c
                flip |= 1 << j
            scalars.append(c)
        out = flip * ones
        for d in range(4):
            acc = 0
            for g in range(16):
                acc ^= scalars[4 * g + d] * vectors[g] & taps[g]
            out ^= acc >> (62 - d)
        lane_bytes = out.to_bytes(12 * lanes, "little")
        word = bytearray(8 * lanes)
        for i in range(8):
            word[i::8] = lane_bytes[i::12]
        words.append(word)
        base = base * stride % p
    bits = int.from_bytes(b"".join(words), "little")
    return bits & ((1 << count) - 1) if count % 64 else bits


@dataclass(frozen=True)
class MaskSchedule:
    """The start states of the Rand and Rep streams, and the block size.

    Per block of `block_bytes`: N1 takes fresh Rand bits for every data
    bit; N2 draws REP_PERIOD_BITS bits once from Rep and tiles them, so
    the block must be a whole number of periods (a multiple of 8 bytes).
    """

    rand_x0: int
    rep_x0: int
    block_bytes: int

    def __post_init__(self) -> None:
        for x0 in (self.rand_x0, self.rep_x0):
            if not 0 < x0 < MASK_MODULUS:
                raise InvalidParams(f"start state {x0} outside [1, {MASK_MODULUS - 1}]")
        if self.block_bytes < 1 or (self.block_bytes * 8) % REP_PERIOD_BITS:
            raise InvalidParams(
                f"block_bytes={self.block_bytes} is not a positive whole "
                f"number of {REP_PERIOD_BITS}-bit Rep periods"
            )


def _rep_mask_int(x0: int, nbytes: int, block_bytes: int) -> int:
    """N2 for `nbytes` of input: per-block patterns from one continuing stream.

    Block b's pattern is bits 64b .. 64b + 63 of the Rep stream, all
    drawn in one _lehmer_bits_int call; a 64-bit pattern is 8 bytes, so
    it is tiled bytewise.
    """
    nblocks = -(-nbytes // block_bytes)
    bits = _lehmer_bits_int(x0, MASK_REP_MULTIPLIER, REP_PERIOD_BITS * nblocks)
    patterns = bits.to_bytes(8 * nblocks, "little")
    tiles = [patterns[8 * b:8 * b + 8] * -(-min(block_bytes, nbytes - pos) // 8)
             for b, pos in enumerate(range(0, nbytes, block_bytes))]
    # only the last tile can overrun, by less than one pattern
    return int.from_bytes(b"".join(tiles)[:nbytes], "little")


def xor_mask(data: bytes, schedule: MaskSchedule) -> bytes:
    """XOR `data` with the two-stream mask; self-inverse for a fixed schedule.

    Both streams restart from the schedule's start states on every
    call, so the mask is a pure function of (schedule, len(data)) and
    applying it twice returns the input.  Bit i of the stream lands on
    bit i%8 of byte i//8 (LSB first).
    """
    n = len(data)
    n1 = _lehmer_bits_int(schedule.rand_x0, MASK_RAND_MULTIPLIER, 8 * n)
    n2 = _rep_mask_int(schedule.rep_x0, n, schedule.block_bytes)
    return (int.from_bytes(data, "little") ^ n1 ^ n2).to_bytes(n, "little")
