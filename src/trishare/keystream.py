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
states out of order and bit-sliced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

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


#: 64-bit lane words per slab of the bit-sliced Lehmer generator; one
#: slab yields 64 * _LANES stream bits.
_LANES = 2048


def _lane_constant(word: int) -> int:
    """The 64-bit `word` repeated in every lane of a slab."""
    return int.from_bytes(word.to_bytes(8, "little") * _LANES, "little")


#: p = 2^31 - 1 in the low bits of every lane.
_LANE_LOW = _lane_constant(MASK_MODULUS)
#: Bits 0 and 31 of every lane: the two bits of a folded lane that its
#: parity depends on.
_LANE_TAPS = _lane_constant(1 | 1 << 31)
#: The even and the odd bits of every lane.
_LANE_EVEN = _lane_constant(0x5555555555555555)
_LANE_ODD = _lane_constant(0xAAAAAAAAAAAAAAAA)


@lru_cache(maxsize=4)
def _lehmer_slab(a: int) -> Tuple[int, Tuple[int, ...], int]:
    """(lane vector [a^(64 l)], sub-stream factors [a^(j+1)], a^(64 K)), all mod p."""
    step = pow(a, 64, MASK_MODULUS)
    lanes = []
    x = 1
    for _ in range(_LANES):
        lanes.append(x.to_bytes(8, "little"))
        x = x * step % MASK_MODULUS
    factors = tuple(pow(a, j + 1, MASK_MODULUS) for j in range(64))
    return int.from_bytes(b"".join(lanes), "little"), factors, x


def _lehmer_bits_int(x0: int, a: int, count: int) -> int:
    """The first `count` bits of the stream from x0 packed into one int.

    Bit i, the parity of x0 * a^(i+1) mod p, sits at position i, so
    byte i of the little-endian encoding holds bits 8i..8i+7.

    The states are computed bit-sliced (Biham, FSE 1997), one slab of
    K = _LANES 64-bit lane words at a time: bit j of lane word l is
    stream bit 64l + j of the slab, so the lane words, laid end to end,
    are already the packed output.  Sub-stream j (j = 0..63) runs down
    the lanes: its lane l holds the state (b * a^(j+1) mod p) * a^(64l)
    mod p, where b is the slab's base state, and all K lanes come from
    one product of that scalar with the cached lane vector
    V = [a^(64l) mod p].  Both factors are below p, so every lane
    product x is below 2^62 and never carries into the next lane.  A
    short count shrinks the slab to ceil(count / 64) lanes.

    One Mersenne fold (2^31 = 1 mod p) takes each lane to
    s = (x & p) + (x >> 31), done on all lanes at once with a mask
    holding p in every lane.  The shift drags the next lane's low bits
    into bits 33..63, but s < 2^32, so no carry reaches them and bits
    0..31 are exact.  s is congruent to x mod p and below 2p.  s = p
    would need x = 0 mod p; p is prime and both factors lie in
    [0, p - 1], so then x = 0 and s = 0.  Hence x mod p is s below 2^31
    and s - p from 2^31 on, and as p is odd its parity is bit 0 of s
    XOR bit 31 of s.

    Those two bits of sub-stream j are XORed into an accumulator
    shifted by j: bit 0 lands on bit j and bit 31 on bit j + 31 (in the
    next lane word for j > 32).  Even and odd j use separate
    accumulators, so the two kinds of bit sit on bits of opposite
    parity and never overlap.  Per slab, acc ^ (acc >> 31) brings each
    bit-31 copy onto its bit-0 copy, and keeping the even (odd) bits
    leaves every sub-stream's parity at bit j.
    """
    vector, factors, stride = _lehmer_slab(a)
    p = MASK_MODULUS
    low, taps = _LANE_LOW, _LANE_TAPS
    slabs = []
    base = x0
    for done in range(0, count, 64 * _LANES):
        lanes = min(_LANES, -(-(count - done) // 64))
        v = vector if lanes == _LANES else vector & ((1 << (64 * lanes)) - 1)
        even = odd = 0
        for j in range(0, 64, 2):
            x = base * factors[j] % p * v
            even ^= (((x & low) + (x >> 31)) & taps) << j
            x = base * factors[j + 1] % p * v
            odd ^= (((x & low) + (x >> 31)) & taps) << (j + 1)
        word = ((even ^ (even >> 31)) & _LANE_EVEN) | ((odd ^ (odd >> 31)) & _LANE_ODD)
        if count - done < 64 * lanes:
            word &= (1 << (count - done)) - 1
        slabs.append(word.to_bytes(8 * lanes, "little"))
        base = base * stride % p
    return int.from_bytes(b"".join(slabs), "little")


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
