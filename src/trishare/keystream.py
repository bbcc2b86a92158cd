"""Linear congruential keystreams and the two-stream XOR mask.

Each data bit is XORed with K = N1 ^ N2, where N1 is a fresh bit from
the Rand stream and N2 comes from a short pattern drawn once per block
from the Rep stream and tiled across it.  Applying the mask twice is the
identity, which is what the cipher layer relies on.

Both mask streams are Lehmer generators (c = 0, m = p = 2^31 - 1), so
state i is x0 * a^i mod p and any state can be computed out of order:
_lcg_bits_int computes them bit-sliced, 64 sub-streams across one slab
of 64-bit lane words, so that every lane word already holds 64
consecutive output bits.  A slab takes a few hundred big-int operations
instead of one Python iteration per state.  The result is bit-identical
to the plain recurrence, which every other parameter set still uses.

Low-order LCG bits are a weak randomness source, especially for
power-of-two moduli where the parity bit simply alternates.  That is
inherent to the construction; monobit_check exists to surface it, not to
hide it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

from .errors import Error


class InvalidParams(Error):
    """LCG or schedule parameters violate a construction invariant."""


class TooFewBits(Error):
    """monobit_check needs at least 1,000 bits to mean anything."""


@dataclass(frozen=True)
class LcgParams:
    """Parameters of X_{i+1} = (a * X_i + c) mod m.

    x0, a and c are stored reduced mod m; the recurrence only depends on
    their residues.
    """

    x0: int
    a: int
    c: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise InvalidParams(f"modulus m={self.m} must be >= 2")
        object.__setattr__(self, "x0", self.x0 % self.m)
        object.__setattr__(self, "a", self.a % self.m)
        object.__setattr__(self, "c", self.c % self.m)


#: Worked-example generator pair (small moduli, kept verbatim for the
#: documented fixtures; not a recommended profile).
REFERENCE_RAND = LcgParams(x0=9741, a=1674, c=1234, m=231)
REFERENCE_REP = LcgParams(x0=9123, a=1324, c=2234, m=432)

#: Recommended production constants (glibc-style for Rand, Numerical
#: Recipes for Rep); only the seeds vary per use.
RAND_MULTIPLIER = 1103515245
RAND_INCREMENT = 12345
RAND_MODULUS = 1 << 31
REP_MULTIPLIER = 1664525
REP_INCREMENT = 1013904223
REP_MODULUS = 1 << 32


def recommended_rand(seed: int) -> LcgParams:
    """Rand-stream params with the recommended constants and a given seed.

    Caveat: with a power-of-two modulus and odd increment the state
    parity strictly alternates, so the bit stream of this set is
    0101... shifted by the seed's parity.  It passes monobit (perfectly
    balanced) but is useless as one arm of a two-stream XOR; mask
    schedules use mask_rand/mask_rep instead.
    """
    return LcgParams(x0=seed, a=RAND_MULTIPLIER, c=RAND_INCREMENT, m=RAND_MODULUS)


def recommended_rep(seed: int) -> LcgParams:
    """Rep-stream params with the recommended constants and a given seed.

    Same parity caveat as recommended_rand.
    """
    return LcgParams(x0=seed, a=REP_MULTIPLIER, c=REP_INCREMENT, m=REP_MODULUS)


#: Lehmer (multiplicative) generator constants used for masking.  The
#: odd modulus keeps state parity well distributed, unlike the
#: power-of-two sets above.  48271 and 16807 are the minstd multipliers.
MASK_MODULUS = (1 << 31) - 1
MASK_RAND_MULTIPLIER = 48271
MASK_REP_MULTIPLIER = 16807


def mask_rand(seed: int) -> LcgParams:
    """Parity-safe Rand-stream params for mask schedules."""
    # c = 0, so x0 = 0 would be a fixed point; fold the seed into [1, m-1]
    return LcgParams(x0=seed % (MASK_MODULUS - 1) + 1,
                     a=MASK_RAND_MULTIPLIER, c=0, m=MASK_MODULUS)


def mask_rep(seed: int) -> LcgParams:
    """Parity-safe Rep-stream params for mask schedules."""
    return LcgParams(x0=seed % (MASK_MODULUS - 1) + 1,
                     a=MASK_REP_MULTIPLIER, c=0, m=MASK_MODULUS)


class Lcg:
    """Stateful stepper for one LCG stream.

    Value-semantic: two instances built from equal params produce equal
    sequences.  Instances are not shared across threads.
    """

    def __init__(self, params: LcgParams):
        self.params = params
        self.state = params.x0

    def step(self) -> int:
        """Advance once and return the new state."""
        self.state = (self.params.a * self.state + self.params.c) % self.params.m
        return self.state

    def bits(self, count: int) -> List[int]:
        """The next `count` parity bits."""
        return [self.step() & 1 for _ in range(count)]


def lcg_bits(params: LcgParams, count: int) -> List[int]:
    """First `count` parity bits of the stream started from params.

    A list view of _lcg_bits_int.
    """
    if count < 0:
        raise InvalidParams("count must be non-negative")
    packed = _lcg_bits_int(params, count).to_bytes((count + 7) // 8, "little")
    return [(byte >> b) & 1 for byte in packed for b in range(8)][:count]


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
    """_lcg_bits_int for c = 0, m = 2^31 - 1, one slab of K lane words at a time."""
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


def _lcg_bits_int(params: LcgParams, count: int) -> int:
    """The first `count` stream bits packed into one int (bit i at position i).

    Packed LSB-first, so byte i of the little-endian encoding holds bits
    8i..8i+7.  This is the one bit generator; lcg_bits and the N2
    patterns are views of it.

    Lehmer streams (c = 0, m = p = 2^31 - 1) have s_i = x0 * a^i mod p,
    so they are computed bit-sliced (Biham, FSE 1997), one slab of
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

    Every other (a, c, m) steps the recurrence one state at a time.
    """
    if params.c == 0 and params.m == MASK_MODULUS:
        return _lehmer_bits_int(params.x0, params.a, count)
    a, c, m = params.a, params.c, params.m
    s = params.x0
    nwords, rem = divmod(count, 64)
    words = []
    append = words.append
    for _ in range(nwords):
        w = 0
        for b in range(64):
            s = (a * s + c) % m
            w |= (s & 1) << b
        append(w)
    if rem:
        w = 0
        for b in range(rem):
            s = (a * s + c) % m
            w |= (s & 1) << b
        append(w)
    buf = b"".join(w.to_bytes(8, "little") for w in words)
    return int.from_bytes(buf, "little")


@dataclass(frozen=True)
class MaskSchedule:
    """How the two streams combine into a mask.

    Per block of `block_bytes`: N1 takes fresh Rand bits for every data
    bit; N2 draws `rep_period_bits` bits once from Rep and tiles them.
    The period must be >= 8 and divide the block evenly.
    """

    rand_params: LcgParams
    rep_params: LcgParams
    rep_period_bits: int = 64
    block_bytes: int = 1024

    def __post_init__(self) -> None:
        if self.block_bytes < 1:
            raise InvalidParams("block_bytes must be >= 1")
        if self.rep_period_bits < 8:
            raise InvalidParams("rep_period_bits must be >= 8")
        if (self.block_bytes * 8) % self.rep_period_bits != 0:
            raise InvalidParams(
                f"rep_period_bits={self.rep_period_bits} does not divide "
                f"the {self.block_bytes * 8}-bit mask block evenly"
            )


def _tile_bits(pattern: int, width: int, need: int) -> int:
    """Tile a `width`-bit pattern until at least `need` bits, then truncate."""
    full = pattern
    filled = width
    while filled < need:
        full |= full << filled
        filled *= 2
    return full & ((1 << need) - 1)


def _rep_mask_int(params: LcgParams, nbytes: int, rep_period_bits: int,
                  block_bytes: int) -> int:
    """N2 for `nbytes` of input: per-block patterns from one continuing stream.

    Block b's pattern is bits b*period .. (b+1)*period - 1 of the Rep
    stream, all drawn in one _lcg_bits_int call.
    """
    nblocks = -(-nbytes // block_bytes)
    patterns = _lcg_bits_int(params, rep_period_bits * nblocks)
    period_mask = (1 << rep_period_bits) - 1
    tiles = []
    for b, pos in enumerate(range(0, nbytes, block_bytes)):
        pattern = (patterns >> (b * rep_period_bits)) & period_mask
        blk = min(block_bytes, nbytes - pos)
        tiles.append(_tile_bits(pattern, rep_period_bits, blk * 8).to_bytes(blk, "little"))
    return int.from_bytes(b"".join(tiles), "little")


def xor_mask(data: bytes, schedule: MaskSchedule) -> bytes:
    """XOR `data` with the two-stream mask; self-inverse for a fixed schedule.

    Both streams restart from the schedule's seeds on every call, so the
    mask is a pure function of (schedule, len(data)) and applying it
    twice returns the input.  Bit i of the stream lands on bit i%8 of
    byte i//8 (LSB first).
    """
    n = len(data)
    if n == 0:
        return b""
    n1 = _lcg_bits_int(schedule.rand_params, n * 8)
    n2 = _rep_mask_int(schedule.rep_params, n, schedule.rep_period_bits,
                       schedule.block_bytes)
    masked = int.from_bytes(data, "little") ^ n1 ^ n2
    return masked.to_bytes(n, "little")


@dataclass(frozen=True)
class MonobitStats:
    """Ones/zeros census of a bit sample; bias = |ones - zeros| / total."""

    ones: int
    zeros: int
    bias: float


def monobit_check(bits: "Sequence[int] | Iterable[int]") -> MonobitStats:
    """Count ones and zeros; no verdict, just the numbers."""
    bits = list(bits)
    total = len(bits)
    if total < 1000:
        raise TooFewBits(f"need at least 1000 bits, got {total}")
    ones = sum(1 for b in bits if b & 1)
    zeros = total - ones
    return MonobitStats(ones=ones, zeros=zeros, bias=abs(ones - zeros) / total)
