"""Linear congruential keystreams and the two-stream XOR mask.

Each data bit is XORed with K = N1 ^ N2, where N1 is a fresh bit from
the Rand stream and N2 comes from a short pattern drawn once per block
from the Rep stream and tiled across it.  Applying the mask twice is the
identity, which is what the cipher layer relies on.

Both mask streams are Lehmer generators (c = 0, m = p = 2^31 - 1), so
state i is x0 * a^i mod p and the stream can jump ahead: _lcg_bits_int
computes K = 2048 consecutive states per chunk with a handful of
big-int operations, one 64-bit lane per state, instead of stepping one
state per Python iteration.  The result is bit-identical to the plain
recurrence, which every other parameter set still uses.

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


#: States per chunk of the lane-parallel Lehmer generator; each state
#: takes one 64-bit lane of a single Python int.
_LANES = 2048
#: p = 2^31 - 1 in the low bits of every lane.
_LANE_LOW = int.from_bytes(MASK_MODULUS.to_bytes(8, "little") * _LANES, "little")
#: Lane low byte -> ASCII parity digit, for int(digits, 2).
_PARITY_DIGITS = bytes(ord("0") + (i & 1) for i in range(256))


@lru_cache(maxsize=4)
def _lehmer_lanes(a: int) -> Tuple[int, int]:
    """(lane vector [a^1 .. a^K] mod p, a^K mod p) for multiplier a."""
    powers = []
    x = 1
    for _ in range(_LANES):
        x = x * a % MASK_MODULUS
        powers.append(x.to_bytes(8, "little"))
    return int.from_bytes(b"".join(powers), "little"), x


def _lehmer_bits_int(x0: int, a: int, count: int) -> int:
    """_lcg_bits_int for c = 0, m = 2^31 - 1, K lanes at a time."""
    vector, stride = _lehmer_lanes(a)
    low = _LANE_LOW
    chunks = []
    x = x0 * vector
    for done in range(0, count, _LANES):
        lanes = min(_LANES, count - done)
        if lanes < _LANES:
            x &= (1 << (64 * lanes)) - 1
        x = (x & low) + ((x >> 31) & low)
        x = (x & low) + ((x >> 31) & low)
        digits = x.to_bytes(8 * lanes, "little")[::8].translate(_PARITY_DIGITS)
        chunks.append(int(digits[::-1], 2).to_bytes((lanes + 7) // 8, "little"))
        x *= stride
    return int.from_bytes(b"".join(chunks), "little")


def _lcg_bits_int(params: LcgParams, count: int) -> int:
    """The first `count` stream bits packed into one int (bit i at position i).

    Packed LSB-first, so byte i of the little-endian encoding holds bits
    8i..8i+7.  This is the one bit generator; lcg_bits and the N2
    patterns are views of it.

    Lehmer streams (c = 0, m = p = 2^31 - 1) have s_i = x0 * a^i mod p,
    so they are computed K states at a time.  One Python int holds K
    consecutive states in 64-bit lanes, lane j at bits 64j..64j+63.  The
    first chunk is x0 times a cached lane vector [a^1 .. a^K] mod p; each
    later chunk is the previous one times a^K mod p.  Both factors of
    every lane product are below 2^31, so a product is below 2^62 and
    never carries into the next lane.  Each lane is then reduced with
    two Mersenne folds (2^31 = 1 mod p), (x & p) + (x >> 31 & p), done
    on all lanes at once with a mask holding p in every lane: the first
    leaves a value below 2^32 - 1, the second one in [0, p].  It equals
    p only if the product is 0 mod p; p is prime and both factors lie in
    [0, p - 1], so that product is 0 itself and folds to 0.  Every lane
    therefore ends exactly at its state, whose parity is the low bit of
    the lane's low byte.  Those bytes become '0'/'1' digits that
    int(..., 2) packs, one chunk at a time.

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
