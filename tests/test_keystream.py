import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from trishare import InvalidParams, MaskSchedule, xor_mask
from trishare import keystream
from trishare.keystream import (MASK_MODULUS, MASK_RAND_MULTIPLIER,
                                MASK_REP_MULTIPLIER, _LANES, _lehmer_bits_int,
                                _slab_tables, start_state)
from oracles import (
    bytes_to_bits,
    lcg_period,
    lehmer_window_bits,
    slow_lcg_bits,
    slow_lcg_states,
    slow_mask,
)

RAND_X0 = start_state(2024)
REP_X0 = start_state(4048)
RAND4 = (RAND_X0, MASK_RAND_MULTIPLIER, 0, MASK_MODULUS)
REP4 = (REP_X0, MASK_REP_MULTIPLIER, 0, MASK_MODULUS)
MULTIPLIERS = (MASK_RAND_MULTIPLIER, MASK_REP_MULTIPLIER)


def bits_of(packed, count):
    return [(packed >> i) & 1 for i in range(count)]


# ---------------------------------------------------------------- generator

def test_generator_states_match_oracle():
    for x0, a, _, m in (RAND4, REP4):
        packed = _lehmer_bits_int(x0, a, 50)
        assert bits_of(packed, 50) == [s & 1 for s in slow_lcg_states(x0, a, 0, m, 50)]


def test_degenerate_fixed_point_emits_zeros():
    # 0 is the fixed point of x -> a * x mod p
    for a in MULTIPLIERS:
        for count in (4, 64 * _LANES + 1):
            assert _lehmer_bits_int(0, a, count) == 0


def test_alternating_parity():
    # a = p - 1 maps x to p - x, and p is odd, so parity flips every step
    assert bits_of(_lehmer_bits_int(1, MASK_MODULUS - 1, 4), 4) == [0, 1, 0, 1]
    assert bits_of(_lehmer_bits_int(2, MASK_MODULUS - 1, 4), 4) == [1, 0, 1, 0]


def test_streams_are_deterministic():
    a = _lehmer_bits_int(RAND_X0, MASK_RAND_MULTIPLIER, 4096)
    b = _lehmer_bits_int(RAND_X0, MASK_RAND_MULTIPLIER, 4096)
    assert a == b
    # a short draw is a prefix of a longer one
    longer = _lehmer_bits_int(RAND_X0, MASK_RAND_MULTIPLIER, 8192)
    assert longer & ((1 << 4096) - 1) == a


def test_period_never_exceeds_modulus():
    rng = random.Random(7)
    for m in range(2, 4097):
        params = (rng.randrange(m), rng.randrange(m), rng.randrange(m), m)
        assert lcg_period(*params) <= m


# ---------------------------------------------------------------- kernel identities

def tap_parity(z):
    """Bit 0 XOR bit 62 of z * (2^31 + 1), as the kernel reads a lane."""
    y = z * ((1 << 31) + 1)
    return (y ^ (y >> 62)) & 1


TAP_EDGES = (0, 1, MASK_MODULUS - 1, MASK_MODULUS, MASK_MODULUS + 1,
             1 << 31, 1 << 61, (1 << 62) - 1)


def test_tap_identity_at_edges():
    # z mod p's parity, except that a nonzero multiple of p (p itself,
    # and 2^62 - 1 = p * (2^31 + 1)) reads 1: its s = h + l is p or 2p
    for z in TAP_EDGES:
        multiple = z > 0 and z % MASK_MODULUS == 0
        assert tap_parity(z) == (z % MASK_MODULUS & 1) ^ multiple, z
    assert tap_parity(MASK_MODULUS) == tap_parity((1 << 62) - 1) == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 62) - 1))
def test_tap_identity(z):
    multiple = z > 0 and z % MASK_MODULUS == 0
    assert tap_parity(z) == (z % MASK_MODULUS & 1) ^ multiple


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=MASK_MODULUS - 1),
       st.integers(min_value=1, max_value=MASK_MODULUS - 1))
def test_tap_identity_holds_for_every_lane_product(c, v):
    # the kernel's z is a product of two nonzero residues, never a
    # multiple of p, so the exception above cannot occur
    assert tap_parity(c * v) == c * v % MASK_MODULUS & 1


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=MASK_MODULUS - 1),
       st.integers(min_value=1, max_value=MASK_MODULUS - 1))
def test_negation_identity(c, v):
    p = MASK_MODULUS
    assert (p - c) * v % p & 1 == 1 ^ (c * v % p & 1)


def folded(v):
    """The lane value the kernel caches for v = a^(64l) mod p."""
    return v * ((1 << 31) + 1) + ((v & 1) << 62)


def test_lane_products_fit_96_bit_lanes():
    p = MASK_MODULUS
    # a scalar at or above 2^30 negates to below 2^30, one CPython digit
    assert p - (1 << 30) < 1 << 30
    # c < 2^30 and v < p: z = c * v is inside the tap identity's range,
    # the folded lane value V stays below 2^63 and the lane product c * V
    # below 2^93; p - 2 is the largest odd v, the largest V
    c = (1 << 30) - 1
    assert c * (p - 1) < 1 << 62
    top = folded(p - 2)
    assert top == max(folded(p - 1), top) < 1 << 63
    assert c * top < 1 << 93


def test_lane_tables_hold_the_folded_values():
    # lane l of the vector is the folded value of a^(64l) mod p and its
    # tap is bit 62; the other fifteen of each are shifted by 4g
    lane = (1 << 96) - 1
    for a in MULTIPLIERS:
        _, _, vectors, taps, _ = _slab_tables(a, 64)
        for l in range(64):
            assert vectors[0] >> 96 * l & lane == folded(pow(a, 64 * l, MASK_MODULUS))
            assert taps[0] >> 96 * l & lane == 1 << 62
        assert vectors == tuple(vectors[0] << 4 * g for g in range(16))
        assert taps == tuple(taps[0] << 4 * g for g in range(16))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 30) - 1),
       st.integers(min_value=1, max_value=MASK_MODULUS - 1))
def test_folded_tap_is_the_parity(c, v):
    # bit 62 of c * V alone is the parity the tap identity reads off bits
    # 0 and 62 of c * v * (2^31 + 1)
    product = c * folded(v)
    assert product < 1 << 93
    assert product >> 62 & 1 == c * v % MASK_MODULUS & 1


def test_slab_tables_are_cached_per_slab_shape():
    a = 7
    _slab_tables.cache_clear()
    # two full slabs and a last slab of 5 lanes plus 1 bit: two shapes
    _lehmer_bits_int(RAND_X0, a, 2 * 64 * _LANES + 64 * 5 + 1)
    info = _slab_tables.cache_info()
    assert info.misses == info.currsize == 2
    for lanes in (_LANES, 6):
        *_, ones = _slab_tables(a, lanes)
        assert ones.bit_length() == 96 * (lanes - 1) + 1
    assert _slab_tables.cache_info().misses == 2  # both shapes were cached
    for lanes in range(7, 27):
        _lehmer_bits_int(RAND_X0, a, 64 * lanes)
    info = _slab_tables.cache_info()
    assert info.currsize <= info.maxsize == 8
    # no lane table is a module constant
    assert all(v.bit_length() <= 64 for v in vars(keystream).values() if type(v) is int)


# Slab edges of the bit-sliced Lehmer generator: a slab is K = _LANES
# lanes of 64 stream bits each, 64 * K stream bits, and a count short
# of a slab shrinks it to ceil(count / 64) lanes.
SLAB_BITS = 64 * _LANES
LANE_EDGE_COUNTS = (
    0, 1, 31, 32, 33, 63, 64, 65, 127, 129, 1000,
    _LANES - 1, _LANES, _LANES + 1, 3 * _LANES + 5,
    SLAB_BITS - 65, SLAB_BITS - 1, SLAB_BITS, SLAB_BITS + 1,
    SLAB_BITS + 64, SLAB_BITS + 100, SLAB_BITS + 4097, 2 * SLAB_BITS + 65,
)
# The kernel holds for any multiplier mod p, not only the two mask
# multipliers.
LEHMER_MULTIPLIERS = (MASK_RAND_MULTIPLIER, MASK_REP_MULTIPLIER, 1, MASK_MODULUS - 1,
                      random.Random(17).randrange(2, MASK_MODULUS - 1))


def bits_to_int(bits):
    return int("".join(map(str, reversed(bits))) or "0", 2)


def test_lane_generator_matches_recurrence_oracle_at_chunk_edges():
    x0s = (0, 1, MASK_MODULUS - 1, random.Random(13).randrange(1, MASK_MODULUS))
    longest = max(LANE_EDGE_COUNTS)
    for a in LEHMER_MULTIPLIERS:
        for x0 in x0s:
            expected = bits_to_int(slow_lcg_bits(x0, a, 0, MASK_MODULUS, longest))
            for count in LANE_EDGE_COUNTS:
                prefix = expected & ((1 << count) - 1)
                assert _lehmer_bits_int(x0, a, count) == prefix, (a, x0, count)


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_lane_generator_matches_recurrence_oracle_at_small_slabs(monkeypatch, lanes):
    # Slabs of one to three lanes: many slabs per call, short last slabs
    # and the top lane's taps past its span, in milliseconds.  The cached
    # stride depends on _LANES, so the tables are rebuilt for the run.
    slab = 64 * lanes
    counts = (0, 1, 63, 64, 65, slab - 1, slab, slab + 1, 2 * slab - 63,
              3 * slab + 65, 7 * slab + 127)
    x0s = (0, 1, MASK_MODULUS - 1, random.Random(13).randrange(1, MASK_MODULUS))
    longest = max(counts)
    _slab_tables.cache_clear()
    monkeypatch.setattr(keystream, "_LANES", lanes)
    try:
        for a in LEHMER_MULTIPLIERS:
            for x0 in x0s:
                expected = bits_to_int(slow_lcg_bits(x0, a, 0, MASK_MODULUS, longest))
                for count in counts:
                    prefix = expected & ((1 << count) - 1)
                    assert _lehmer_bits_int(x0, a, count) == prefix, (a, x0, count)
    finally:
        monkeypatch.undo()
        _slab_tables.cache_clear()


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from(LEHMER_MULTIPLIERS),
              st.integers(min_value=0, max_value=MASK_MODULUS - 1)),
    st.one_of(st.sampled_from((1, MASK_MODULUS - 1)),
              st.integers(min_value=0, max_value=MASK_MODULUS - 1)),
    st.one_of(st.sampled_from(LANE_EDGE_COUNTS),
              st.integers(min_value=0, max_value=5 * _LANES),
              st.integers(min_value=0, max_value=3 * SLAB_BITS)),
)
def test_lane_generator_matches_recurrence_oracle(a, x0, count):
    # the recurrence over windows of 5 * K bits (the whole stream for a
    # short count): at the start, across every slab boundary and at the
    # end, each started from a jump-ahead state x0 * a^start mod p
    packed = _lehmer_bits_int(x0, a, count)
    assert packed >> count == 0
    width = 5 * _LANES
    starts = {0, max(0, count - width)}
    starts.update(max(0, b - width // 2) for b in range(SLAB_BITS, count, SLAB_BITS))
    for start in sorted(starts):
        n = min(width, count - start)
        window = bits_to_int(lehmer_window_bits(x0, a, MASK_MODULUS, start, n))
        assert (packed >> start) & ((1 << n) - 1) == window, (start, n)


# SHA-256 of _lehmer_bits_int from start_state(2024) for both mask
# multipliers at three 2048-lane slabs plus 65 bits, pinned before the
# kernel moved to 96-bit tap lanes.
LEHMER_PIN_COUNT = 3 * 64 * 2048 + 65
LEHMER_SHA256 = {
    MASK_RAND_MULTIPLIER: "bfb8ce7cfea746592ded3ca950f91580d6befe25b9531e166a8996b6581c1098",
    MASK_REP_MULTIPLIER: "0fdd196820da845b6d706b8ec37355b3a6cdab6413ec8d0ba191b15580ecfb47",
}


@pytest.mark.parametrize("a", sorted(LEHMER_SHA256))
def test_lehmer_bits_are_pinned(a):
    packed = _lehmer_bits_int(RAND_X0, a, LEHMER_PIN_COUNT)
    digest = hashlib.sha256(packed.to_bytes(-(-LEHMER_PIN_COUNT // 8), "little")).hexdigest()
    assert digest == LEHMER_SHA256[a]


def test_mask_params_do_not_alternate():
    for a in MULTIPLIERS:
        bits = bits_of(_lehmer_bits_int(start_state(12345), a, 256), 256)
        assert bits != [(bits[0] + i) % 2 for i in range(256)]


def test_mask_params_avoid_zero_fixed_point():
    # multiplicative generator: no seed may fold to the state 0
    for seed in (0, MASK_MODULUS - 1, (1 << 31) - 2, 1 << 61, (1 << 64) - 1):
        x0 = start_state(seed)
        assert 1 <= x0 <= MASK_MODULUS - 1
        for a in MULTIPLIERS:
            assert _lehmer_bits_int(x0, a, 64) != 0
    # the fold is seed mod (p - 1), plus 1, so it is onto [1, p - 1]
    p = MASK_MODULUS
    assert [start_state(s) for s in (0, p - 2, p - 1, p)] == [1, p - 1, 1, 2]


def test_mask_streams_pass_monobit():
    total = 100_000
    for a in MULTIPLIERS:
        ones = bin(_lehmer_bits_int(start_state(99), a, total)).count("1")
        assert abs(ones - (total - ones)) / total <= 0.05


# ---------------------------------------------------------------- mask schedule

def schedule(block_bytes=1024):
    return MaskSchedule(rand_x0=RAND_X0, rep_x0=REP_X0, block_bytes=block_bytes)


def test_schedule_validation():
    for block_bytes in (0, -8, 1020, 4):  # 1020 * 8 % 64 != 0
        with pytest.raises(InvalidParams):
            schedule(block_bytes)
    for x0 in (0, MASK_MODULUS, -1):
        with pytest.raises(InvalidParams, match=r"outside \[1, 2147483646\]$"):
            MaskSchedule(rand_x0=x0, rep_x0=REP_X0, block_bytes=1024)
        with pytest.raises(InvalidParams):
            MaskSchedule(rand_x0=RAND_X0, rep_x0=x0, block_bytes=1024)
    assert schedule(16).block_bytes == 16
    # both ends of [1, p - 1] are start states
    edges = MaskSchedule(rand_x0=1, rep_x0=MASK_MODULUS - 1, block_bytes=8)
    assert (edges.rand_x0, edges.rep_x0) == (1, MASK_MODULUS - 1)


def test_mask_is_an_involution():
    sched = schedule()
    rng = random.Random(3)
    for size in (0, 1, 7, 8, 1023, 1024, 1025, 4096, 10_000):
        data = rng.randbytes(size)
        assert xor_mask(xor_mask(data, sched), sched) == data


def test_mask_of_zeros_is_the_keystream():
    masked = bytes_to_bits(xor_mask(bytes(1024), schedule()))
    n1 = slow_lcg_bits(*RAND4, 8192)
    n2_pattern = slow_lcg_bits(*REP4, 64)
    assert masked[0] == n1[0] ^ n2_pattern[0]
    for i in range(8192):
        assert masked[i] == n1[i] ^ n2_pattern[i % 64]


def test_mask_matches_bitwise_oracle():
    rng = random.Random(5)
    cases = [
        (1024, 300),     # partial first block
        (1024, 5000),    # spans blocks, partial tail
        (8, 33),         # 8-byte blocks, pattern == block
        (16, 0),         # empty input
        (24, 100),       # three patterns per block, partial tail
    ]
    for bb, size in cases:
        data = rng.randbytes(size)
        assert xor_mask(data, schedule(bb)) == slow_mask(data, RAND4, REP4, 64, bb)


def test_rep_pattern_advances_per_block():
    # with 8-byte blocks every block must use fresh stream-two bits
    masked = bytes_to_bits(xor_mask(bytes(32), schedule(8)))
    n1 = slow_lcg_bits(*RAND4, 256)
    n2 = slow_lcg_bits(*REP4, 256)
    assert masked == [a ^ b for a, b in zip(n1, n2)]


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=4096))
def test_mask_involution_property(data):
    sched = schedule(64)
    assert xor_mask(xor_mask(data, sched), sched) == data
