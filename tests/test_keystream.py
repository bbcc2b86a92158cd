import random

import pytest
from hypothesis import given, settings, strategies as st

from trishare import (
    REFERENCE_RAND,
    REFERENCE_REP,
    InvalidParams,
    Lcg,
    LcgParams,
    MaskSchedule,
    TooFewBits,
    lcg_bits,
    mask_rand,
    mask_rep,
    monobit_check,
    recommended_rand,
    recommended_rep,
    xor_mask,
)
from trishare.keystream import (MASK_MODULUS, MASK_RAND_MULTIPLIER,
                                MASK_REP_MULTIPLIER, _LANES, _lcg_bits_int)
from oracles import (
    bytes_to_bits,
    lcg_period,
    lehmer_window_bits,
    slow_lcg_bits,
    slow_lcg_states,
    slow_mask,
)

RAND4 = (REFERENCE_RAND.x0, REFERENCE_RAND.a, REFERENCE_RAND.c, REFERENCE_RAND.m)
REP4 = (REFERENCE_REP.x0, REFERENCE_REP.a, REFERENCE_REP.c, REFERENCE_REP.m)


# ---------------------------------------------------------------- generators

def test_reference_stream_first_step():
    # (1674 * 9741 + 1234) mod 231 = 223, an odd state, so the first bit is 1
    gen = Lcg(REFERENCE_RAND)
    assert gen.step() == 223
    assert lcg_bits(REFERENCE_RAND, 1) == [1]


def test_reference_stream_against_recurrence_oracle():
    assert lcg_bits(REFERENCE_RAND, 1000) == slow_lcg_bits(*RAND4, 1000)
    assert lcg_bits(REFERENCE_REP, 1000) == slow_lcg_bits(*REP4, 1000)


def test_generator_states_match_oracle():
    gen = Lcg(REFERENCE_REP)
    states = [gen.step() for _ in range(50)]
    assert states == slow_lcg_states(*REP4, 50)


def test_params_reduce_modulo_m():
    p = LcgParams(x0=10, a=7, c=5, m=4)
    assert (p.x0, p.a, p.c) == (2, 3, 1)


def test_modulus_below_two_rejected():
    with pytest.raises(InvalidParams):
        LcgParams(x0=0, a=1, c=0, m=1)


def test_degenerate_fixed_point_emits_zeros():
    assert lcg_bits(LcgParams(0, 1, 0, 2), 4) == [0, 0, 0, 0]


def test_alternating_parity():
    # x -> x+1 mod 2 flips parity every step
    assert lcg_bits(LcgParams(1, 1, 1, 2), 4) == [0, 1, 0, 1]


def test_streams_are_deterministic():
    a = lcg_bits(REFERENCE_RAND, 4096)
    b = lcg_bits(REFERENCE_RAND, 4096)
    assert a == b
    gen = Lcg(REFERENCE_RAND)
    assert gen.bits(4096) == a


def test_negative_count_rejected():
    with pytest.raises(InvalidParams):
        lcg_bits(REFERENCE_RAND, -1)


def test_period_never_exceeds_modulus():
    rng = random.Random(7)
    for m in range(2, 4097):
        params = (rng.randrange(m), rng.randrange(m), rng.randrange(m), m)
        assert lcg_period(*params) <= m


def test_packed_bit_generator_matches_list_form():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randrange(2, 1 << 32)
        params = LcgParams(rng.randrange(m), rng.randrange(m), rng.randrange(m), m)
        count = rng.randrange(0, 300)
        packed = _lcg_bits_int(params, count)
        assert [(packed >> i) & 1 for i in range(count)] == lcg_bits(params, count)


# Slab edges of the bit-sliced Lehmer generator: a slab is K = _LANES
# 64-bit lane words, 64 * K stream bits, and a count short of a slab
# shrinks it to ceil(count / 64) lanes.
SLAB_BITS = 64 * _LANES
LANE_EDGE_COUNTS = (
    0, 1, 31, 32, 33, 63, 64, 65, 127, 129, 1000,
    _LANES - 1, _LANES, _LANES + 1, 3 * _LANES + 5,
    SLAB_BITS - 65, SLAB_BITS - 1, SLAB_BITS, SLAB_BITS + 1,
    SLAB_BITS + 100, SLAB_BITS + 4097, 2 * SLAB_BITS + 65,
)
# Any c = 0, m = p multiplier takes the bit-sliced path, not only the
# two mask multipliers.
LEHMER_MULTIPLIERS = (MASK_RAND_MULTIPLIER, MASK_REP_MULTIPLIER, 1, MASK_MODULUS - 1,
                      random.Random(17).randrange(2, MASK_MODULUS - 1))


def bits_to_int(bits):
    return int("".join(map(str, reversed(bits))) or "0", 2)


def test_lane_generator_matches_recurrence_oracle_at_chunk_edges():
    x0s = (0, 1, MASK_MODULUS - 1, random.Random(13).randrange(1, MASK_MODULUS))
    longest = max(LANE_EDGE_COUNTS)
    for a in LEHMER_MULTIPLIERS:
        for x0 in x0s:
            params = LcgParams(x0, a, 0, MASK_MODULUS)
            expected = bits_to_int(slow_lcg_bits(x0, a, 0, MASK_MODULUS, longest))
            for count in LANE_EDGE_COUNTS:
                prefix = expected & ((1 << count) - 1)
                assert _lcg_bits_int(params, count) == prefix, (a, x0, count)


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
    packed = _lcg_bits_int(LcgParams(x0, a, 0, MASK_MODULUS), count)
    assert packed >> count == 0
    width = 5 * _LANES
    starts = {0, max(0, count - width)}
    starts.update(max(0, b - width // 2) for b in range(SLAB_BITS, count, SLAB_BITS))
    for start in sorted(starts):
        n = min(width, count - start)
        window = bits_to_int(lehmer_window_bits(x0, a, MASK_MODULUS, start, n))
        assert (packed >> start) & ((1 << n) - 1) == window, (start, n)


def test_recommended_params_have_full_period():
    # power-of-two modulus, c odd, a-1 divisible by 4: Hull-Dobell gives period m
    for params in (recommended_rand(1), recommended_rep(1)):
        assert params.c % 2 == 1
        assert (params.a - 1) % 4 == 0
        assert params.m & (params.m - 1) == 0


def test_recommended_parity_alternates():
    # the documented caveat: full-period power-of-two LCGs flip state
    # parity every step, so their bit stream is a shifted 0101... and
    # two of them XOR to a constant
    for seed in (1, 2, 31337):
        bits = lcg_bits(recommended_rand(seed), 64)
        assert bits == [(bits[0] + i) % 2 for i in range(64)]
        bits = lcg_bits(recommended_rep(seed), 64)
        assert bits == [(bits[0] + i) % 2 for i in range(64)]


def test_mask_params_do_not_alternate():
    for params in (mask_rand(12345), mask_rep(12345)):
        bits = lcg_bits(params, 256)
        assert bits != [(bits[0] + i) % 2 for i in range(256)]


def test_mask_params_avoid_zero_fixed_point():
    # multiplicative generator: a zero seed must not map to state 0
    for seed in (0, (1 << 31) - 2, 1 << 61):
        assert mask_rand(seed).x0 != 0
        assert mask_rep(seed).x0 != 0
        assert any(lcg_bits(mask_rand(seed), 64))


def test_mask_streams_pass_monobit():
    for params in (mask_rand(99), mask_rep(99)):
        assert monobit_check(lcg_bits(params, 100_000)).bias <= 0.05


# ---------------------------------------------------------------- mask schedule

def reference_schedule(**kw):
    kw.setdefault("rep_period_bits", 64)
    kw.setdefault("block_bytes", 1024)
    return MaskSchedule(rand_params=REFERENCE_RAND, rep_params=REFERENCE_REP, **kw)


def test_schedule_validation():
    with pytest.raises(InvalidParams):
        reference_schedule(rep_period_bits=4)
    with pytest.raises(InvalidParams):
        reference_schedule(rep_period_bits=48, block_bytes=1024)  # 8192 % 48 != 0
    with pytest.raises(InvalidParams):
        reference_schedule(block_bytes=0)
    assert reference_schedule(rep_period_bits=32, block_bytes=16).rep_period_bits == 32


def test_mask_is_an_involution():
    sched = reference_schedule()
    rng = random.Random(3)
    for size in (0, 1, 7, 8, 1023, 1024, 1025, 4096, 10_000):
        data = rng.randbytes(size)
        assert xor_mask(xor_mask(data, sched), sched) == data


def test_mask_of_zeros_is_the_keystream():
    sched = reference_schedule()
    masked = bytes_to_bits(xor_mask(bytes(1024), sched))
    n1 = lcg_bits(REFERENCE_RAND, 8192)
    n2_pattern = lcg_bits(REFERENCE_REP, 64)
    assert masked[0] == n1[0] ^ n2_pattern[0]
    for i in range(8192):
        assert masked[i] == n1[i] ^ n2_pattern[i % 64]


def test_mask_matches_bitwise_oracle():
    rng = random.Random(5)
    cases = [
        (64, 1024, 300),     # partial first block
        (64, 1024, 5000),    # spans blocks, partial tail
        (8, 2, 33),          # tiny blocks, pattern == block
        (12, 3, 64),         # pattern not byte aligned
        (32, 16, 0),         # empty input
        (16, 4, 17),
    ]
    for rpb, bb, size in cases:
        sched = reference_schedule(rep_period_bits=rpb, block_bytes=bb)
        data = rng.randbytes(size)
        assert xor_mask(data, sched) == slow_mask(data, RAND4, REP4, rpb, bb)


def test_rep_pattern_advances_per_block():
    # with 2-byte blocks the second block must use fresh stream-two bits
    sched = reference_schedule(rep_period_bits=16, block_bytes=2)
    masked = bytes_to_bits(xor_mask(bytes(4), sched))
    n1 = lcg_bits(REFERENCE_RAND, 32)
    n2 = lcg_bits(REFERENCE_REP, 32)
    assert masked == [a ^ b for a, b in zip(n1, n2)]


def test_zero_rep_stream_reduces_to_single_stream():
    sched = MaskSchedule(
        rand_params=REFERENCE_RAND,
        rep_params=LcgParams(0, 1, 0, 2),  # all-zero bits
        rep_period_bits=64,
        block_bytes=1024,
    )
    data = bytes(256)
    expected_bits = lcg_bits(REFERENCE_RAND, 2048)
    assert bytes_to_bits(xor_mask(data, sched)) == expected_bits


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=4096))
def test_mask_involution_property(data):
    sched = reference_schedule(rep_period_bits=32, block_bytes=64)
    assert xor_mask(xor_mask(data, sched), sched) == data


# ---------------------------------------------------------------- monobit

def test_monobit_alternating_is_unbiased():
    stats = monobit_check([0, 1] * 5000)
    assert stats.ones == stats.zeros == 5000
    assert stats.bias == 0.0


def test_monobit_needs_enough_bits():
    with pytest.raises(TooFewBits):
        monobit_check([1] * 999)


def test_recommended_stream_passes_monobit():
    stats = monobit_check(lcg_bits(recommended_rand(12345), 100_000))
    assert stats.bias <= 0.05
    stats = monobit_check(lcg_bits(recommended_rep(54321), 100_000))
    assert stats.bias <= 0.05
