import random

import pytest
from hypothesis import given, settings, strategies as st

from trishare import (
    CipherKey,
    EmptyFilename,
    InexactRoot,
    KeyOutOfRange,
    LengthMismatch,
    MaskSchedule,
    Mode,
    REFERENCE_RAND,
    REFERENCE_REP,
    SymbolOutOfRange,
    decrypt_bytes,
    derive_file_key,
    encrypt_bytes,
    fnv1a64,
    mask_schedule_for_key,
    open_file,
    seal_file,
    symbol_width,
)
import trishare
from trishare.cipher import DEFAULT_BLOCK_BYTES, MAX_POWER, _peeling_plan, _power_symbols
from trishare.hashing import fold64
from oracles import slow_fnv1a64, slow_power_decrypt


# ---------------------------------------------------------------- hashing

def test_fnv_known_vectors():
    # the canonical FNV-1a 64-bit reference values
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_fnv_matches_oracle():
    rng = random.Random(99)
    for _ in range(300):
        data = rng.randbytes(rng.randrange(0, 64))
        assert fnv1a64(data) == slow_fnv1a64(data)


# ---------------------------------------------------------------- key validation

def test_key_validation():
    with pytest.raises(KeyOutOfRange):
        CipherKey(a=0)
    with pytest.raises(KeyOutOfRange):
        CipherKey(a=44, n=2)  # additive keys are fixed at n=1
    with pytest.raises(KeyOutOfRange):
        CipherKey(a=255, n=2, mode=Mode.POWER)  # power needs a >= 256
    with pytest.raises(KeyOutOfRange):
        CipherKey(a=1000, n=MAX_POWER + 1, mode=Mode.POWER)
    assert CipherKey(a=44).n == 1
    assert CipherKey(a=256, n=MAX_POWER, mode=Mode.POWER).a == 256


def test_key_mode_must_be_a_mode():
    with pytest.raises(KeyOutOfRange):
        CipherKey(a=300, n=2, mode=7)
    with pytest.raises(KeyOutOfRange):
        CipherKey(a=300, n=1, mode=-1)
    key = CipherKey(a=300, n=2, mode=1)
    assert key.mode is Mode.POWER
    assert CipherKey(a=44, mode=0).mode is Mode.ADDITIVE


def test_symbol_width_frozen():
    assert symbol_width(CipherKey(a=44)) == 1
    # a=1000 has 10 bits; ceil(2*10/8)+1 = 4
    assert symbol_width(CipherKey(a=1000, n=2, mode=Mode.POWER)) == 4
    # a=300 has 9 bits; ceil(1*9/8)+1 = 3
    assert symbol_width(CipherKey(a=300, n=1, mode=Mode.POWER)) == 3


def test_symbol_width_overflow_guard():
    # 61-bit key at n=8 needs ceil(488/8)+1 = 62 bytes; fine
    big = CipherKey(a=(1 << 61) - 1, n=8, mode=Mode.POWER)
    assert symbol_width(big) == 62
    huge = CipherKey(a=1 << 2040, n=8, mode=Mode.POWER)
    with pytest.raises(KeyOutOfRange):
        symbol_width(huge)


# ---------------------------------------------------------------- raw involution

def test_additive_frozen_value():
    key = CipherKey(a=44)
    assert encrypt_bytes(bytes([65]), key) == bytes([235])
    assert decrypt_bytes(bytes([235]), key) == bytes([65])


def test_power_frozen_value():
    key = CipherKey(a=1000, n=2, mode=Mode.POWER)
    payload = encrypt_bytes(bytes([65]), key)
    assert len(payload) == 4
    assert int.from_bytes(payload, "big") == 935**2 == 874225
    assert decrypt_bytes(payload, key) == bytes([65])


def test_power_n1_frozen_value():
    key = CipherKey(a=300, n=1, mode=Mode.POWER)
    payload = encrypt_bytes(bytes([0]), key)
    assert int.from_bytes(payload, "big") == 300
    assert decrypt_bytes(payload, key) == bytes([0])


def test_involution_exhaustive_over_keys():
    all_bytes = bytes(range(256))
    rng = random.Random(0xC1F)
    for _ in range(100):
        add = CipherKey(a=rng.randrange(1, 1 << 61))
        assert decrypt_bytes(encrypt_bytes(all_bytes, add), add) == all_bytes
        pw = CipherKey(
            a=rng.randrange(256, 1 << 61),
            n=rng.randrange(1, MAX_POWER + 1),
            mode=Mode.POWER,
        )
        assert decrypt_bytes(encrypt_bytes(all_bytes, pw), pw) == all_bytes


def test_additive_is_self_inverse_table():
    # encrypting twice with the same additive key is the identity
    key = CipherKey(a=77)
    data = bytes(range(256))
    assert encrypt_bytes(encrypt_bytes(data, key), key) == data


def test_decrypt_rejects_ragged_payload():
    key = CipherKey(a=1000, n=2, mode=Mode.POWER)
    with pytest.raises(LengthMismatch):
        decrypt_bytes(b"\x00\x01\x02", key)  # width is 4


def test_decrypt_rejects_imperfect_power():
    key = CipherKey(a=1000, n=2, mode=Mode.POWER)
    bad = (874226).to_bytes(4, "big")
    good = encrypt_bytes(b"ok", key)
    # alone, and as the middle symbol between two valid ones
    for payload in (bad, good[:4] + bad + good[4:]):
        with pytest.raises(InexactRoot):
            decrypt_bytes(payload, key)


def test_decrypt_rejects_out_of_range_symbol():
    key = CipherKey(a=1000, n=2, mode=Mode.POWER)
    # (a+5)^2 is a perfect square but maps to s=-5
    bad = ((1000 + 5) ** 2).to_bytes(4, "big")
    good = encrypt_bytes(b"ok", key)
    for payload in (bad, good[:4] + bad + good[4:]):
        with pytest.raises(SymbolOutOfRange):
            decrypt_bytes(payload, key)


def test_decrypt_width_override():
    # the header's symbol width wins over the key's: wider symbols
    # round-trip, and at a width too narrow for most symbols the ones
    # that still fit decode as before
    all_bytes = bytes(range(256))
    key = CipherKey(a=1000, n=3, mode=Mode.POWER)
    width = symbol_width(key)
    payload = encrypt_bytes(all_bytes, key)
    wider = b"".join(b"\x00" + payload[i:i + width]
                     for i in range(0, len(payload), width))
    assert decrypt_bytes(wider, key, width=width + 1) == all_bytes
    narrow = CipherKey(a=256, n=1, mode=Mode.POWER)
    assert decrypt_bytes(b"\x01\x02", narrow, width=1) == bytes([255, 254])
    with pytest.raises(SymbolOutOfRange):
        decrypt_bytes(b"\x01\x00", narrow, width=1)


def test_wrong_power_key_fails_loudly():
    rng = random.Random(0xBAD)
    failures = 0
    for _ in range(100):
        key = CipherKey(a=rng.randrange(256, 1 << 32), n=2, mode=Mode.POWER)
        wrong = CipherKey(a=key.a + rng.randrange(1, 1000), n=2, mode=Mode.POWER)
        payload = encrypt_bytes(rng.randbytes(64), key)
        try:
            out = decrypt_bytes(payload, wrong, width=symbol_width(key))
            if out != payload:
                continue
        except (InexactRoot, SymbolOutOfRange):
            failures += 1
    assert failures >= 99


# ---------------------------------------------------------------- three-column decode

def _plan(key, width):
    return _peeling_plan(b"".join(_power_symbols(key.a, key.n, width)), width)


def _widen(payload, width, extra):
    """The same symbols as `extra` more leading zero bytes each."""
    return b"".join(bytes(extra) + payload[i:i + width]
                    for i in range(0, len(payload), width))


def test_plan_exists_for_derived_keys():
    # the fast path must not go dead silently for the keys files get
    rng = random.Random(0x3C0)
    for i in range(200):
        key = derive_file_key(rng.randrange(1, 1 << 61), f"file-{i}",
                              mode=Mode.POWER, n=1 + i % MAX_POWER)
        assert _plan(key, symbol_width(key)) is not None, key


def test_plan_tables_decode_every_symbol():
    key = derive_file_key(0x5EED, "plan.dat", mode=Mode.POWER, n=3)
    width = symbol_width(key)
    table = b"".join(_power_symbols(key.a, key.n, width))
    k, t0, t1, t2 = _peeling_plan(table, width)
    for s in range(256):
        sym = table[s * width:(s + 1) * width]
        assert t0[sym[k]] ^ t1[sym[k - 1]] ^ t2[sym[k - 2]] == s


def test_decrypt_without_plan_uses_lookup():
    key = CipherKey(a=256, n=8, mode=Mode.POWER)
    width = symbol_width(key)
    assert _plan(key, width) is None
    data = bytes(range(256)) * 2
    payload = encrypt_bytes(data, key)
    assert decrypt_bytes(payload, key) == data
    with pytest.raises(InexactRoot):
        decrypt_bytes(payload[:width] + bytes(width - 1) + b"\x02" + payload[width:], key)


derived_power_keys = st.builds(
    lambda master, name, n: derive_file_key(master, name, mode=Mode.POWER, n=n),
    st.integers(min_value=1, max_value=(1 << 61) - 1),
    st.text(min_size=1, max_size=8),
    st.integers(min_value=1, max_value=MAX_POWER),
)
hand_power_keys = st.builds(
    lambda a, n: CipherKey(a=a, n=n, mode=Mode.POWER),
    st.integers(min_value=256, max_value=2000),
    st.integers(min_value=1, max_value=MAX_POWER),
)
power_keys = st.one_of(derived_power_keys, hand_power_keys)


@settings(max_examples=60, deadline=None)
@given(power_keys, st.binary(max_size=2048), st.integers(min_value=0, max_value=2))
def test_decrypt_matches_brute_force_oracle(key, data, extra):
    width = symbol_width(key)
    payload = _widen(encrypt_bytes(data, key), width, extra)
    expected = slow_power_decrypt(payload, key.a, key.n, width + extra)
    assert expected == data
    assert decrypt_bytes(payload, key, width=width + extra) == expected


@settings(max_examples=80, deadline=None)
@given(power_keys, st.binary(min_size=1, max_size=512),
       st.integers(min_value=0, max_value=2), st.data())
def test_corrupt_payload_raises_as_oracle(key, data, extra, choices):
    width = symbol_width(key) + extra
    payload = _widen(encrypt_bytes(data, key), symbol_width(key), extra)
    a, n = key.a, key.n
    kind = choices.draw(st.sampled_from(["flip", "non-power", "out-of-range"]))
    if kind == "flip":
        at = choices.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        mask = choices.draw(st.integers(min_value=1, max_value=255))
        payload = payload[:at] + bytes([payload[at] ^ mask]) + payload[at + 1:]
    else:
        if kind == "non-power":
            # strictly between two consecutive n-th powers when n >= 2
            s = choices.draw(st.integers(min_value=0, max_value=255))
            bad = (a - s) ** n + 1
        else:
            # a root outside [a - 255, a] maps outside [0, 255]
            r = choices.draw(st.one_of(st.integers(min_value=0, max_value=a - 256),
                                       st.integers(min_value=a + 1, max_value=a + 255)))
            bad = r ** n
        at = len(data) // 2 * width
        payload = payload[:at] + bad.to_bytes(width, "big") + payload[at:]
    expected = slow_power_decrypt(payload, a, n, width)
    if isinstance(expected, str):
        with pytest.raises(getattr(trishare, expected)):
            decrypt_bytes(payload, key, width=width)
    else:
        assert decrypt_bytes(payload, key, width=width) == expected


# ---------------------------------------------------------------- file keys

def test_file_key_is_master_xor_hash():
    master = 0x1234_5678_9ABC_DEF0
    key = derive_file_key(master, b"report.pdf")
    assert key.a == master ^ fnv1a64(b"report.pdf")
    assert key.mode == Mode.ADDITIVE and key.n == 1
    assert derive_file_key(master, "report.pdf").a == key.a  # str form


def test_file_key_rename_changes_key():
    master = 777
    a1 = derive_file_key(master, b"one").a
    a2 = derive_file_key(master, b"two").a
    assert a1 != a2


def test_file_key_empty_name_rejected():
    with pytest.raises(EmptyFilename):
        derive_file_key(1, b"")


def test_file_key_additive_takes_only_n_one():
    # the same rule as CipherKey(a, n=2, mode=Mode.ADDITIVE)
    with pytest.raises(KeyOutOfRange):
        derive_file_key(0x5EED, b"f", mode=Mode.ADDITIVE, n=2)


def test_file_key_power_adjustment():
    # craft master so the xor lands below 256, forcing the +256 bump
    h = fnv1a64(b"f")
    key = derive_file_key(h ^ 5, b"f", mode=Mode.POWER, n=2)
    assert key.a == 5 + 256
    # exact-zero xor becomes 256 in either mode
    key0 = derive_file_key(h, b"f")
    assert key0.a == 256


# ---------------------------------------------------------------- sealed envelopes

def test_seal_open_round_trip_additive():
    key = CipherKey(a=44)
    data = b"attack at dawn" * 40
    env = seal_file(data, key)
    assert env.mode == Mode.ADDITIVE
    assert env.plaintext_len == len(data)
    assert len(env.payload) == len(data)
    assert open_file(env, key) == data


def test_seal_open_round_trip_power():
    key = CipherKey(a=1000, n=2, mode=Mode.POWER)
    data = bytes(range(256))
    env = seal_file(data, key)
    assert env.symbol_width == 4
    assert len(env.payload) == 4 * len(data)
    assert open_file(env, key) == data


def test_seal_empty_file():
    key = CipherKey(a=9)
    env = seal_file(b"", key)
    assert env.payload == b""
    assert open_file(env, key) == b""


def test_seal_masks_before_substitution():
    # constant plaintext must not become constant ciphertext
    key = CipherKey(a=44)
    env = seal_file(bytes(2048), key)
    assert len(set(env.payload)) > 16
    assert env.payload != encrypt_bytes(bytes(2048), key)


def test_mask_schedule_is_key_dependent_and_stable():
    s1 = mask_schedule_for_key(1000, 2, Mode.POWER)
    s2 = mask_schedule_for_key(1000, 2, Mode.POWER)
    s3 = mask_schedule_for_key(1001, 2, Mode.POWER)
    assert s1 == s2
    assert s1.rand_params != s3.rand_params
    assert s1.block_bytes == DEFAULT_BLOCK_BYTES


def test_mask_schedule_rejects_non_positive_key():
    # fold64 of a negative key would never reach 0 and never return
    for key_a in (0, -1, -(1 << 70)):
        with pytest.raises(KeyOutOfRange):
            mask_schedule_for_key(key_a, 1, Mode.ADDITIVE)


def test_fold64_rejects_negative_input():
    assert fold64(0) == 0
    assert fold64((5 << 64) | 3) == 6
    with pytest.raises(ValueError):
        fold64(-1)


def test_open_uses_header_geometry():
    # the envelope carries mode/n/width; only `a` comes from the caller key
    key = CipherKey(a=1000, n=2, mode=Mode.POWER)
    env = seal_file(b"hello", key)
    bare = CipherKey(a=1000, n=2, mode=Mode.POWER)
    assert open_file(env, bare) == b"hello"


def test_open_with_custom_schedule():
    sched = MaskSchedule(REFERENCE_RAND, REFERENCE_REP, rep_period_bits=32, block_bytes=512)
    key = CipherKey(a=5)
    data = b"x" * 700
    env = seal_file(data, key, schedule=sched)
    assert open_file(env, key, schedule=sched) == data
    assert open_file(env, key) != data  # default schedule cannot unmask


def test_open_detects_truncated_payload():
    key = CipherKey(a=44)
    env = seal_file(b"0123456789", key)
    with pytest.raises(LengthMismatch):
        type(env)(
            mode=env.mode,
            n=env.n,
            symbol_width=env.symbol_width,
            block_bytes=env.block_bytes,
            plaintext_len=env.plaintext_len,
            payload=env.payload[:-1],
        )


@settings(max_examples=30, deadline=None)
@given(st.binary(max_size=2048), st.integers(min_value=1, max_value=(1 << 61) - 1))
def test_seal_open_additive_property(data, a):
    key = CipherKey(a=a)
    assert open_file(seal_file(data, key), key) == data


@settings(max_examples=20, deadline=None)
@given(
    st.binary(max_size=512),
    st.integers(min_value=256, max_value=1 << 32),
    st.integers(min_value=1, max_value=4),
)
def test_seal_open_power_property(data, a, n):
    key = CipherKey(a=a, n=n, mode=Mode.POWER)
    assert open_file(seal_file(data, key), key) == data
