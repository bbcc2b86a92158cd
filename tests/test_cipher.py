import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from trishare import (
    BadHeader,
    CipherKey,
    EmptyFilename,
    InexactRoot,
    KeyOutOfRange,
    LengthMismatch,
    CipherEnvelope,
    InvalidParams,
    Mode,
    SymbolOutOfRange,
    decrypt_bytes,
    derive_file_key,
    encrypt_bytes,
    fnv1a64,
    integer_nth_root,
    mask_schedule_for_key,
    open_file,
    seal_file,
    symbol_width,
    xor_mask,
)
import trishare
from trishare.cipher import (DEFAULT_BLOCK_BYTES, MAX_POWER, _decrypt_by_columns,
                             _peeling_plan, _power_symbols)
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
    # the largest width the u8 header field holds, and one past it
    assert symbol_width(CipherKey(a=1 << 253, n=8, mode=Mode.POWER)) == 255
    with pytest.raises(KeyOutOfRange):
        symbol_width(CipherKey(a=1 << 254, n=8, mode=Mode.POWER))


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
        with pytest.raises(SymbolOutOfRange, match=r"^symbol maps outside \[0, 255\]$"):
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
        key = derive_file_key(rng.randrange(1, 1 << 61), b"file-%d" % i,
                              mode=Mode.POWER, n=1 + i % MAX_POWER)
        assert _plan(key, symbol_width(key)) is not None, key
    # at the narrowest width, 3, only the columns 2, 1, 0 are left
    key = derive_file_key(fnv1a64(b"f") ^ 300, b"f", mode=Mode.POWER, n=1)
    assert symbol_width(key) == 3 and _plan(key, 3) is not None


def test_plan_tables_decode_every_symbol():
    key = derive_file_key(0x5EED, b"plan.dat", mode=Mode.POWER, n=3)
    width = symbol_width(key)
    table = b"".join(_power_symbols(key.a, key.n, width))
    k, t0, t1, t2 = _peeling_plan(table, width)
    for s in range(256):
        sym = table[s * width:(s + 1) * width]
        assert t0[sym[k]] ^ t1[sym[k - 1]] ^ t2[sym[k - 2]] == s


def test_plan_decodes_a_payload_by_columns():
    # the column decode itself must succeed, not fall back to the lookup
    key = derive_file_key(0x5EED, b"plan.dat", mode=Mode.POWER, n=3)
    width = symbol_width(key)
    table = b"".join(_power_symbols(key.a, key.n, width))
    data = random.Random(3).randbytes(700)
    assert _decrypt_by_columns(encrypt_bytes(data, key), table, width) == data


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
    st.binary(min_size=1, max_size=8),
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
    # 256 is already a Power key, 255 is bumped
    assert derive_file_key(h ^ 256, b"f", mode=Mode.POWER, n=2).a == 256
    assert derive_file_key(h ^ 255, b"f", mode=Mode.POWER, n=2).a == 511


def test_power_symbol_root_bounds_the_key():
    # Every symbol is (a - s)^n for a masked byte s, so its integer n-th
    # root r gives r <= a < r + 256: the envelope alone leaves at most 256
    # keys.  A known prefix picks a among them, and a with the file id
    # gives the master secret.
    known = b"%PDF-1.7\n%\xe2\xe3\xcf\xd3\n"
    for n in range(1, MAX_POWER + 1):
        for master in (0x1234_5678_9ABC_DEF0, (1 << 61) - 2):
            key = derive_file_key(master, b"report.pdf", mode=Mode.POWER, n=n)
            env = seal_file(known + bytes(range(50)), key)
            width = env.symbol_width
            roots = [integer_nth_root(int.from_bytes(env.payload[i:i + width], "big"), n)
                     for i in range(0, len(env.payload), width)]
            assert all(r <= key.a < r + 256 for r in roots), n
            fits = [a for a in range(max(roots), min(roots) + 256)
                    if open_file(env, CipherKey(a, n, Mode.POWER)).startswith(known)]
            assert fits == [key.a], n
            assert key.a ^ fnv1a64(b"report.pdf") == master


@pytest.mark.parametrize("block_bytes, ok", [
    (0, False), (1, True), ((1 << 32) - 1, True), (1 << 32, False)])
def test_envelope_block_bytes_is_a_u32_above_zero(block_bytes, ok):
    def make():
        return CipherEnvelope(mode=Mode.ADDITIVE, n=1, symbol_width=1,
                              block_bytes=block_bytes, plaintext_len=0,
                              payload=b"")
    if ok:
        assert make().block_bytes == block_bytes
    else:
        with pytest.raises(BadHeader):
            make()


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
    top = CipherKey(a=1000, n=MAX_POWER, mode=Mode.POWER)
    assert open_file(seal_file(data, top), top) == data


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
    s1 = mask_schedule_for_key(CipherKey(a=1000, n=2, mode=Mode.POWER))
    s2 = mask_schedule_for_key(CipherKey(a=1000, n=2, mode=Mode.POWER))
    s3 = mask_schedule_for_key(CipherKey(a=1001, n=2, mode=Mode.POWER))
    assert s1 == s2
    assert s1.rand_x0 != s3.rand_x0
    assert s1.rep_x0 != s3.rep_x0
    assert s1.block_bytes == DEFAULT_BLOCK_BYTES


# SHA-256 of the mask itself, xor_mask over zeros, for every header
# block size in use (1024 by default, 512 and 8 as a header may carry)
# and lengths around a block edge and across 2048-lane slabs (131,073 B
# is 8 full slabs of 64 * 2048 bits plus a byte).  Pinned before the
# keystream lost its general-LCG branch; the mask must never drift.
# The 8, 4099 and 1,048,581 B pins (one Rep period, a few blocks and a
# bit, and 64 full slabs plus a partial one) were added before the
# Lehmer kernel moved to 96-bit tap lanes.
MASK_PIN_KEY_A = 11400714819323198485
MASK_SHA256 = {
    (Mode.ADDITIVE, 1024, 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (Mode.ADDITIVE, 1024, 1):
        "ef6cbd2161eaea7943ce8693b9824d23d1793ffb1c0fca05b600d3899b44c977",
    (Mode.ADDITIVE, 1024, 1023):
        "4939c604f556954e6391cc5611516e584564c0b1873eddc7635ddc7606aa1436",
    (Mode.ADDITIVE, 1024, 1024):
        "67422dbf648cbb1ca8f7029686da6660f814021d6d18227e3a700d62b5dcd68b",
    (Mode.ADDITIVE, 1024, 1025):
        "4677a2054af6361d829506b69971ac095a596fb4e15ff220ce5136de6227abb8",
    (Mode.ADDITIVE, 1024, 8):
        "532331309e26ef7dbd196bb8ccd7bebecde4e20cf34fb4ebce6e36daed858ba8",
    (Mode.ADDITIVE, 1024, 4099):
        "7f9adc6d609112e4344e9257bf181b61861886cba29c4ec901e32ea89f508fb2",
    (Mode.ADDITIVE, 1024, 131073):
        "86acacc1089f7db7ab000241575fd6ed52fb7bdc9d92d288c4bbab820d01328d",
    (Mode.ADDITIVE, 1024, 1048581):
        "94c01628867be1d2de0807061d4701b8f260bf97593acf504824b27412eec7d9",
    (Mode.ADDITIVE, 512, 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (Mode.ADDITIVE, 512, 1):
        "ef6cbd2161eaea7943ce8693b9824d23d1793ffb1c0fca05b600d3899b44c977",
    (Mode.ADDITIVE, 512, 1023):
        "769b8a8b9158f102c404aa88c71b46e56291156c39e8ec2a3b23f81c6109d5e6",
    (Mode.ADDITIVE, 512, 1024):
        "db178d64905582554210aab802ecb5166e45d8c373a24180a99bda52533b74d1",
    (Mode.ADDITIVE, 512, 1025):
        "62b7ba30d7b609e8e91b9d9d903d32ef7911adb5199eb8d0a0daf9da6609d933",
    (Mode.ADDITIVE, 512, 131073):
        "0c480ffcd982e4e9935e69f35c3598e0f5c0a8af1bef15574ea2f204a0741d45",
    (Mode.ADDITIVE, 8, 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (Mode.ADDITIVE, 8, 1):
        "ef6cbd2161eaea7943ce8693b9824d23d1793ffb1c0fca05b600d3899b44c977",
    (Mode.ADDITIVE, 8, 1023):
        "922e06cd2f817e0dad700549206f5aa79659f7a4a5320f6434ca7957cfed3750",
    (Mode.ADDITIVE, 8, 1024):
        "9e04dfeefcdc8b17dddd983ade9df4899a2d249d357187d3a1714c2591b53f08",
    (Mode.ADDITIVE, 8, 1025):
        "6263a5b6f8b30d9e550c1a53d77d3497747536761f5e840151882cc208855424",
    (Mode.ADDITIVE, 8, 131073):
        "8da3528b4599336ede5bd8925426fa17b9bf07d88a029fff53945e58be08603b",
    (Mode.POWER, 1024, 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (Mode.POWER, 1024, 1):
        "19152ddfba193b5b09fcb80d1bba5248f36027c06e81670db5a7146fb654d4ec",
    (Mode.POWER, 1024, 1023):
        "17a6a0016ee02dfaa5ac995e8f0e4ea1f992dd03c3822f6342dda495ff9b0545",
    (Mode.POWER, 1024, 1024):
        "bfa3915e146a768a5844a54461cddaa89116660174909c999d15a15b15f65f2b",
    (Mode.POWER, 1024, 1025):
        "29dfbadd7612048d1d792e5ca86338d492173b6913e4a20acd4cc5d4dd9c717b",
    (Mode.POWER, 1024, 8):
        "f45d8c4e85a363a05cbeffc2cd12cadf8118f7aaf88238cb3da190267cbc5add",
    (Mode.POWER, 1024, 4099):
        "5372fa8c0c873d5492d576a314113aaf3b90537fd54d8422f3a16465ec577178",
    (Mode.POWER, 1024, 131073):
        "db2c0122bc2227449511b03c2ef82697d4db2fcc26cad1fd80d3ec26c07a6287",
    (Mode.POWER, 1024, 1048581):
        "dcfe2ecb2353507cf65d35a2fabea89a4352f29b20561451b011452ba1e4f8a3",
    (Mode.POWER, 512, 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (Mode.POWER, 512, 1):
        "19152ddfba193b5b09fcb80d1bba5248f36027c06e81670db5a7146fb654d4ec",
    (Mode.POWER, 512, 1023):
        "7814f09e4fd9b04d2ed7c2e7ee2647ba530408a0ff82a1f99caa7fdf47f44dd5",
    (Mode.POWER, 512, 1024):
        "ce009d4b745c39e5c164436bc5ada235bbda2da932ec3f18b98335ac4fc27400",
    (Mode.POWER, 512, 1025):
        "dbe3db2d86e6f038886077112623bdb5f6fd4621b8a0effdd4b8770787d359c1",
    (Mode.POWER, 512, 131073):
        "df7643cafcfd85084689009ae54ecc0d701c73473194fa9ed9f7f50268de26a3",
    (Mode.POWER, 8, 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (Mode.POWER, 8, 1):
        "19152ddfba193b5b09fcb80d1bba5248f36027c06e81670db5a7146fb654d4ec",
    (Mode.POWER, 8, 1023):
        "324749203c689db5cdd60e07e4919d4b1a9564fdc401029a58bb2ce67785be5a",
    (Mode.POWER, 8, 1024):
        "59e8f9aea16f9f0a2b12da779840094dc54c57902a4990ff68e4326031fa7547",
    (Mode.POWER, 8, 1025):
        "22911c552d36b0316e66c54e9ef1b6e86bfcf7849d59ca7e6cd48c87a9d4b91d",
    (Mode.POWER, 8, 131073):
        "952a9c86b7a24f4cc2fdf362fa1faf37f8b706f84b95cb2fc4cab3812b4be79d",
}


@pytest.mark.parametrize("mode,block_bytes,length", sorted(MASK_SHA256),
                         ids=lambda v: v.name.lower() if isinstance(v, Mode) else str(v))
def test_key_schedule_mask_is_pinned(mode, block_bytes, length):
    n = 1 if mode == Mode.ADDITIVE else 3
    schedule = mask_schedule_for_key(CipherKey(a=MASK_PIN_KEY_A, n=n, mode=mode),
                                     block_bytes)
    digest = hashlib.sha256(xor_mask(bytes(length), schedule)).hexdigest()
    assert digest == MASK_SHA256[(mode, block_bytes, length)]


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


def test_open_takes_the_mask_block_size_from_the_header():
    key = CipherKey(a=5)
    data = b"x" * 700
    masked = xor_mask(data, mask_schedule_for_key(key, 512))
    env = CipherEnvelope(mode=key.mode, n=1, symbol_width=1, block_bytes=512,
                         plaintext_len=len(data), payload=encrypt_bytes(masked, key))
    assert open_file(env, key) == data
    assert env.payload != seal_file(data, key).payload  # the default block differs


@pytest.mark.parametrize("block_bytes", [1, 7, 100, 1020])
def test_open_refuses_a_header_block_size_off_the_rep_period(block_bytes):
    # the 64-bit Rep pattern must tile the block, so the header's block
    # size must be a multiple of 8 bytes
    key = CipherKey(a=5)
    env = CipherEnvelope(mode=key.mode, n=1, symbol_width=1, block_bytes=block_bytes,
                         plaintext_len=3, payload=b"abc")
    with pytest.raises(InvalidParams):
        open_file(env, key)


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
