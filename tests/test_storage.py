import errno
import hashlib
import os
import random
import stat
import struct
import tracemalloc
from unittest import mock

import pytest

from stores import sidecar_of

import trishare.policy
import trishare.storage
from trishare.policy import POLICY_DIGEST_FILENAME
from trishare.storage import envelope_pieces, is_object_key

from trishare import (
    BadHeader,
    CipherEnvelope,
    CipherKey,
    HEADER_BYTES,
    IoFailure,
    LengthMismatch,
    Mode,
    NotFound,
    ObjectStore,
    POLICY_FILENAME,
    PolicyDb,
    Truncated,
    UserRecord,
    UserType,
    decode_envelope,
    encode_envelope,
    fnv1a64,
    load_db,
    object_key,
    persist_db,
    register_user,
    seal_file,
)


def envelope(mode=Mode.ADDITIVE, n=1, width=1, block=1024, data=b"hi"):
    payload = data if mode == Mode.ADDITIVE else data * width
    return CipherEnvelope(
        mode=mode,
        n=n,
        symbol_width=width,
        block_bytes=block,
        plaintext_len=len(data),
        payload=payload,
    )


# ---------------------------------------------------------------- wire format

def test_header_is_twenty_bytes():
    assert HEADER_BYTES == 20
    env = envelope(data=b"")
    assert len(encode_envelope(env)) == 20


def test_golden_header_bytes():
    # independent struct pack: magic, version, mode, n, width, block u32, len u64
    env = envelope(mode=Mode.POWER, n=2, width=3, block=1024, data=b"ab")
    blob = encode_envelope(env)
    expected = struct.pack(">4sBBBBIQ", b"IFSC", 1, 1, 2, 3, 1024, 2) + b"ababab"
    assert blob == expected


def test_codec_round_trip():
    env = envelope(mode=Mode.POWER, n=3, width=4, data=b"data!")
    assert decode_envelope(encode_envelope(env)) == env


def test_decode_rejects_bad_magic():
    blob = bytearray(encode_envelope(envelope()))
    blob[0] = ord("X")
    with pytest.raises(BadHeader):
        decode_envelope(bytes(blob))


def test_decode_rejects_bad_version():
    blob = bytearray(encode_envelope(envelope()))
    blob[4] = 99
    with pytest.raises(BadHeader):
        decode_envelope(bytes(blob))


def test_decode_rejects_unknown_mode():
    blob = bytearray(encode_envelope(envelope()))
    blob[5] = 7
    with pytest.raises(BadHeader):
        decode_envelope(bytes(blob))


@pytest.mark.parametrize("offset, value", [(6, 7), (6, 2), (7, 9), (7, 2)],
                         ids=["n7", "n2", "width9", "width2"])
def test_decode_rejects_additive_header_with_n_or_width_not_one(offset, value):
    blob = bytearray(encode_envelope(seal_file(b"additive body", CipherKey(a=300))))
    assert blob[5:8] == b"\x00\x01\x01"  # mode, n, width
    blob[offset] = value
    with pytest.raises(BadHeader):
        decode_envelope(bytes(blob))


@pytest.mark.parametrize("n", range(2, 9))
def test_power_envelopes_decode_for_every_n(n):
    env = seal_file(b"power body", CipherKey(a=300, n=n, mode=Mode.POWER))
    assert decode_envelope(encode_envelope(env)) == env


def test_envelope_mode_is_a_mode():
    env = CipherEnvelope(mode=0, n=1, symbol_width=1, block_bytes=1024,
                         plaintext_len=2, payload=b"hi")
    assert env.mode is Mode.ADDITIVE
    assert envelope(mode=1, n=2, width=3).mode is Mode.POWER
    for bad in (2, "power", None):
        with pytest.raises(BadHeader):
            envelope(mode=bad)


@pytest.mark.parametrize("n, width", [(2, 1), (1, 4), (7, 9)])
def test_envelope_rejects_additive_n_or_width_not_one(n, width):
    with pytest.raises(BadHeader):
        envelope(mode=Mode.ADDITIVE, n=n, width=width)


@pytest.mark.parametrize("mode, n, width, length, payload", [
    (Mode.ADDITIVE, 1, 1, 5, b"ab"),
    (Mode.ADDITIVE, 1, 1, 0, b"a"),
    (Mode.POWER, 2, 3, 2, b"abcde"),
    (Mode.POWER, 2, 3, 2, b"abcdefg"),
], ids=["additive-short", "additive-long", "power-short", "power-long"])
def test_envelope_payload_must_match_its_header(mode, n, width, length, payload):
    # encode_envelope would write bytes that decode_envelope rejects
    with pytest.raises(LengthMismatch):
        CipherEnvelope(mode=mode, n=n, symbol_width=width, block_bytes=1024,
                       plaintext_len=length, payload=payload)


def test_decode_rejects_short_header():
    blob = encode_envelope(envelope())
    for cut in (0, 1, 19):
        with pytest.raises(Truncated):
            decode_envelope(blob[:cut])


def test_decode_rejects_short_payload():
    blob = encode_envelope(envelope(data=b"0123456789"))
    with pytest.raises(Truncated):
        decode_envelope(blob[:-3])


def test_truncated_is_a_bad_header():
    # callers that catch BadHeader also see truncation
    assert issubclass(Truncated, BadHeader)


def test_decode_rejects_trailing_garbage():
    blob = encode_envelope(envelope()) + b"\x00" * 3
    with pytest.raises(BadHeader, match="^3 trailing bytes after payload$"):
        decode_envelope(blob)


def test_power_payload_length_scales_with_width():
    env = envelope(mode=Mode.POWER, n=2, width=4, data=b"xyz")
    blob = encode_envelope(env)
    assert len(blob) == 20 + 3 * 4
    # clip one symbol: short for the declared plaintext_len
    with pytest.raises(Truncated):
        decode_envelope(blob[:-4])


def test_codec_fuzz_round_trip():
    rng = random.Random(0xF00D)
    for _ in range(10_000):
        mode = rng.choice([Mode.ADDITIVE, Mode.POWER])
        if mode == Mode.ADDITIVE:
            n = width = 1
        else:
            n = rng.randrange(1, 9)
            width = rng.randrange(1, 9)
        length = rng.randrange(0, 32)
        env = CipherEnvelope(
            mode=mode,
            n=n,
            symbol_width=width,
            block_bytes=rng.randrange(1, 1 << 32),
            plaintext_len=length,
            payload=rng.randbytes(length * (width if mode == Mode.POWER else 1)),
        )
        assert decode_envelope(encode_envelope(env)) == env


def test_sealed_file_survives_the_codec():
    key = CipherKey(a=1000, n=2, mode=Mode.POWER)
    env = seal_file(b"through the wire", key)
    assert decode_envelope(encode_envelope(env)) == env


# Digests of sealed envelopes for a payload of 16 full keystream slabs
# (64 * 2048 bits each) plus a partial one, pinned before the keystream
# was bit-sliced.  Unlike a round trip through the self-inverse mask,
# they catch a keystream that drifts after its first slab.
LARGE_PAYLOAD_BYTES = 262_147
LARGE_ENVELOPE_SHA256 = {
    (Mode.ADDITIVE, 1): "e5848852d66fa73269042e2384dbb4f06fb3f4652d7a002b502f25682e40ce75",
    (Mode.POWER, 3): "32eb0603ca3e54687017b77f972a3ea7e298bff81ffd71402f0b62c3c68448e9",
}


@pytest.mark.parametrize("mode,n", sorted(LARGE_ENVELOPE_SHA256))
def test_large_sealed_envelope_is_pinned(mode, n):
    payload = random.Random(20251221).randbytes(LARGE_PAYLOAD_BYTES)
    key = CipherKey(a=11400714819323198485, n=n, mode=mode)
    blob = encode_envelope(seal_file(payload, key))
    assert hashlib.sha256(blob).hexdigest() == LARGE_ENVELOPE_SHA256[(mode, n)]


# ---------------------------------------------------------------- object keys

def test_object_key_format():
    key = object_key("report.pdf")
    assert key == format(fnv1a64(b"report.pdf:0"), "016x")
    assert key == "e5a931bcf34a2d35"
    # only that form names a file inside objects/
    assert is_object_key(key)
    for ref in ("../../outside.bin", key.upper(), key[:-1], key + "0", key + "\n"):
        assert not is_object_key(ref), ref


def test_envelope_pieces_join_to_the_wire_format():
    env = seal_file(b"power body", CipherKey(a=300, n=3, mode=Mode.POWER))
    header, payload = envelope_pieces(env)
    assert len(header) == HEADER_BYTES and payload is env.payload
    assert header + payload == encode_envelope(env)


# ---------------------------------------------------------------- object store

def test_disk_store_round_trip(tmp_path):
    store = ObjectStore(tmp_path / "store")
    store.put_object("k1", [b"blob-on-disk"])
    assert store.get_object("k1") == b"blob-on-disk"
    with pytest.raises(NotFound):
        store.get_object("missing")
    store.write_text("t", [b"te", b"xt"], cache=("t.cache", b"c"))
    reopened = ObjectStore(tmp_path / "store")
    assert reopened.get_object("k1") == b"blob-on-disk"
    assert (reopened.read_bytes("t"), reopened.read_bytes("t.cache")) == (b"text", b"c")
    assert [p.name for p in (tmp_path / "store" / "objects").iterdir()] == ["k1"]


def test_disk_store_streams_pieces_without_joining_them(tmp_path):
    payload = os.urandom(400_000)
    store = ObjectStore(tmp_path / "store")
    store.put_object("k", [b"warm-up"])
    tracemalloc.start()
    try:
        store.put_object("k", [b"header", memoryview(payload)[:200_000],
                               memoryview(payload)[200_000:]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(payload) // 4, peak
    assert store.get_object("k") == b"header" + payload


def test_disk_store_overwrite_replaces(tmp_path):
    store = ObjectStore(tmp_path / "store")
    store.put_object("k", [b"old"])
    store.put_object("k", [b"new"])
    assert ObjectStore(tmp_path / "store").get_object("k") == b"new"


def test_no_temp_files_left_behind(tmp_path):
    store = ObjectStore(tmp_path / "store")
    for i in range(20):
        store.put_object(f"k{i}", [os.urandom(64)])
    leftovers = [p.name for p in (tmp_path / "store" / "objects").iterdir()
                 if p.name.endswith(".tmp")]
    assert leftovers == []


@pytest.mark.parametrize("step", ["fsync", "replace"])
def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch, step):
    store = ObjectStore(tmp_path / "store")
    store.put_object("k", [b"old"])

    def fail(*args):
        raise OSError(f"simulated {step} failure")

    monkeypatch.setattr(trishare.storage.os, step, fail)
    with pytest.raises(IoFailure):
        store.put_object("k", [b"new"])
    monkeypatch.undo()
    assert sorted(p.name for p in (tmp_path / "store" / "objects").iterdir()) == ["k"]
    assert store.get_object("k") == b"old"


def test_store_lock_is_shared_or_exclusive_on_the_root(tmp_path):
    fcntl = pytest.importorskip("fcntl")
    root = tmp_path / "store"
    root.mkdir()
    store = ObjectStore(root)

    def probe(operation):
        """Could another open of the root take `operation` now?"""
        fd = os.open(root, os.O_RDONLY | os.O_DIRECTORY)
        try:
            fcntl.flock(fd, operation | fcntl.LOCK_NB)
            return True
        except BlockingIOError:
            return False
        finally:
            os.close(fd)

    with store.lock(exclusive=False), store.lock(exclusive=False):
        assert probe(fcntl.LOCK_SH) and not probe(fcntl.LOCK_EX)
    with store.lock(exclusive=True):
        assert not probe(fcntl.LOCK_SH)
    assert probe(fcntl.LOCK_EX)
    assert list(root.iterdir()) == []
    # A missing root is NotFound, and nothing is created for it.
    with pytest.raises(NotFound):
        with ObjectStore(tmp_path / "typo" / "store").lock(exclusive=True):
            pass
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]


def test_failed_sidecar_write_names_the_sidecar(tmp_path, monkeypatch):
    store = ObjectStore(tmp_path / "store")
    persist_db(PolicyDb(), store)
    before = (tmp_path / "store" / POLICY_FILENAME).read_bytes()
    db = PolicyDb()
    register_user(db, UserRecord("olivia", UserType.OWNER, b"c"))
    sidecar = tmp_path / "store" / POLICY_DIGEST_FILENAME
    real_open = os.open

    def failing_open(path, *args, **kwargs):
        if os.fspath(path) == os.fspath(sidecar):
            raise OSError(errno.ENOSPC, "simulated failure opening the sidecar")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(trishare.storage.os, "open", failing_open)
    with pytest.raises(IoFailure) as info:
        persist_db(db, store)
    monkeypatch.undo()
    assert str(info.value).startswith(f"write failed for {sidecar}: ")
    assert (tmp_path / "store" / POLICY_FILENAME).read_bytes() == before
    assert [p.name for p in (tmp_path / "store").iterdir()
            if p.name.endswith(".tmp")] == []


def test_failed_sidecar_truncate_leaves_no_temp_file(tmp_path, monkeypatch):
    # the sidecar's in-place write fails before the policy is renamed:
    # the commit stops there and removes the policy's temp file
    store = ObjectStore(tmp_path / "store")
    store.write_text(POLICY_FILENAME, [b"old"])

    def ftruncate(fd, length):
        raise OSError(errno.EIO, "simulated failure truncating the sidecar")

    monkeypatch.setattr(trishare.storage.os, "ftruncate", ftruncate)
    with pytest.raises(IoFailure, match=POLICY_DIGEST_FILENAME):
        store.write_text(POLICY_FILENAME, [b"new"],
                         cache=(POLICY_DIGEST_FILENAME, b"digest"))
    monkeypatch.undo()
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == [
        POLICY_FILENAME, POLICY_DIGEST_FILENAME]
    assert store.read_bytes(POLICY_FILENAME) == b"old"


def test_sidecar_symlink_is_never_written_through(tmp_path):
    store = ObjectStore(tmp_path / "store")
    persist_db(PolicyDb(), store)
    policy = tmp_path / "store" / POLICY_FILENAME
    before = policy.read_bytes()
    outside = tmp_path / "outside.txt"
    outside.write_bytes(b"not the store's")
    sidecar = tmp_path / "store" / POLICY_DIGEST_FILENAME
    sidecar.unlink()
    sidecar.symlink_to(outside)
    db = PolicyDb()
    register_user(db, UserRecord("olivia", UserType.OWNER, b"c"))
    with pytest.raises(IoFailure, match=f"write failed for {sidecar}: "):
        persist_db(db, store)
    assert outside.read_bytes() == b"not the store's"
    assert sidecar.is_symlink() and policy.read_bytes() == before


def test_hard_linked_sidecar_is_refused(tmp_path):
    store = ObjectStore(tmp_path / "store")
    persist_db(PolicyDb(), store)
    policy = tmp_path / "store" / POLICY_FILENAME
    before = policy.read_bytes()
    sidecar = tmp_path / "store" / POLICY_DIGEST_FILENAME
    other = tmp_path / "other-link"
    os.link(sidecar, other)
    linked = other.read_bytes()
    db = PolicyDb()
    register_user(db, UserRecord("olivia", UserType.OWNER, b"c"))
    with pytest.raises(IoFailure, match="not a regular file with one link"):
        persist_db(db, store)
    assert other.read_bytes() == linked and policy.read_bytes() == before


def test_sidecar_with_junk_after_the_digest_is_cut_back(tmp_path):
    store = ObjectStore(tmp_path / "store")
    persist_db(PolicyDb(), store)
    sidecar = tmp_path / "store" / POLICY_DIGEST_FILENAME
    sidecar.write_bytes(sidecar.read_bytes() + b"junk" * 40)
    db = PolicyDb()
    register_user(db, UserRecord("olivia", UserType.OWNER, b"c"))
    persist_db(db, store)
    policy = (tmp_path / "store" / POLICY_FILENAME).read_bytes()
    assert sidecar.read_bytes() == sidecar_of(policy) and len(sidecar_of(policy)) == 65
    with mock.patch.object(trishare.policy, "db_from_json",
                           side_effect=AssertionError("full parse")):
        assert load_db(store).users.keys() == {"olivia"}


def test_writes_to_one_path_use_distinct_temp_names(tmp_path, monkeypatch):
    store = ObjectStore(tmp_path / "store")
    sources = []
    real_replace = os.replace

    def recording_replace(src, dst):
        sources.append(os.path.basename(src))
        real_replace(src, dst)

    monkeypatch.setattr(trishare.storage.os, "replace", recording_replace)
    store.put_object("k", [b"one"])
    store.put_object("k", [b"two"])
    assert len(set(sources)) == 2
    assert all(name.startswith("k.") and name.endswith(".tmp") for name in sources)


def synced_paths(fsyncs, base):
    """Name each fsynced inode by its path under `base` ("." for `base`
    itself), then forget them."""
    paths = {p.stat().st_ino: p.relative_to(base).as_posix()
             for p in [base, *base.rglob("*")]}
    names = [paths[ino] for ino in fsyncs]
    fsyncs.clear()
    return names


def test_write_fsyncs_file_then_directory(tmp_path, fsyncs):
    store = ObjectStore(tmp_path / "store")
    store.put_object("k", [b"old"])
    persist_db(PolicyDb(), store)
    fsyncs.clear()
    store.put_object("k", [b"blob"])
    assert synced_paths(fsyncs, tmp_path) == ["store/objects/k", "store/objects"]
    # The sidecar is written in place but never fsynced: it is only a cache.
    persist_db(PolicyDb(), store)
    assert synced_paths(fsyncs, tmp_path) == ["store/policy.json", "store"]


def test_first_write_syncs_the_parent_of_each_directory_it_made(tmp_path, fsyncs):
    store = ObjectStore(tmp_path / "a" / "store")
    persist_db(PolicyDb(), store)
    assert synced_paths(fsyncs, tmp_path) == [
        "a/store/policy.json", "a/store", "a", "."]
    store.put_object("k", [b"blob"])
    assert synced_paths(fsyncs, tmp_path) == [
        "a/store/objects/k", "a/store/objects", "a/store"]


def _failing_directory_fsync(monkeypatch, err):
    real_fsync = os.fsync

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(err, os.strerror(err))
        real_fsync(fd)

    monkeypatch.setattr(trishare.storage.os, "fsync", fsync)


@pytest.mark.parametrize("err", [errno.EINVAL, errno.EOPNOTSUPP])
def test_directory_fsync_unsupported_is_not_a_failure(tmp_path, monkeypatch, err):
    store = ObjectStore(tmp_path / "store")
    store.put_object("k", [b"old"])
    _failing_directory_fsync(monkeypatch, err)
    store.put_object("k", [b"new"])
    assert store.get_object("k") == b"new"


def test_failed_directory_fsync_says_file_was_replaced(tmp_path, monkeypatch):
    store = ObjectStore(tmp_path / "store")
    store.put_object("k", [b"old"])
    _failing_directory_fsync(monkeypatch, errno.EIO)
    with pytest.raises(IoFailure, match="was replaced.*may not survive a crash"):
        store.put_object("k", [b"new"])
    monkeypatch.undo()
    assert sorted(p.name for p in (tmp_path / "store" / "objects").iterdir()) == ["k"]
    assert store.get_object("k") == b"new"


def test_new_file_is_private_and_rewrite_keeps_mode(tmp_path):
    store = ObjectStore(tmp_path / "store")
    store.write_text(POLICY_FILENAME, [b"{}"])
    path = tmp_path / "store" / POLICY_FILENAME
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    path.chmod(0o644)
    store.write_text(POLICY_FILENAME, [b"{ }"])
    assert stat.S_IMODE(path.stat().st_mode) == 0o644
    assert path.read_text() == "{ }"


def test_store_is_created_by_its_first_write(tmp_path):
    root = tmp_path / "a" / "store"
    store = ObjectStore(root)
    assert not (tmp_path / "a").exists()
    with pytest.raises(NotFound):
        store.get_object("k")
    with pytest.raises(NotFound):
        store.read_bytes(POLICY_FILENAME)
    assert not (tmp_path / "a").exists()
    store.write_text(POLICY_FILENAME, [b"{}"])
    assert sorted(p.name for p in root.iterdir()) == [POLICY_FILENAME]
    store.put_object("k", [b"blob"])
    assert sorted(p.name for p in (root / "objects").iterdir()) == ["k"]


def test_text_files_round_trip(tmp_path):
    store = ObjectStore(tmp_path / "s")
    store.write_text("policy.json", [b'{"ok": ', memoryview(b"true}")])
    assert store.read_bytes("policy.json") == b'{"ok": true}'
    with pytest.raises(NotFound):
        store.read_bytes("absent.json")


def test_text_files_are_not_objects(tmp_path):
    db = PolicyDb()
    register_user(db, UserRecord("olivia", UserType.OWNER, b"c"))
    store = ObjectStore(tmp_path / "s")
    store.put_object("k", [b"blob"])
    persist_db(db, store)
    assert [p.name for p in (tmp_path / "s" / "objects").iterdir()] == ["k"]
    with pytest.raises(NotFound):
        store.get_object("::policy.json")
    assert load_db(store).users.keys() == {"olivia"}
    assert (tmp_path / "s" / "policy.json").exists()
