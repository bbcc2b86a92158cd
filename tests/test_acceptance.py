"""Acceptance gate: eight criteria, each with a stated runtime budget.

Every test appends one "[criterion N] PASS/FAIL" line to
CRITERION_RESULTS; conftest echoes them in the terminal summary so the
verdicts survive pytest's output capture.
"""

import json
import math
import random
import statistics
import time
from contextlib import contextmanager
from itertools import combinations
from typing import List

import pytest

from trishare import (
    BindingMismatch,
    CipherKey,
    InsufficientPoints,
    Mode,
    NotGranted,
    ObjectStore,
    PolicyDb,
    ReconstructionInput,
    RoleMismatch,
    SharePoint,
    UserRecord,
    UserType,
    db_to_json,
    decrypt_bytes,
    decrypt_share,
    default_modulus,
    encrypt_bytes,
    grant_access,
    modulus_for,
    open_file,
    reconstruct_polynomial,
    reconstruct_secret,
    register_user,
    request_decrypt,
    revoke_user,
    seal_file,
    split_secret,
    update_owner_share,
)
from trishare.authz import OWNER_X
from trishare.bench import MIN_REPS, StorageOverheadModel, verify_reference_example
from trishare.cipher import MAX_POWER

TABLE_POINTS = ((1, 1494), (2, 1942), (3, 2578), (4, 3402), (5, 4414), (6, 5614))

CRITERION_RESULTS: List[str] = []


@contextmanager
def criterion(num: int, bound_s: float, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        CRITERION_RESULTS.append(
            f"[criterion {num}] FAIL - {label} ({elapsed:.2f}s)"
        )
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= bound_s:
        CRITERION_RESULTS.append(
            f"[criterion {num}] FAIL - {label}: {elapsed:.2f}s exceeds "
            f"the {bound_s:.0f}s budget"
        )
        pytest.fail(f"criterion {num} overran: {elapsed:.2f}s >= {bound_s}s")
    line = (f"[criterion {num}] PASS - {label} "
            f"({elapsed:.2f}s, budget {bound_s:.0f}s)")
    CRITERION_RESULTS.append(line)
    print(line)


# ---------------------------------------------------------------------------

def test_criterion_1_worked_example_exact():
    with criterion(1, 1.0, "worked example splits and reconstructs exactly"):
        m = default_modulus()
        pts = split_secret(1234, [166, 94], 6, m)
        assert tuple((pt.x, pt.y) for pt in pts) == TABLE_POINTS
        chosen = tuple(pt for pt in pts if pt.x in (2, 4, 5))
        inp = ReconstructionInput(chosen)
        assert reconstruct_secret(inp) == 1234
        assert reconstruct_polynomial(inp).coeffs == (1234, 166, 94)
        assert verify_reference_example()["passed"]


def test_criterion_2_two_shares_reveal_nothing():
    with criterion(2, 30.0, "p=97 brute force: every secret fits any 2 shares "
                            "equally often"):
        p = 97
        m97 = modulus_for(p)
        issued = [(pt.x, pt.y) for pt in split_secret(42, [17, 29], 6, m97)]
        xs = [x for x, _ in issued]
        ys = [y for _, y in issued]
        x2 = [x * x % p for x in xs]
        pairs = list(combinations(range(6), 2))
        counts = {pr: [0] * p for pr in pairs}
        # full enumeration of the 97^3 degree-2 polynomials
        for a1 in range(p):
            for a2 in range(p):
                need = [(ys[i] - a1 * xs[i] - a2 * x2[i]) % p for i in range(6)]
                for a0 in range(p):
                    matched = [i for i in range(6) if need[i] == a0]
                    if len(matched) >= 2:
                        for pr in combinations(matched, 2):
                            counts[pr][a0] += 1
        for pr in pairs:
            assert all(c == 1 for c in counts[pr]), pr


def test_criterion_3_any_three_of_six():
    with criterion(3, 1.0, "all 20 3-subsets of the reference shares agree"):
        m = default_modulus()
        pts = split_secret(1234, [166, 94], 6, m)
        for trio in combinations(pts, 3):
            inp = ReconstructionInput(tuple(trio))
            assert reconstruct_secret(inp) == 1234
            assert reconstruct_polynomial(inp).coeffs == (1234, 166, 94)


def test_criterion_4_cipher_involution():
    with criterion(4, 60.0, "involution exhaustive over keys; sealed files "
                            "0 B - 1 MiB round-trip"):
        all_bytes = bytes(range(256))
        rng = random.Random(0xACC4)
        for _ in range(100):
            add = CipherKey(a=rng.randrange(1, 1 << 61))
            assert decrypt_bytes(encrypt_bytes(all_bytes, add), add) == all_bytes
            pw = CipherKey(a=rng.randrange(256, 1 << 61),
                           n=rng.randrange(1, MAX_POWER + 1), mode=Mode.POWER)
            assert decrypt_bytes(encrypt_bytes(all_bytes, pw), pw) == all_bytes
        sizes = (0, 1, 3, 1024, 65536, 1 << 20)
        for mode, key in ((Mode.ADDITIVE, CipherKey(a=rng.randrange(1, 1 << 61))),
                          (Mode.POWER, CipherKey(a=rng.randrange(256, 1 << 61),
                                                 n=2, mode=Mode.POWER))):
            for size in sizes:
                data = rng.randbytes(size)
                assert open_file(seal_file(data, key), key) == data


def test_criterion_5_additive_envelope_overhead():
    with criterion(5, 5.0, "additive envelope stays within 1.02x of the "
                           "plaintext at 5-30 KB"):
        rng = random.Random(0xACC5)
        key = CipherKey(a=rng.randrange(1, 1 << 61))
        for kb in (5, 10, 15, 20, 25, 30):
            size = kb * 1024
            data = rng.randbytes(size)
            env = seal_file(data, key)
            total = 20 + len(env.payload)
            assert total / size <= 1.02, (kb, total / size)


def _min_seconds_round_robin(fns, reps):
    """Fastest of `reps` timed calls of each fn, the fns taken in turn.

    Taking the sizes in turn spreads a slow spell on a shared machine
    over all of them instead of one, and the minimum drops the calls
    such a spell slowed down; a median of one size's calls in a row
    keeps both.
    """
    for fn in fns:
        fn()
    best = [float("inf")] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    return statistics.linear_regression([math.log(x) for x in xs],
                                        [math.log(y) for y in ys]).slope


def test_criterion_6_complexity_trends():
    with criterion(6, 120.0, "split scales ~linearly in n and k; "
                             "reconstruction ~quadratically in k"):
        m = default_modulus()
        p = m.p
        rng = random.Random(0xACC6)
        reps = max(MIN_REPS, 7)

        ns = [400, 800, 1600, 3200]
        fns = []
        for n in ns:
            coeffs = [rng.randrange(1, p) for _ in range(2)]
            fns.append(lambda n=n, coeffs=coeffs: split_secret(123456, coeffs, n, m))
        slope_n = loglog_slope(ns, _min_seconds_round_robin(fns, reps))
        assert 0.7 <= slope_n <= 1.4, f"split-vs-n slope {slope_n:.3f}"

        ks = [32, 64, 128, 256]
        fns = []
        for k in ks:
            coeffs = [rng.randrange(1, p) for _ in range(k - 1)]
            fns.append(lambda coeffs=coeffs: split_secret(5, coeffs, 256, m))
        slope_k = loglog_slope(ks, _min_seconds_round_robin(fns, reps))
        assert 0.7 <= slope_k <= 1.4, f"split-vs-k slope {slope_k:.3f}"

        ks = [16, 32, 64, 128]
        fns = []
        for k in ks:
            coeffs = [rng.randrange(1, p) for _ in range(k - 1)]
            pts = tuple(split_secret(99, coeffs, k, m))
            inp = ReconstructionInput(pts)
            fns.append(lambda inp=inp: reconstruct_secret(inp))
        slope_r = loglog_slope(ks, _min_seconds_round_robin(fns, reps))
        assert 1.5 <= slope_r <= 2.6, f"reconstruct-vs-k slope {slope_r:.3f}"


# ---------------------------------------------------------------------------
# Criterion 7 support
# ---------------------------------------------------------------------------

def _fresh_policy(root):
    db = PolicyDb()
    owner = UserRecord("owner", UserType.OWNER, b"cred-owner")
    register_user(db, owner)
    return db, ObjectStore(root), owner


def _assert_owner_points_absent(db):
    for grant in db.grants.values():
        assert grant.server_share.x != OWNER_X
        for rec in grant.consumer_shares.values():
            assert rec.x != OWNER_X
    wire = json.loads(db_to_json(db))
    for g in wire["grants"]:
        assert g["server_share"]["x"] != OWNER_X
        assert all(rec["x"] != OWNER_X for rec in g["consumers"].values())


def _random_sequence(seq_index: int, root):
    rng = random.Random(0xACC7_0000 + seq_index)
    db, store, owner = _fresh_policy(root)
    consumers = []
    owner_points = {}
    bodies = {}
    for i in range(3):
        rec = UserRecord(f"c{i}", UserType.CONSUMER, b"cred-%d" % i)
        register_user(db, rec)
        consumers.append(rec)
    for _ in range(rng.randrange(3, 8)):
        op = rng.choice(("grant", "grant", "request", "revoke"))
        if op == "grant":
            fid = f"file{rng.randrange(3)}"
            chosen = rng.sample(consumers, rng.randrange(1, len(consumers) + 1))
            body = b"body:" + fid.encode()
            owner_pt = grant_access(db, store, fid, owner.user_id,
                                    [c.user_id for c in chosen], body)
            owner_points[fid] = owner_pt
            bodies[fid] = body
        elif op == "request" and owner_points:
            fid = rng.choice(sorted(owner_points))
            grant = db.grants[fid]
            if grant.consumer_shares:
                uid = rng.choice(sorted(grant.consumer_shares))
                receiver = db.users[uid]
                out = request_decrypt(db, store, fid, owner_points[fid], receiver)
                assert out == bodies[fid]
        elif op == "revoke" and owner_points:
            fid = rng.choice(sorted(owner_points))
            grant = db.grants[fid]
            if grant.consumer_shares:
                uid = rng.choice(sorted(grant.consumer_shares))
                deltas = revoke_user(db, fid, uid)
                owner_points[fid] = update_owner_share(owner_points[fid], deltas)
        _assert_owner_points_absent(db)
    # the server alone (no owner point) must never decrypt
    for fid in owner_points:
        with pytest.raises(InsufficientPoints):
            request_decrypt(db, store, fid, None,
                            db.users[sorted(db.users)[1]])


def _revocation_semantics(root):
    db, store, owner = _fresh_policy(root)
    c1 = UserRecord("keep", UserType.CONSUMER, b"cred-keep")
    c2 = UserRecord("drop", UserType.CONSUMER, b"cred-drop")
    register_user(db, c1)
    register_user(db, c2)
    body = b"criterion seven body"
    owner_pt = grant_access(db, store, "f", owner.user_id, ["keep", "drop"], body)
    stale = db.grants["f"].consumer_shares["drop"]
    deltas = revoke_user(db, "f", "drop")
    new_owner = update_owner_share(owner_pt, deltas)
    with pytest.raises(BindingMismatch):
        request_decrypt(db, store, "f", new_owner, c2, receiver_share_record=stale)
    with pytest.raises(NotGranted):
        request_decrypt(db, store, "f", new_owner, c2)
    assert request_decrypt(db, store, "f", new_owner, c1) == body
    # re-issue to the revoked user: a fresh grant decrypts again
    owner_pt2 = grant_access(db, store, "f", owner.user_id, ["keep", "drop"], body)
    assert request_decrypt(db, store, "f", owner_pt2, c2) == body


def _collusion_fixture(root):
    db, store, owner = _fresh_policy(root)
    cs = [UserRecord(f"u{i}", UserType.CONSUMER, b"cred-%d" % i) for i in range(4)]
    for rec in cs:
        register_user(db, rec)
    body = b"colluders must fail"
    owner_pt = grant_access(db, store, "f", owner.user_id,
                            [c.user_id for c in cs], body)
    grant = db.grants["f"]
    genuine = {"server": grant.server_share, "owner": owner_pt}
    records = dict(grant.consumer_shares)
    for rec in cs:
        genuine[rec.user_id] = decrypt_share(records[rec.user_id], rec.credentials)
    # every (claimed owner point, receiver, presented record) combination:
    # only the true owner point with the receiver's own record may pass
    outcomes = {"ok": 0, "rejected": 0}
    for claimed_name, claimed_pt in genuine.items():
        for receiver in cs:
            for record_of in cs:
                record = records[record_of.user_id]
                should_pass = (claimed_name == "owner"
                               and record_of.user_id == receiver.user_id)
                try:
                    out = request_decrypt(db, store, "f", claimed_pt, receiver,
                                          receiver_share_record=record)
                except (RoleMismatch, BindingMismatch):
                    assert not should_pass, (claimed_name, receiver.user_id,
                                             record_of.user_id)
                    outcomes["rejected"] += 1
                else:
                    assert should_pass and out == body
                    outcomes["ok"] += 1
    assert outcomes["ok"] == len(cs)
    assert outcomes["rejected"] == 6 * len(cs) * len(cs) - len(cs)


def test_criterion_7_protocol_properties(tmp_path):
    with criterion(7, 60.0, "owner point never stored (10^3 sequences); "
                            "revocation and collusion fixtures hold"):
        for seq in range(1000):
            # one store for all: a sequence reads only envelopes it wrote
            _random_sequence(seq, tmp_path / "sequences")
        _revocation_semantics(tmp_path / "revocation")
        _collusion_fixture(tmp_path / "collusion")


def test_criterion_8_storage_formulas():
    with criterion(8, 1.0, "storage-overhead formulas match exactly"):
        model = StorageOverheadModel()  # n = 10, t_c = 10, |p| = 256
        assert model.user_storage_bits() // 8 == 352
        assert model.server_storage_bits() // 8 == 352
        assert model.dacmacs_user_bits() == (10 + 3) * 256
        assert model.dacmacs_user_bits() // 8 == 416
        assert model.dacmacs_server_bits() == (3 * 10 + 3) * 256
        assert model.dacmacs_server_bits() // 8 == 1056
        assert model.pairing_user_bits() == (10 + 1) * 512
        assert model.pairing_server_bits() // 8 == 704
