import ast
import hashlib
import os
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import trishare
import trishare.policy
from trishare import (NotFound, ObjectStore, PolicyDb, UserRecord, UserType,
                      db_to_json, grant_access, load_db, persist_db,
                      register_user)
from trishare.cli import cli_dispatch
from trishare.policy import transaction

#: What only policy.py may name: the policy file, its sidecar and the
#: seams of its byte layout.
FORMAT_NAMES = {"POLICY_FILENAME", "POLICY_DIGEST_FILENAME", "Blocks",
                "_USERS_KEY", "_GRANTS_KEY", "_ARRAY_END"}

#: What only policy.transaction may call: the store lock, the root's
#: creation, and the policy's load and commit.
TRANSACTION_NAMES = {"lock", "create_root", "load_db", "persist_db"}


def sites_naming(forbidden):
    """Each place a module but policy.py names one of forbidden(stem), as
    "module.py:line name"; the package's re-export from policy is not one."""
    sites = []
    for path in sorted(Path(trishare.__file__).parent.glob("*.py")):
        if path.stem == "policy":
            continue
        forbidden_here = forbidden(path.stem)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if path.stem == "__init__" and node.module == "policy":
                    continue  # the re-export
                names = [node.module] + [alias.name for alias in node.names]
            else:
                continue
            sites += [f"{path.stem}.py:{node.lineno} {name}" for name in names
                      if name in forbidden_here]
    return sites


def test_only_policy_knows_the_policy_file_and_its_layout():
    """policy.py owns policy.json, its sidecar and their byte layout, so
    a change to the format lands there alone: no other module names them,
    but for the package's re-export from policy, and the protocol in
    authz.py, which reads records, never JSON, does not name json."""
    sites = sites_naming(
        lambda stem: FORMAT_NAMES | ({"json"} if stem == "authz" else set()))
    assert sites == []


def test_only_the_transaction_locks_loads_and_commits_the_policy():
    """policy.transaction holds the store lock from load_db to persist_db,
    so no other module takes the lock, creates the root, loads or commits
    the policy itself."""
    assert sites_naming(lambda stem: TRANSACTION_NAMES) == []


# ------------------------------------------------------------ transaction

def store_files(root):
    """Every file under root, path -> bytes."""
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


@pytest.fixture
def store(tmp_path):
    """A store whose policy holds olivia."""
    store = ObjectStore(tmp_path / "store")
    db = PolicyDb()
    register_user(db, UserRecord("olivia", UserType.OWNER, b"c1"))
    persist_db(db, store)
    return store


@pytest.fixture
def commits(monkeypatch):
    """The store of each persist_db call, which still commits."""
    calls, real_persist = [], trishare.policy.persist_db

    def counting_persist(db, store):
        calls.append(store)
        real_persist(db, store)

    monkeypatch.setattr(trishare.policy, "persist_db", counting_persist)
    return calls


def test_a_clean_exclusive_transaction_commits_once(store, commits):
    with transaction(store) as db:
        register_user(db, UserRecord("bob", UserType.CONSUMER, b"c2"))
    assert commits == [store]
    assert sorted(load_db(store).users) == ["bob", "olivia"]


def test_an_exception_in_a_transaction_writes_nothing(store, commits):
    before = store_files(store.root)
    with pytest.raises(RuntimeError):
        with transaction(store) as db:
            register_user(db, UserRecord("bob", UserType.CONSUMER, b"c2"))
            raise RuntimeError("stop before the commit")
    # Byte-identical, and no temp file left beside them.
    assert store_files(store.root) == before
    assert commits == []
    assert sorted(load_db(store).users) == ["olivia"]


def test_a_shared_transaction_never_commits(store, commits):
    before = store_files(store.root)
    with transaction(store, exclusive=False) as db:
        register_user(db, UserRecord("bob", UserType.CONSUMER, b"c2"))
    assert store_files(store.root) == before
    assert commits == []


@pytest.mark.parametrize("exclusive", [True, False])
def test_a_transaction_holds_the_store_lock(store, exclusive):
    fcntl = pytest.importorskip("fcntl")

    def probe(operation):
        """Could another open of the root take `operation` now?"""
        fd = os.open(store.root, os.O_RDONLY | os.O_DIRECTORY)
        try:
            fcntl.flock(fd, operation | fcntl.LOCK_NB)
            return True
        except BlockingIOError:
            return False
        finally:
            os.close(fd)

    with transaction(store, exclusive=exclusive):
        assert probe(fcntl.LOCK_SH) is not exclusive
        assert not probe(fcntl.LOCK_EX)
    assert probe(fcntl.LOCK_EX)


@pytest.mark.parametrize("exclusive", [True, False])
def test_a_transaction_on_a_missing_root_creates_nothing(tmp_path, exclusive):
    with pytest.raises(NotFound):
        with transaction(ObjectStore(tmp_path / "typo" / "store"), exclusive):
            pass
    assert list(tmp_path.iterdir()) == []


def test_a_transaction_on_a_root_with_no_policy_is_not_found(tmp_path, commits):
    (tmp_path / "store").mkdir()
    with pytest.raises(NotFound):
        with transaction(ObjectStore(tmp_path / "store")):
            pass
    assert list((tmp_path / "store").iterdir()) == [] and commits == []


def test_a_transaction_with_a_modulus_starts_a_new_store(tmp_path, p97):
    store = ObjectStore(tmp_path / "new" / "store")
    with transaction(store, modulus=p97) as db:
        assert db.modulus == p97 and list(db.users) == []
        register_user(db, UserRecord("olivia", UserType.OWNER, b"c1"))
    db = load_db(store)
    assert db.modulus.p == 97 and list(db.users) == ["olivia"]


# ------------------------------------------------------------ secrets in errors

def rematch_sidecar(root):
    """Write the sidecar persist_db would write for the current policy."""
    data = (root / "policy.json").read_bytes()
    (root / "policy.json.sha256").write_text(hashlib.sha256(data).hexdigest() + "\n")


@pytest.mark.parametrize("sidecar", ["rematched", "deleted"])
def test_a_respelled_secret_hex_field_is_not_echoed(tmp_path, capsys, sidecar):
    """A credential or salt spelled in upper-case hex is CorruptPolicy,
    and its error line names the field, never the value."""
    root, body = tmp_path / "store", tmp_path / "memo.txt"
    body.write_bytes(b"memo")
    for uid, typ, cred in (("olivia", "owner", "topsecret-pass"),
                           ("bob", "consumer", "c2")):
        assert cli_dispatch(["register", "--store", str(root), "--user-id", uid,
                             "--type", typ, "--credentials", cred]) == 0
    grant = ["grant", "--store", str(root), "--file-id", "memo", "--owner",
             "olivia", "--consumers", "bob", "--in", str(body)]
    assert cli_dispatch(grant) == 0
    capsys.readouterr()
    policy = (root / "policy.json").read_text()
    cases = [("credentials_hex", b"topsecret-pass".hex(), grant),
             ("salt_hex", load_db(ObjectStore(root)).grants["memo"].salt.hex(),
              ["revoke", "--store", str(root), "--file-id", "memo", "--user", "bob"])]
    for field, secret, argv in cases:
        assert policy.count(f'"{secret}"') == 1
        (root / "policy.json").write_text(
            policy.replace(f'"{secret}"', f'"{secret.upper()}"'))
        if sidecar == "rematched":
            rematch_sidecar(root)
        else:
            (root / "policy.json.sha256").unlink(missing_ok=True)
        assert cli_dispatch(argv) == 1
        out, err = capsys.readouterr()
        assert secret not in err and secret.upper() not in err
        assert out == "" and err.startswith(
            "error: policy is not UTF-8 JSON in its schema: ")
        assert len(err.splitlines()) == 1 and field in err


# --------------------------------------------------------- kept layout and marks

def assert_kept_is_the_policy(root):
    """The sidecar is the SHA-256 of policy.json, the kept layout is what
    a fresh scan of policy.json finds, and each index the kept record
    carries is the ids and offsets a walk finds."""
    data = (root / "policy.json").read_bytes()
    assert (root / "policy.json.sha256").read_bytes() == (
        hashlib.sha256(data).hexdigest().encode("ascii") + b"\n")
    layout, fresh = trishare.policy._kept.layout, trishare.policy._sliced_db(data)
    assert layout[:3] == (fresh.modulus, fresh.users._start, fresh.grants._start)
    for index, blocks in ((layout.users, fresh.users), (layout.grants, fresh.grants)):
        assert index == blocks._index


def test_grants_of_new_ids_in_one_process_walk_once(tmp_path, monkeypatch):
    """A load keeps the index its walk found, and a commit carries it
    forward with the inserted ids, so only a process's first load walks
    each array."""
    root, body = tmp_path / "store", tmp_path / "memo.txt"
    body.write_bytes(b"memo")
    store = ObjectStore(root)
    db = PolicyDb()
    register_user(db, UserRecord("olivia", UserType.OWNER, b"c1"))
    register_user(db, UserRecord("bob", UserType.CONSUMER, b"c2"))
    for i in range(40):
        grant_access(db, store, f"f{i:02d}", "olivia", ["bob"], b"memo")
    persist_db(db, store)
    monkeypatch.setattr(trishare.policy, "_kept", None)  # as a new process
    walks, real_walk = [], trishare.policy.Blocks._walk

    def counted_walk(blocks):
        walks.append(blocks._key)
        return real_walk(blocks)

    monkeypatch.setattr(trishare.policy.Blocks, "_walk", counted_walk)
    # Before, after and between the 40, so each insert splices elsewhere.
    walks_per_grant = []
    for fid in ["e", "f05x", "f19x", "g", "f39x"]:
        walks.clear()
        assert cli_dispatch(["grant", "--store", str(root), "--file-id", fid,
                             "--owner", "olivia", "--consumers", "bob",
                             "--in", str(body)]) == 0
        walks_per_grant.append(walks.copy())
        assert_kept_is_the_policy(root)
        assert fid in trishare.policy._kept.layout.grants.ids
    assert walks_per_grant == [["user_id", "file_id"], [], [], [], []]
    assert len(load_db(store).grants) == 45


def test_a_load_of_kept_bytes_scans_and_probes_nothing(tmp_path, monkeypatch):
    """After a commit, a load of the bytes it wrote takes its db from the
    kept layout with no _sliced_db, and every lookup, hit or miss, bisects
    the carried ids with no _id_at probe; so do the commands that follow.
    A process's first load scans the bytes once and walks each array,
    reading each block's id once; its lookups read no more ids."""
    monkeypatch.setattr(trishare.policy, "_kept", None)
    root, body = tmp_path / "store", tmp_path / "memo.txt"
    body.write_bytes(b"memo")
    store = ObjectStore(root)
    db = PolicyDb()
    register_user(db, UserRecord("olivia", UserType.OWNER, b"c1"))
    register_user(db, UserRecord("bob", UserType.CONSUMER, b"c2"))
    for i in range(20):
        grant_access(db, store, f"f{i:02d}", "olivia", ["bob"], b"memo")
    persist_db(db, store)
    calls = []
    for owner, name in ((trishare.policy, "_sliced_db"),
                        (trishare.policy.Blocks, "_id_at")):
        def counted(*args, real=getattr(owner, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(owner, name, counted)

    def reads(db):
        """Hits and misses in both arrays, through each kind of lookup."""
        return ([db.users[uid].credentials for uid in ("bob", "olivia")],
                [db.grants[f"f{i:02d}"].envelope_ref for i in range(20)],
                [key in blocks for blocks in (db.users, db.grants)
                 for key in ("", "alice", "f05x", "olivia", "zz")],
                db.grants.get("f10x"), len(db.users), len(db.grants))

    full = reads(trishare.policy.db_from_json((root / "policy.json").read_bytes()))
    assert reads(load_db(store)) == full and calls == []
    for argv in (["grant", "--file-id", "f05x", "--owner", "olivia",
                  "--consumers", "bob", "--in", str(body)],
                 ["revoke", "--file-id", "f07", "--user", "bob"]):
        assert cli_dispatch([*argv, "--store", str(root)]) == 0
        assert calls == []
        assert_kept_is_the_policy(root)
        calls.clear()  # the check's own fresh scan and walk
        data = (root / "policy.json").read_bytes()
        loaded = load_db(store)
        assert calls == []
        assert reads(loaded) == reads(trishare.policy.db_from_json(data))
        assert calls == []
    trishare.policy._kept = None  # as a new process
    assert reads(load_db(store)) == reads(trishare.policy.db_from_json(data))
    assert calls == ["_sliced_db"] + ["_id_at"] * (2 + 21)  # users, grants


def test_a_load_builds_each_array_once(tmp_path, monkeypatch):
    """A load builds one Blocks per array, from the kept layout or from a
    scan, and no empty one that it throws away."""
    monkeypatch.setattr(trishare.policy, "_kept", None)
    store = ObjectStore(tmp_path / "store")
    db = PolicyDb()
    register_user(db, UserRecord("olivia", UserType.OWNER, b"c1"))
    persist_db(db, store)
    built, real_init = [], trishare.policy.Blocks.__init__

    def counted_init(blocks, key, *args):
        built.append(key)
        real_init(blocks, key, *args)

    monkeypatch.setattr(trishare.policy.Blocks, "__init__", counted_init)
    for kept in (trishare.policy._kept, None):  # its own commit, then cold
        trishare.policy._kept = kept
        built.clear()
        assert load_db(store) == db
        assert built == ["user_id", "file_id"]


def test_loads_of_another_writers_bytes_walk_each_array_once(tmp_path,
                                                              monkeypatch):
    """A cold load keeps the index its walks found, so the loads of the
    same bytes that follow scan and walk nothing, and a lookup's miss
    bisects that index."""
    root, body = tmp_path / "store", tmp_path / "memo.txt"
    body.write_bytes(b"memo")
    store = ObjectStore(root)
    db = PolicyDb()
    register_user(db, UserRecord("olivia", UserType.OWNER, b"c1"))
    register_user(db, UserRecord("bob", UserType.CONSUMER, b"c2"))
    for i in range(20):
        grant_access(db, store, f"f{i:02d}", "olivia", ["bob"], b"memo")
    persist_db(db, store)
    monkeypatch.setattr(trishare.policy, "_kept", None)  # another writer's
    calls = []
    real_sliced, real_walk = trishare.policy._sliced_db, trishare.policy.Blocks._walk

    def counted_sliced(data):
        calls.append("_sliced_db")
        return real_sliced(data)

    def counted_walk(blocks):
        calls.append(blocks._key)
        return real_walk(blocks)

    monkeypatch.setattr(trishare.policy, "_sliced_db", counted_sliced)
    monkeypatch.setattr(trishare.policy.Blocks, "_walk", counted_walk)
    for _ in range(3):
        loaded = load_db(store)
        assert loaded.grants.get("f05x") is None
        assert loaded.users["bob"].credentials == b"c2"
    assert calls == ["_sliced_db", "user_id", "file_id"]


def cut(data, offsets):
    """data in pieces at the offsets, some empty, as memoryviews."""
    bounds = [0, *sorted(offsets), len(data)]
    view = memoryview(data)
    return [view[a:b] for a, b in zip(bounds, bounds[1:])]


def digest_starts(monkeypatch):
    """How many kept marks each later _digest call resumed from."""
    starts, real_digest = [], trishare.policy._digest

    def counted_digest(pieces, marks):
        starts.append(len(marks))
        return real_digest(pieces, marks)

    monkeypatch.setattr(trishare.policy, "_digest", counted_digest)
    return starts


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_resumed_digest_is_the_sha256_of_the_bytes(data):
    """_recall's SHA-256, resumed from the kept state at the last mark
    before the first changed byte, is that of the whole new bytes, and
    its marks are the states a hash from scratch passes, for any pieces.
    The first change falls one byte before, at or after a mark, or
    anywhere.  The kept bytes are one piece, as a load keeps them, or
    the new ones are, as a load reads them; where neither is, the hash
    starts at byte 0.  Bytes equal to the kept ones take the kept record
    with no hash."""
    mark, kept = trishare.policy._MARK, trishare.policy._kept
    size = data.draw(st.integers(0, 4 * mark), label="size")
    edit = min(size, data.draw(st.one_of(
        st.tuples(st.integers(1, 3), st.integers(-1, 1)).map(
            lambda step: step[0] * mark + step[1]),
        st.integers(0, 4 * mark)), label="edit"))
    removed = data.draw(st.integers(0, 100), label="removed")
    added = data.draw(st.binary(max_size=100), label="added")
    whole = data.draw(st.sampled_from(["kept", "new", "neither"]), label="whole")
    cuts = st.lists(st.integers(0, 5 * mark), max_size=6)
    old_cuts, new_cuts = data.draw(cuts, label="old"), data.draw(cuts, label="new")
    cut_at_edit = data.draw(st.booleans(), label="cut at the edit")
    if cut_at_edit:  # the side that is in pieces
        (old_cuts if whole == "new" else new_cuts).append(edit)
    # An empty first piece: each side that is not whole is two at least.
    old_cuts.append(0)
    new_cuts.append(0)
    old = (hashlib.sha256(b"%d" % size).digest() * (size // 32 + 1))[:size]
    changed = bytes([old[edit] ^ 1]) if edit < size else b"!"
    new = old[:edit] + changed + added + old[edit + removed + 1:]
    old_pieces = [old] if whole == "kept" else cut(old, old_cuts)
    new_pieces = [new] if whole == "new" else cut(new, new_cuts)
    marks = []
    digest = trishare.policy._digest(old_pieces, marks)
    assert digest == hashlib.sha256(old).hexdigest().encode("ascii") + b"\n"
    record = trishare.policy._Kept(old_pieces, digest, marks, "layout")
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(trishare.policy, "_kept", record)
        starts = digest_starts(monkeypatch)
        recalled = trishare.policy._recall(new_pieces)
        assert len(starts) == 1
        again = trishare.policy._recall(
            [old] if whole == "new" else cut(old, new_cuts))
    assert trishare.policy._kept is kept
    assert starts[0] <= edit // mark  # none covers the changed byte
    if whole == "neither":
        assert starts[0] == 0
    elif cut_at_edit:  # so the resume starts at the last mark before it
        assert starts[0] == edit // mark
    assert recalled.pieces is new_pieces and recalled.digest == (
        hashlib.sha256(new).hexdigest().encode("ascii") + b"\n")
    assert recalled.layout is None
    assert [state.digest() for state in recalled.marks] == [
        hashlib.sha256(new[:mark * (i + 1)]).digest()
        for i in range(len(new) // mark)]
    # The kept bytes again, in other pieces: with one side whole, or
    # none to compare, they take the record with no hash.
    hit = whole != "neither" or size == 0
    assert (again is record) == hit == (len(starts) == 1)
    if not hit:
        assert again.digest == digest and starts[1] == 0


def test_a_load_of_another_writers_commit_resumes_from_the_marks(
        tmp_path, monkeypatch):
    """A load of bytes another writer committed after this process's own
    commit resumes SHA-256 from the kept marks before its first change,
    as a commit does, and decides as a load with no kept record would:
    the sliced db under a matching sidecar, the full parse under a stale
    one."""
    monkeypatch.setattr(trishare.policy, "_kept", None)
    monkeypatch.setattr(trishare.policy, "_MARK", 256)
    root, body = tmp_path / "store", tmp_path / "memo.txt"
    body.write_bytes(b"memo")
    store = ObjectStore(root)
    db = PolicyDb()
    register_user(db, UserRecord("olivia", UserType.OWNER, b"c1"))
    register_user(db, UserRecord("bob", UserType.CONSUMER, b"c2"))
    for i in range(5):
        grant_access(db, store, f"f{i}", "olivia", ["bob"], b"memo")
    persist_db(db, store)
    own, sidecar = trishare.policy._kept, root / "policy.json.sha256"
    ours = sidecar.read_bytes()
    trishare.policy._kept = None  # the other writer, in its own process
    assert cli_dispatch(["grant", "--store", str(root), "--file-id", "g",
                         "--owner", "olivia", "--consumers", "bob",
                         "--in", str(body)]) == 0
    data, theirs = (root / "policy.json").read_bytes(), sidecar.read_bytes()
    starts = digest_starts(monkeypatch)
    for written in (theirs, ours):
        trishare.policy._kept = own
        sidecar.write_bytes(written)
        starts.clear()
        with mock.patch.object(trishare.policy, "db_from_json",
                               wraps=trishare.policy.db_from_json) as full:
            loaded = load_db(store)
        # The change is the grant of g, after every block this one wrote.
        assert len(starts) == 1 and starts[0] > 0
        assert full.call_count == (written == ours)
        if written == theirs:  # kept as a load keeps what it read
            assert trishare.policy._kept.pieces == [data]
        assert loaded == trishare.policy.db_from_json(data)
        assert db_to_json(loaded).encode("ascii") == data
    assert trishare.policy._kept is own  # a stale sidecar keeps nothing
