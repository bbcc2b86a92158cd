import ast
import hashlib
import os
from pathlib import Path

import pytest

import trishare
import trishare.policy
from trishare import (NotFound, ObjectStore, PolicyDb, UserRecord, UserType,
                      load_db, persist_db, register_user)
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
