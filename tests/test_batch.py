"""`trishare batch`: one command per stdin line, run in one process."""

import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import trishare
import trishare.authz
import trishare.cli
from trishare.cli import cli_dispatch


def run_batch(lines, monkeypatch, capsys):
    """Run `batch` in-process on lines given as JSON or as raw text;
    returns its exit code and one decoded result per output line."""
    text = "".join((line if isinstance(line, str) else json.dumps(line)) + "\n"
                   for line in lines)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    rc = cli_dispatch(["batch"])
    out, err = capsys.readouterr()
    assert err == ""
    return rc, [json.loads(line) for line in out.splitlines()]


def run_alone(argv, capsys):
    """What one command prints on its own, in the form batch reports it."""
    try:
        status = cli_dispatch(argv)
    except SystemExit as exc:
        status = exc.code
    out, err = capsys.readouterr()
    return {"command": argv[0] if argv else None, "status": status,
            "stdout": out, "stderr": err}


def seeded_randomness(monkeypatch, seed):
    """Fix the salts and the file secrets that grant and revoke draw."""
    rng = random.Random(seed)
    monkeypatch.setattr(trishare.authz.os, "urandom", rng.randbytes)
    monkeypatch.setattr(trishare.authz._secrets, "randbelow", rng.randrange)


def store_files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def register(store, uid, kind="consumer"):
    return ["register", "--store", store, "--user-id", uid, "--type", kind,
            "--credentials", f"cred-{uid}"]


def test_each_line_prints_what_it_prints_alone(tmp_path, monkeypatch, capsys):
    # The same argvs on two copies of one store, with the same seeded
    # randomness: once as a batch, once each alone.  Relative paths, so
    # both sides print the same names.
    monkeypatch.setenv("COLUMNS", "80")
    first = tmp_path / "batch"
    first.mkdir()
    (first / "memo.txt").write_bytes(b"meet at noon\n" * 40)
    monkeypatch.chdir(first)
    seeded_randomness(monkeypatch, 1)
    for argv in (register("s", "olivia", "owner"), register("s", "alice")):
        assert run_alone(argv, capsys)["status"] == 0
    second, probe = tmp_path / "alone", tmp_path / "probe"
    shutil.copytree(first, second)
    shutil.copytree(first, probe)
    argvs = [
        register("s", "bob"),
        ["grant", "--json", "--store", "s", "--file-id", "memo", "--owner",
         "olivia", "--consumers", "alice,bob", "--in", "memo.txt"],
        # the owner point is the seeded grant's, so both sides know it
        ["request", "--store", "s", "--file-id", "memo", "--receiver", "bob",
         "--owner-point", "OWNER", "--out", "memo.out"],
        ["revoke", "--json", "--store", "s", "--file-id", "memo", "--user", "bob"],
        ["request", "--store", "s", "--file-id", "memo", "--receiver", "bob",
         "--owner-point", "OWNER", "--out", "memo.out"],  # refused: revoked
        register("s", "alice"),  # refused: a duplicate
        ["grant", "--store", "s", "--file-id", "memo"],  # a usage error
        ["revoke", "--help"],
        ["split", "--secret", "1234", "--coeffs", "166,94", "--n-users", "6"],
    ]
    # The first two lines, run on a third copy, give the owner point.
    monkeypatch.chdir(probe)
    seeded_randomness(monkeypatch, 2)
    point = json.loads([run_alone(argv, capsys) for argv in argvs[:2]][1]
                       ["stdout"])["owner_point"]
    argvs = [[f"{point['x']}:{point['y']}" if arg == "OWNER" else arg
              for arg in argv] for argv in argvs]

    monkeypatch.chdir(first)
    seeded_randomness(monkeypatch, 2)
    rc, batched = run_batch(argvs, monkeypatch, capsys)
    monkeypatch.chdir(second)
    seeded_randomness(monkeypatch, 2)
    alone = [run_alone(argv, capsys) for argv in argvs]
    assert batched == alone
    assert [r["status"] for r in alone] == [0, 0, 0, 0, 1, 1, 2, 0, 0]
    assert rc == 1
    assert store_files(first) == store_files(second)


def test_a_failed_line_does_not_stop_the_batch(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, results = run_batch([
        "not json",
        '{"argv": ["keygen"]}',
        '["keygen", 5]',
        "",
        ["batch"],
        register("s", "olivia", "owner"),
        ["request", "--store", "s", "--file-id", "f", "--receiver", "olivia",
         "--owner-point", "2:5"],
        ["frobnicate"],
        ["keygen", "--help"],
        register("s", "alice"),
    ], monkeypatch, capsys)
    assert rc == 1
    assert [(r["command"], r["status"]) for r in results] == [
        (None, 1), (None, 1), (None, 1), (None, 1), ("batch", 1),
        ("register", 0), ("request", 1), ("frobnicate", 2), ("keygen", 0),
        ("register", 0)]
    for r in results[:4]:
        assert r["stdout"] == "" and r["stderr"].startswith("error: batch line ")
    assert results[4]["stderr"] == "error: a batch cannot run inside a batch\n"
    assert results[6]["stderr"].startswith("error: a request in a batch needs --out")
    assert results[7]["stderr"].startswith("usage: trishare [-h]")
    assert results[8]["stdout"].startswith("usage: trishare keygen")
    users = json.loads((tmp_path / "s" / "policy.json").read_text())["users"]
    assert [u["user_id"] for u in users] == ["alice", "olivia"]
    # the batch is over: a lone request may write to stdout again
    assert not trishare.cli._in_batch


def test_a_batch_of_good_lines_exits_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, results = run_batch([register("s", "olivia", "owner"), ["keygen"]],
                            monkeypatch, capsys)
    assert rc == 0 and [r["status"] for r in results] == [0, 0]


@pytest.fixture
def child_env():
    env = dict(os.environ)
    src = str(Path(trishare.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_a_policy_changed_between_lines_is_seen(tmp_path, capsys, child_env):
    # The batch is its own process, fed one line at a time; between two
    # lines this process registers a user, and the next line grants to it.
    store = str(tmp_path / "s")
    (tmp_path / "f.bin").write_bytes(b"body")
    grant = json.dumps(["grant", "--store", store, "--file-id", "f", "--owner",
                        "olivia", "--consumers", "dave", "--in",
                        str(tmp_path / "f.bin")]) + "\n"
    results = []
    with subprocess.Popen([sys.executable, "-m", "trishare", "batch"],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          cwd=tmp_path, env=child_env) as proc:
        try:
            for line in (json.dumps(register(store, "olivia", "owner")) + "\n",
                         grant, None, grant):
                if line is None:
                    assert cli_dispatch(register(store, "dave")) == 0
                    capsys.readouterr()
                    continue
                proc.stdin.write(line.encode())
                proc.stdin.flush()
                results.append(json.loads(proc.stdout.readline()))
            proc.stdin.close()
            assert proc.wait(30) == 1
        finally:
            if proc.poll() is None:
                proc.kill()
    assert [r["status"] for r in results] == [0, 1, 0]
    assert results[1]["stderr"] == "error: consumer 'dave' is not registered\n"
    assert results[2]["stdout"].startswith("granted f to 1 consumer(s)\n")


def test_kept_parsers_outlive_a_usage_error_and_help(tmp_path, monkeypatch,
                                                     capsys):
    # A usage error and --help end in an argparse exit between two
    # identical requests; each line prints what it prints alone, run on
    # parsers built for it.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "memo.txt").write_bytes(b"meet at noon\n" * 40)
    for argv in (register("s", "olivia", "owner"), register("s", "bob")):
        assert run_alone(argv, capsys)["status"] == 0
    granted = run_alone(["grant", "--json", "--store", "s", "--file-id", "memo",
                         "--owner", "olivia", "--consumers", "bob", "--in",
                         "memo.txt"], capsys)
    point = json.loads(granted["stdout"])["owner_point"]

    def request(owner_point):
        return ["request", "--store", "s", "--file-id", "memo", "--receiver",
                "bob", "--owner-point", owner_point, "--out", "memo.out"]

    good = request(f"{point['x']}:{point['y']}")
    argvs = [good, request("1-2"), ["request", "--help"], good]
    alone = []
    for argv in argvs:
        trishare.cli._parser.cache_clear()
        alone.append(run_alone(argv, capsys))
    trishare.cli._parser.cache_clear()
    rc, batched = run_batch(argvs, monkeypatch, capsys)
    assert batched == alone
    assert [r["status"] for r in batched] == [0, 2, 0, 0]
    assert rc == 1
    assert (tmp_path / "memo.out").read_bytes() == b"meet at noon\n" * 40
