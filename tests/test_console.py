"""The console script end to end: each protocol command in a `python -m
trishare` process of its own, or as lines of one `trishare batch`
process, on a store on disk."""

import contextlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from stores import forge, sidecar_of

from trishare import ObjectStore

TRISHARE = [sys.executable, "-m", "trishare"]
WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
#: Every path is relative to the test's tmp_path, the cwd of the test and
#: of the children it spawns.
STORE = "store"


@pytest.fixture(autouse=True)
def children_import_this_package(monkeypatch, tmp_path, child_env):
    monkeypatch.setenv("PYTHONPATH", child_env["PYTHONPATH"])
    monkeypatch.chdir(tmp_path)


def assert_sidecar(what):
    """The sidecar is the SHA-256 of the policy."""
    assert Path(STORE, "policy.json.sha256").read_bytes() == sidecar_of(
        Path(STORE, "policy.json").read_bytes()), what


def run(*argv, returncode=0):
    """One trishare command in a process of its own, which starts with no
    kept policy record; then the sidecar it leaves is the SHA-256 of the
    policy."""
    proc = subprocess.run([*TRISHARE, *argv], capture_output=True, text=True)
    assert proc.returncode == returncode, proc
    assert_sidecar(argv)
    return proc


def batch(lines, returncode=0):
    """Pipe the lines through one batch: one JSON result line each.  The
    sidecar the batch leaves is the SHA-256 of the policy."""
    proc = subprocess.run([*TRISHARE, "batch"], capture_output=True, text=True,
                          input="".join(json.dumps(argv) + "\n" for argv in lines))
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert proc.returncode == returncode, proc
    assert len(results) == len(lines), results
    assert_sidecar(lines)
    return results


@contextlib.contextmanager
def batch_process():
    """One batch process, fed a line at a time through send().  It is
    killed if it still runs when the block ends, so a failed assertion
    leaves no process behind."""
    with subprocess.Popen([*TRISHARE, "batch"], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            yield proc
        finally:
            if proc.poll() is None:
                proc.kill()


def send(proc, *argv, status=0):
    """One line to a batch process.  The batch flushes each result line,
    so each is read, and the sidecar checked, before the next is sent."""
    proc.stdin.write(json.dumps(argv) + "\n")
    proc.stdin.flush()
    result = json.loads(proc.stdout.readline())
    assert result["status"] == status, (argv, result)
    assert_sidecar(argv)
    return result


def register(uid, kind):
    return ["register", "--store", STORE, "--user-id", uid, "--type", kind,
            "--credentials", f"cred-{uid}"]


def grant(fid, infile, consumers="bob"):
    return ["grant", "--json", "--store", STORE, "--file-id", fid, "--owner",
            "olivia", "--consumers", consumers, "--in", infile]


def request(fid, point, out, receiver="bob"):
    return ["request", "--store", STORE, "--file-id", fid, "--receiver",
            receiver, "--owner-point", point, "--out", out]


def owner_point(granted):
    """The owner point in `grant --json`'s stdout, as --owner-point takes it."""
    point = json.loads(granted)["owner_point"]
    return f"{point['x']}:{point['y']}"


def test_commands_piped_through_batch():
    memo = Path("memo.txt")
    memo.write_bytes(b"meet at noon\n" * 100)
    *_, granted = batch([register("olivia", "owner"), register("bob", "consumer"),
                         grant("memo", "memo.txt")])
    point = owner_point(granted["stdout"])

    # A register whose --p differs from the store's, refused with no
    # policy byte written, then 20 requests on the parsers the batch
    # keeps, with a usage error and a --help among them.
    lines = [request("memo", point, f"memo-{i}.out") for i in range(20)]
    lines[7:7] = [request("memo", "1-2", "memo-bad.out")]
    lines[14:14] = [["request", "--help"]]
    lines[:0] = [register("mallory", "consumer") + ["--p", "97"]]
    policy = [Path(STORE, name) for name in ("policy.json", "policy.json.sha256")]
    before = [path.read_bytes() for path in policy]
    statuses = [r["status"] for r in batch(lines, returncode=1)]
    assert statuses == [1] + [2 if i == 7 else 0 for i in range(22)], statuses
    assert [path.read_bytes() for path in policy] == before
    assert not Path("memo-bad.out").exists()
    assert all(Path(f"memo-{i}.out").read_bytes() == memo.read_bytes()
               for i in range(20))

    # Five grants of new file ids in one process, each commit hashed
    # from its first edit on; then each new file opens to its payload.
    notes = {f"new-{i}": b"note %d\n" % i * 50 for i in range(5)}
    for fid, note in notes.items():
        Path(f"{fid}.txt").write_bytes(note)
    granted = batch([grant(fid, f"{fid}.txt") for fid in notes])
    batch([request(fid, owner_point(r["stdout"]), f"{fid}.out")
           for fid, r in zip(notes, granted)])
    assert all(Path(f"{fid}.out").read_bytes() == note
               for fid, note in notes.items())


def test_one_command_per_process():
    for uid, kind in (("olivia", "owner"), ("bob", "consumer"),
                      ("carol", "consumer")):
        run(*register(uid, kind))
    notes = {"memo": b"meet at noon\n" * 100, "plan": b"ship on friday\n" * 80}
    points = {}
    for fid, note in notes.items():
        Path(f"{fid}.txt").write_bytes(note)
        points[fid] = owner_point(run(*grant(fid, f"{fid}.txt", "bob,carol")).stdout)

    def fetch(fid, receiver, returncode=0):
        out = Path(f"{fid}-{receiver}.out")
        out.unlink(missing_ok=True)  # a refusal must leave none
        proc = run(*request(fid, points[fid], str(out), receiver),
                   returncode=returncode)
        return proc, out

    for fid, note in notes.items():
        _, out = fetch(fid, "bob")
        assert out.read_bytes() == note, fid
    run("revoke", "--store", STORE, "--file-id", "memo", "--user", "bob")
    refused, out = fetch("memo", "bob", returncode=1)
    assert refused.stdout == "" and refused.stderr.startswith("error: "), refused
    assert not out.exists()


def test_an_outside_writer_between_batch_lines():
    notes = {fid: b"%s note\n" % fid.encode() * 40
             for fid in ("memo", "plan", "late")}
    for fid, note in notes.items():
        Path(f"{fid}.txt").write_bytes(note)

    with batch_process() as proc:
        def fetch(fid, point, status=0):
            out = Path(f"{fid}.out")
            out.unlink(missing_ok=True)  # a refusal must leave none
            send(proc, *request(fid, point, str(out)), status=status)
            assert (out.read_bytes() == notes[fid] if status == 0
                    else not out.exists()), fid

        for uid, kind in (("olivia", "owner"), ("bob", "consumer")):
            send(proc, *register(uid, kind))
        memo = owner_point(send(proc, *grant("memo", "memo.txt"))["stdout"])
        fetch("memo", memo)
        # The batch has committed and kept this policy; another process
        # now commits over it, so the batch's next load reads bytes it
        # never kept.
        plan = owner_point(run(*grant("plan", "plan.txt")).stdout)
        fetch("plan", plan)
        send(proc, "revoke", "--store", STORE, "--file-id", "plan", "--user", "bob")
        fetch("plan", plan, status=1)
        fetch("memo", memo)
        late = owner_point(send(proc, *grant("late", "late.txt"))["stdout"])
        fetch("late", late)
        proc.stdin.close()
        assert proc.wait(60) == 1 and proc.stdout.read() == ""


def test_a_forged_policy_through_the_console_script():
    for uid, kind in (("olivia", "owner"), ("bob", "consumer")):
        run(*register(uid, kind))
    Path("memo.txt").write_bytes(b"meet at noon\n" * 100)
    points = {fid: owner_point(run(*grant(fid, "memo.txt")).stdout)
              for fid in ("memo", "plan", "zeta")}

    # Swap the plan and zeta grant blocks, as db_to_json would write the
    # swapped document, and re-match the sidecar.
    policy = Path(STORE, "policy.json")
    doc = json.loads(policy.read_bytes())
    grants = doc["grants"]
    grants[1], grants[2] = grants[2], grants[1]
    forged = json.dumps(doc, indent=2).encode("ascii")
    forge(ObjectStore(STORE), forged)
    secrets = ([u["credentials_hex"] for u in doc["users"]]
               + [g["salt_hex"] for g in grants])

    out = Path("memo.out")
    for argv in (["register", "--user-id", "dave", "--type", "consumer",
                  "--credentials", "cred-dave"],
                 ["grant", "--file-id", "late", "--owner", "olivia",
                  "--consumers", "bob", "--in", "memo.txt"],
                 ["revoke", "--file-id", "memo", "--user", "bob"],
                 ["request", "--file-id", "memo", "--receiver", "bob",
                  "--owner-point", points["memo"], "--out", str(out)]):
        proc = run(argv[0], "--store", STORE, *argv[1:], returncode=1)
        lines = proc.stderr.splitlines()
        assert proc.stdout == "" and len(lines) == 1, proc
        assert lines[0].startswith("error: "), proc
        assert policy.read_bytes() == forged, argv[0]
        assert not out.exists(), argv[0]
        assert not any(value in proc.stderr or value.upper() in proc.stderr
                       for value in secrets), proc


def test_a_malformed_owner_point_is_not_echoed():
    # The owner point is a secret: a usage error names the form it
    # expects, never the value given, run alone and as a batch line.
    Path("memo.txt").write_bytes(b"meet at noon\n")
    *_, granted = batch([register("olivia", "owner"), register("bob", "consumer"),
                         grant("memo", "memo.txt")])
    x, y = owner_point(granted["stdout"]).split(":")
    lines = [request("memo", form, "memo.out")
             for form in (f"{x}:{y}x", f"{x}:{y}:3", y)]
    alone = [run(*argv, returncode=2) for argv in lines]
    assert all(proc.stderr.endswith(
        "error: argument --owner-point: expected a point x:y of integers\n")
        for proc in alone), alone
    assert not any(y in proc.stdout + proc.stderr for proc in alone), alone
    results = batch(lines, returncode=1)
    assert [r["status"] for r in results] == [2, 2, 2], results
    assert [r["stderr"] for r in results] == [proc.stderr for proc in alone]
    assert not any(y in json.dumps(r) for r in results), results
    assert not Path("memo.out").exists()


def test_no_ci_step_runs_inline_python():
    """CI's checks live in this suite: no workflow line feeds Python a
    program of its own through `python -`, `python -c` or a heredoc."""
    workflow = WORKFLOW.read_text(encoding="utf-8")
    assert "python -m pytest" in workflow
    assert re.findall(r".*(?:<<|\bpython[\d.]* +-c?(?: |$)).*", workflow, re.M) == []
