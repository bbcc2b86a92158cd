import argparse
import errno
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest

import trishare
import trishare.bench
import trishare.cli
from trishare import (M61, SharePoint, default_modulus, modulus_for,
                      update_owner_share)
from trishare.cli import build_parser, cli_dispatch


def run_cli(argv, capsys):
    rc = cli_dispatch(argv)
    out, err = capsys.readouterr()
    return rc, out, err


# ---------------------------------------------------------------- field commands

def test_reconstruct_reference_secret(capsys):
    rc, out, _ = run_cli(["reconstruct", "--points", "2:1942,4:3402,5:4414"], capsys)
    assert rc == 0
    assert out.strip() == "1234"


def test_reconstruct_constant_points(capsys):
    # the secret needs no polynomial: a zero leading coefficient, which
    # M61 refuses to mint, does not stop reconstruct
    rc, out, err = run_cli(["reconstruct", "--points", "1:5,2:5,3:5"], capsys)
    assert (rc, out, err) == (0, "5\n", "")


def test_reconstruct_json(capsys):
    rc, out, _ = run_cli(
        ["reconstruct", "--json", "--points", "1:1494,2:1942,3:2578"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"secret": 1234, "p": M61}


def test_split_small_field(capsys):
    rc, out, _ = run_cli(
        ["split", "--secret", "5", "--coeffs", "3,2", "--n-users", "3", "--p", "97"],
        capsys,
    )
    assert rc == 0
    assert out.splitlines() == ["1:10", "2:19", "3:32"]


def test_split_then_reconstruct_round_trip(capsys):
    rc, out, _ = run_cli(
        ["split", "--json", "--secret", "424242", "--coeffs", "7,9", "--n-users", "5"],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out)
    pts = ",".join(f"{pt['x']}:{pt['y']}" for pt in doc["points"][:3])
    rc, out, _ = run_cli(["reconstruct", "--points", pts], capsys)
    assert rc == 0
    assert out.strip() == "424242"


def test_keygen_bounds(capsys):
    rc, out, _ = run_cli(["keygen", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["p"] == M61
    assert 0 <= doc["secret"] < M61
    rc, out, _ = run_cli(["keygen", "--p", "97"], capsys)
    assert rc == 0
    assert 0 <= int(out.strip()) < 97


def test_reconstruct_from_no_points_exits_with_one_error_line(capsys):
    rc, out, err = run_cli(["reconstruct", "--points", ""], capsys)
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_split_rejects_oversized_secret(capsys):
    rc, _, err = run_cli(
        ["split", "--secret", "1234", "--coeffs", "3,2", "--n-users", "3",
         "--p", "97"],
        capsys,
    )
    assert rc == 1
    assert "error:" in err


# ---------------------------------------------------------------- file commands

def test_encrypt_decrypt_round_trip(tmp_path, capsys):
    src = tmp_path / "plain.bin"
    src.write_bytes(b"round trip body " * 100)
    sealed = tmp_path / "sealed.ifsc"
    out = tmp_path / "restored.bin"
    rc, _, _ = run_cli(
        ["encrypt", "--in", str(src), "--out", str(sealed), "--key", "12345"], capsys
    )
    assert rc == 0
    rc, _, _ = run_cli(
        ["decrypt", "--in", str(sealed), "--out", str(out), "--key", "12345"], capsys
    )
    assert rc == 0
    assert out.read_bytes() == src.read_bytes()


def test_encrypt_decrypt_power_mode(tmp_path, capsys):
    src = tmp_path / "plain.bin"
    src.write_bytes(bytes(range(256)))
    sealed = tmp_path / "sealed.ifsc"
    out = tmp_path / "restored.bin"
    rc, report, _ = run_cli(
        ["encrypt", "--json", "--in", str(src), "--out", str(sealed),
         "--key", "1000", "--mode", "power", "--n", "2"],
        capsys,
    )
    assert rc == 0
    doc = json.loads(report)
    assert doc["symbol_width"] == 4
    assert doc["out_bytes"] == 20 + 4 * 256
    # decrypt reads mode/n/width from the header; only the key is passed
    rc, _, _ = run_cli(
        ["decrypt", "--in", str(sealed), "--out", str(out), "--key", "1000"], capsys
    )
    assert rc == 0
    assert out.read_bytes() == src.read_bytes()


def test_encrypt_bad_mode(tmp_path, capsys):
    src = tmp_path / "x"
    src.write_bytes(b"x")
    rc, _, err = run_cli(
        ["encrypt", "--in", str(src), "--out", str(tmp_path / "y"),
         "--key", "1", "--mode", "rot13"],
        capsys,
    )
    assert rc == 1
    assert "unknown mode" in err


def assert_one_error_line(rc, out, err):
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_encrypt_additive_rejects_n_other_than_one(tmp_path, capsys):
    src = tmp_path / "x"
    src.write_bytes(b"hello")
    sealed = tmp_path / "y"
    rc, out, err = run_cli(
        ["encrypt", "--in", str(src), "--out", str(sealed), "--key", "300",
         "--n", "9"],
        capsys,
    )
    assert_one_error_line(rc, out, err)
    assert not sealed.exists()


def test_encrypt_additive_accepts_n_one(tmp_path, capsys):
    src = tmp_path / "x"
    src.write_bytes(b"hello")
    rc, out, _ = run_cli(
        ["encrypt", "--in", str(src), "--out", str(tmp_path / "y"), "--key", "300",
         "--mode", "additive", "--n", "1"],
        capsys,
    )
    assert rc == 0
    assert out == "sealed 5 B -> 25 B (additive, width 1)\n"


def test_encrypt_power_defaults_to_n_two(tmp_path, capsys):
    src = tmp_path / "x"
    src.write_bytes(b"hello")
    sealed = tmp_path / "y"
    rc, out, _ = run_cli(
        ["encrypt", "--json", "--in", str(src), "--out", str(sealed),
         "--key", "1000", "--mode", "power"],
        capsys,
    )
    assert rc == 0
    assert json.loads(out)["n"] == 2
    assert sealed.read_bytes()[6] == 2  # header byte n


def test_decrypt_power_envelope_with_too_small_key(tmp_path, capsys):
    src = tmp_path / "x"
    src.write_bytes(b"hello")
    sealed = tmp_path / "y"
    rc, _, _ = run_cli(
        ["encrypt", "--in", str(src), "--out", str(sealed), "--key", "1000",
         "--mode", "power", "--n", "3"],
        capsys,
    )
    assert rc == 0
    rc, out, err = run_cli(
        ["decrypt", "--in", str(sealed), "--out", str(tmp_path / "z"),
         "--key", "100"],
        capsys,
    )
    assert_one_error_line(rc, out, err)


def test_decrypt_rejects_corrupt_envelope(tmp_path, capsys):
    bad = tmp_path / "bad.ifsc"
    bad.write_bytes(b"IFSC\x01")  # truncated header
    rc, _, err = run_cli(
        ["decrypt", "--in", str(bad), "--out", str(tmp_path / "o"), "--key", "1"],
        capsys,
    )
    assert rc == 1
    assert "error:" in err


# ---------------------------------------------------------------- usage errors

def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_required_argument_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(["reconstruct"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------- parser

# One valid argv per subcommand and bench subcommand, with the
# `--opt=value` form and abbreviated option names among them.
VALID_ARGVS = [
    ["keygen", "--json", "--p", "97"],
    ["encrypt", "--in", "a", "--out", "b", "--key=5", "--mode", "power",
     "--n", "3"],
    ["decrypt", "--in", "a", "--out", "b", "--key", "5"],
    ["split", "--secret", "5", "--coeffs", "3,4", "--n-users", "3"],
    ["reconstruct", "--json", "--points", "1:2,3:4"],
    ["register", "--store", "s", "--user-id", "u", "--type", "owner",
     "--credentials", "c"],
    ["grant", "--file", "f", "--own", "o", "--consumers", "c", "--in", "x"],
    ["revoke", "--store=s", "--file-id", "f", "--user", "u"],
    ["request", "--file-id", "f", "--receiver", "r", "--owner-p", "1:2",
     "--out", "o"],
    ["verify-example", "--p=97"],
    ["bench", "encrypt", "--sizes", "64", "--reps=1"],
    ["bench", "attrs", "--k", "2,3", "--n-u", "5", "--csv", "out.csv"],
    ["bench", "storage", "--n", "3", "--element-bits=128"],
    ["batch"],
]


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
def test_parser_for_argv_parses_like_the_whole_tree(argv, monkeypatch):
    # Each handler, looked up when cli_dispatch runs a command, records
    # the namespace cli_dispatch hands it.
    seen = []
    for name in dir(trishare.cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(trishare.cli, name,
                                lambda args: seen.append(args) or 0)
    assert cli_dispatch(argv) == 0
    (args,) = seen
    assert vars(args) == vars(build_parser().parse_args(argv))
    assert args.command == argv[0]
    if argv[0] == "bench":
        assert args.bench_command == argv[1]


def subcommand_names(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def has_subparsers(parser):
    return any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)


def test_parser_for_grant_is_the_grant_parser():
    parser = build_parser(["grant", "--file-id", "f"])
    assert parser.prog == "trishare grant" and not has_subparsers(parser)


def test_parser_for_bench_encrypt_is_the_bench_encrypt_parser():
    parser = build_parser(["bench", "encrypt"])
    assert parser.prog == "trishare bench encrypt" and not has_subparsers(parser)


@pytest.mark.parametrize("argv", [None, [], ["-h", "grant"], ["frobnicate"],
                                  ["bench"], ["bench", "-h"]])
def test_parser_without_a_command_name_is_the_whole_tree(argv):
    parser = build_parser(argv)
    assert parser.prog == "trishare"
    names = subcommand_names(parser)
    assert list(names) == list(trishare.cli._COMMANDS)
    assert list(subcommand_names(names["bench"])) == ["encrypt", "attrs", "storage"]


def test_dispatch_without_argv_reads_sys_argv(monkeypatch, capsys):
    argv = ["reconstruct", "--points", "2:1942,4:3402,5:4414"]
    monkeypatch.setattr(sys, "argv", ["trishare", *argv])
    # The tracer wraps build_parser by its module-global name, so
    # cli_dispatch must look it up there, and hand it the resolved argv.
    seen = []
    monkeypatch.setattr(trishare.cli, "build_parser",
                        lambda a=None: seen.append(a) or build_parser(a))
    assert cli_dispatch() == 0
    assert capsys.readouterr().out.strip() == "1234"
    assert seen == [argv]


# ---------------------------------------------------------------- kept parsers

def record_handlers(monkeypatch):
    """Replace every handler by one that records its namespace and
    returns 0; returns the list it records into."""
    seen = []
    for name in dir(trishare.cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(trishare.cli, name,
                                lambda args: seen.append(args) or 0)
    return seen


def command_names(argv):
    return tuple(argv[:2]) if argv[0] == "bench" else (argv[0],)


def fresh_tree():
    """The whole tree, built now and not kept."""
    return trishare.cli._parser.__wrapped__(())


@pytest.mark.parametrize("argv", [
    ["request", "--file-id", "f", "--receiver", "r", "--owner-point", "1:2",
     "--out", "o"],
    ["bench", "encrypt", "--sizes", "64"],
], ids=" ".join)
def test_a_command_builds_its_parser_once(argv, monkeypatch):
    seen = record_handlers(monkeypatch)
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    trishare.cli._parser.cache_clear()
    for _ in range(50):
        assert cli_dispatch(argv) == 0
    assert built == [" ".join(["trishare", *command_names(argv)])]
    assert len(seen) == 50


# Per command: an argv that sets its optional values, then one that
# sets none of them.
OPTIONAL_THEN_MINIMAL = [
    (["keygen", "--json", "--p", "97"], ["keygen"]),
    (["encrypt", "--json", "--in", "a", "--out", "b", "--key", "5", "--mode",
      "power", "--n", "3"], ["encrypt", "--in", "a", "--out", "b", "--key", "5"]),
    (["decrypt", "--json", "--in", "a", "--out", "b", "--key", "5"],
     ["decrypt", "--in", "a", "--out", "b", "--key", "5"]),
    (["split", "--json", "--p", "97", "--secret", "5", "--coeffs", "3,4",
      "--n-users", "3"], ["split", "--secret", "5", "--coeffs", "3",
                          "--n-users", "2"]),
    (["reconstruct", "--json", "--p", "97", "--points", "1:2,3:4"],
     ["reconstruct", "--points", "1:2"]),
    (["register", "--json", "--p", "97", "--store", "s", "--user-id", "u",
      "--type", "owner", "--credentials", "c"],
     ["register", "--user-id", "v", "--type", "consumer", "--credentials", "d"]),
    (["grant", "--json", "--store", "s", "--file-id", "f", "--owner", "o",
      "--consumers", "c", "--in", "x", "--mode", "power", "--n", "3"],
     ["grant", "--file-id", "g", "--owner", "p", "--consumers", "d", "--in", "y"]),
    (["revoke", "--json", "--store", "s", "--file-id", "f", "--user", "u"],
     ["revoke", "--file-id", "g", "--user", "v"]),
    (["request", "--json", "--store", "s", "--file-id", "f", "--receiver", "r",
      "--owner-point", "1:2", "--share", "sh", "--out", "o"],
     ["request", "--file-id", "g", "--receiver", "q", "--owner-point", "3:4"]),
    (["verify-example", "--json", "--p", "97"], ["verify-example"]),
    (["bench", "encrypt", "--json", "--sizes", "64", "--mode", "power", "--n",
      "3", "--reps", "1", "--csv", "c"], ["bench", "encrypt"]),
    (["bench", "attrs", "--json", "--k", "2,3", "--n-users", "5", "--reps",
      "1", "--csv", "c"], ["bench", "attrs"]),
    (["bench", "storage", "--json", "--n", "3", "--tc", "4", "--element-bits",
      "128", "--pairing-bits", "256"], ["bench", "storage"]),
    (["batch"], ["batch"]),
]


def test_every_command_has_an_optional_then_minimal_pair():
    assert ([command_names(full) for full, _ in OPTIONAL_THEN_MINIMAL]
            == [command_names(argv) for argv in VALID_ARGVS])
    assert all(command_names(full) == command_names(minimal)
               for full, minimal in OPTIONAL_THEN_MINIMAL)


@pytest.mark.parametrize("full, minimal", OPTIONAL_THEN_MINIMAL,
                         ids=[" ".join(m) for _, m in OPTIONAL_THEN_MINIMAL])
def test_a_kept_parser_carries_nothing_into_the_next_parse(full, minimal,
                                                           monkeypatch):
    seen = record_handlers(monkeypatch)
    assert cli_dispatch(full) == 0
    assert cli_dispatch(minimal) == 0
    first, second = seen
    assert vars(second) == vars(fresh_tree().parse_args(minimal))
    assert vars(first) == vars(fresh_tree().parse_args(full))


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--points", "2:1942,4:3402,5:4414"],
    ["bench", "storage", "--n", "2", "--tc", "2"],
], ids=" ".join)
def test_a_handler_replaced_after_its_parser_is_kept_runs(argv, monkeypatch,
                                                          capsys):
    assert cli_dispatch(argv) == 0  # builds and keeps the parser
    assert capsys.readouterr().out != ""
    seen = record_handlers(monkeypatch)
    assert cli_dispatch(argv) == 0
    assert capsys.readouterr().out == ""
    assert [vars(args) for args in seen] == [vars(fresh_tree().parse_args(argv))]


def usage_at(columns, argv, monkeypatch, capsys):
    """What a command that argparse ends prints at a terminal width."""
    monkeypatch.setenv("COLUMNS", str(columns))
    with pytest.raises(SystemExit) as info:
        cli_dispatch(argv)
    out, err = capsys.readouterr()
    return {"rc": info.value.code, "stdout": out, "stderr": err}


@pytest.mark.parametrize("name", ["help", "help-request", "help-bench-encrypt",
                                  "malformed-owner-point",
                                  "malformed-sizes"])
def test_a_kept_parser_prints_at_the_width_of_the_moment(name, monkeypatch,
                                                         capsys):
    from test_cli_pinned_usage import COMMANDS, GOLDEN
    argv = COMMANDS[name]
    fresh, kept = {}, {}
    for first, then in ((40, 80), (80, 40)):
        trishare.cli._parser.cache_clear()
        fresh[first] = usage_at(first, argv, monkeypatch, capsys)
        kept[then] = usage_at(then, argv, monkeypatch, capsys)
    assert kept == fresh
    assert fresh[40] != fresh[80]
    assert fresh[80] == json.loads(GOLDEN.read_text(encoding="utf-8"))[name]


# ---------------------------------------------------------------- worked example

def test_verify_example_ok(capsys):
    rc, out, _ = run_cli(["verify-example"], capsys)
    assert rc == 0
    assert "PASS with 8 assertions" in out


def test_verify_example_fails_small_field(capsys):
    rc, _, err = run_cli(["verify-example", "--p", "97"], capsys)
    assert rc == 1
    assert "error:" in err


def test_verify_example_json(capsys):
    rc, out, _ = run_cli(["verify-example", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["assertions"]) == 8


# ---------------------------------------------------------------- policy workflow

def register_users(store, capsys):
    for uid, typ in (("olivia", "owner"), ("alice", "consumer"), ("bob", "consumer")):
        rc, _, _ = run_cli(
            ["register", "--store", str(store), "--user-id", uid, "--type", typ,
             "--credentials", f"cred-{uid}"],
            capsys,
        )
        assert rc == 0


def test_register_grant_request_revoke(tmp_path, capsys):
    store = tmp_path / "store"
    body = b"the quarterly numbers" * 32
    src = tmp_path / "report.bin"
    src.write_bytes(body)

    register_users(store, capsys)

    rc, out, _ = run_cli(
        ["grant", "--json", "--store", str(store), "--file-id", "report",
         "--owner", "olivia", "--consumers", "alice,bob", "--in", str(src)],
        capsys,
    )
    assert rc == 0
    granted = json.loads(out)
    assert sorted(granted["consumers"]) == ["alice", "bob"]
    owner_pt = granted["owner_point"]

    fetched = tmp_path / "fetched.bin"
    rc, _, _ = run_cli(
        ["request", "--store", str(store), "--file-id", "report",
         "--receiver", "alice", "--owner-point", f"{owner_pt['x']}:{owner_pt['y']}",
         "--out", str(fetched)],
        capsys,
    )
    assert rc == 0
    assert fetched.read_bytes() == body

    rc, out, _ = run_cli(
        ["revoke", "--json", "--store", str(store), "--file-id", "report",
         "--user", "bob"],
        capsys,
    )
    assert rc == 0
    deltas = json.loads(out)["owner_deltas"]

    # bob is gone outright
    rc, _, err = run_cli(
        ["request", "--store", str(store), "--file-id", "report",
         "--receiver", "bob", "--owner-point", f"{owner_pt['x']}:{owner_pt['y']}",
         "--out", str(tmp_path / "no.bin")],
        capsys,
    )
    assert rc == 1 and "error:" in err

    # the old owner point is stale now; alice needs the shifted one
    rc, _, err = run_cli(
        ["request", "--store", str(store), "--file-id", "report",
         "--receiver", "alice", "--owner-point", f"{owner_pt['x']}:{owner_pt['y']}",
         "--out", str(tmp_path / "no2.bin")],
        capsys,
    )
    assert rc == 1 and "error:" in err

    m = default_modulus()
    shifted = update_owner_share(
        SharePoint(x=owner_pt["x"], y=owner_pt["y"], modulus=m), deltas
    )
    rc, _, _ = run_cli(
        ["request", "--store", str(store), "--file-id", "report",
         "--receiver", "alice", "--owner-point", f"{shifted.x}:{shifted.y}",
         "--out", str(fetched)],
        capsys,
    )
    assert rc == 0
    assert fetched.read_bytes() == body


def test_policy_and_objects_alone_open_every_file(tmp_path, capsys):
    # Only `request` asks for all three roles.  policy.json holds the
    # owner's credentials and each grant's salt, which give a1 and a2;
    # then a0 = server y - a1 x - a2 x^2, with no owner point and no
    # consumer share.
    store = tmp_path / "store"
    register_users(store, capsys)
    bodies = {"memo": (b"additive body " * 40, []),
              "plan": (b"power body " * 40, ["--mode", "power", "--n", "3"])}
    for fid, (body, mode_args) in bodies.items():
        (tmp_path / fid).write_bytes(body)
        rc, _, _ = run_cli(
            ["grant", "--store", str(store), "--file-id", fid, "--owner", "olivia",
             "--consumers", "alice,bob", "--in", str(tmp_path / fid), *mode_args],
            capsys,
        )
        assert rc == 0
    rc, _, _ = run_cli(["revoke", "--store", str(store), "--file-id", "memo",
                        "--user", "bob"], capsys)
    assert rc == 0

    doc = json.loads((store / "policy.json").read_text())
    p = doc["p"]
    assert p == M61
    credentials = {u["user_id"]: bytes.fromhex(u["credentials_hex"])
                   for u in doc["users"]}
    opened = {}
    for g in doc["grants"]:
        owner = credentials[g["owner_id"]]
        a1, a2 = trishare.derive_attribute_tokens(
            [owner + b"\x01", owner + b"\x02"], bytes.fromhex(g["salt_hex"]),
            modulus_for(p))
        x, y = g["server_share"]["x"], g["server_share"]["y"]
        a0 = (y - a1 * x - a2 * x * x) % p
        envelope = trishare.decode_envelope(
            (store / "objects" / g["envelope_ref"]).read_bytes())
        key = trishare.derive_file_key(a0, g["file_id"].encode("utf-8"),
                                       mode=envelope.mode, n=envelope.n)
        opened[g["file_id"]] = trishare.open_file(envelope, key)
    assert opened == {fid: body for fid, (body, _) in bodies.items()}


def test_policy_files_live_in_the_store(tmp_path, capsys):
    store = tmp_path / "store"
    src = tmp_path / "f.bin"
    src.write_bytes(b"body")
    register_users(store, capsys)
    rc, _, _ = run_cli(
        ["grant", "--store", str(store), "--file-id", "f", "--owner", "olivia",
         "--consumers", "alice", "--in", str(src)],
        capsys,
    )
    assert rc == 0
    doc = json.loads((store / "policy.json").read_text())
    assert {u["user_id"] for u in doc["users"]} == {"olivia", "alice", "bob"}
    assert (store / "objects").is_dir()


def test_failed_policy_write_leaves_policy_intact(tmp_path, capsys, monkeypatch):
    store = tmp_path / "store"
    register = ["register", "--store", str(store), "--type", "consumer",
                "--credentials", "c"]
    rc, _, _ = run_cli([*register, "--user-id", "alice"], capsys)
    assert rc == 0
    before = (store / "policy.json").read_bytes()

    def fail_replace(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(trishare.storage.os, "replace", fail_replace)
    rc, _, err = run_cli([*register, "--user-id", "bob"], capsys)
    assert rc == 1 and "error:" in err
    assert (store / "policy.json").read_bytes() == before


def test_failed_sidecar_write_costs_only_a_full_parse(
        tmp_path, capsys, monkeypatch):
    # The new digest reaches the sidecar, then the write fails: the commit
    # stops before policy.json is replaced, and the sidecar, a commit
    # ahead of it, makes the next load take the full parse.
    store = tmp_path / "store"
    register_users(store, capsys)
    before = (store / "policy.json").read_bytes()

    def fail_ftruncate(fd, length):
        raise OSError(errno.EIO, "simulated failure truncating the sidecar")

    monkeypatch.setattr(trishare.storage.os, "ftruncate", fail_ftruncate)
    register = ["register", "--store", str(store), "--type", "consumer",
                "--credentials", "c"]
    rc, out, err = run_cli([*register, "--user-id", "carl"], capsys)
    monkeypatch.undo()
    assert_one_error_line(rc, out, err)
    assert "policy.json.sha256" in err
    assert (store / "policy.json").read_bytes() == before
    assert [p.name for p in store.iterdir() if p.name.endswith(".tmp")] == []
    ahead = (store / "policy.json.sha256").read_text()
    assert ahead != hashlib.sha256(before).hexdigest() + "\n"
    full_parses = []
    real_db_from_json = trishare.policy.db_from_json
    monkeypatch.setattr(trishare.policy, "db_from_json",
                        lambda text: full_parses.append(1) or real_db_from_json(text))
    rc, _, _ = run_cli([*register, "--user-id", "dave"], capsys)
    assert rc == 0 and full_parses == [1]
    users = {u["user_id"] for u in json.loads((store / "policy.json").read_text())["users"]}
    assert users == {"olivia", "alice", "bob", "dave"}
    digest = hashlib.sha256((store / "policy.json").read_bytes()).hexdigest()
    assert (store / "policy.json.sha256").read_text() == digest + "\n"


def test_corrupt_policy_exits_with_one_error_line(tmp_path, capsys, policy_corruption):
    corrupt, _ = policy_corruption
    store = tmp_path / "store"
    register_users(store, capsys)
    assert (store / "policy.json.sha256").exists()
    policy = store / "policy.json"
    policy.write_bytes(corrupt(policy.read_bytes()))
    for argv in (["register", "--user-id", "dave", "--type", "consumer",
                  "--credentials", "c"],
                 ["revoke", "--file-id", "f", "--user", "alice"]):
        rc, out, err = run_cli([*argv, "--store", str(store)], capsys)
        assert rc == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def test_register_modulus_must_match_the_store(tmp_path, capsys):
    store = tmp_path / "store"
    register_users(store, capsys)
    policy = (store / "policy.json").read_bytes()
    argv = ["register", "--store", str(store), "--user-id", "dave",
            "--type", "consumer", "--credentials", "cred-dave"]
    rc, out, err = run_cli([*argv, "--p", "65537"], capsys)
    assert rc == 1 and out == ""
    assert err.splitlines() == [
        f"error: --p 65537 differs from the store's p = {M61}"]
    assert (store / "policy.json").read_bytes() == policy
    rc, _, _ = run_cli([*argv, "--p", str(M61)], capsys)
    assert rc == 0
    users = json.loads((store / "policy.json").read_text())["users"]
    assert "dave" in [u["user_id"] for u in users]


def test_small_field_store_grants_requests_and_revokes(tmp_path, capsys):
    # p = 97 is a test-profile field, read from the stored p alone
    store = tmp_path / "store"
    src = tmp_path / "f.bin"
    src.write_bytes(b"small-field body")
    for uid, typ, extra in (("olivia", "owner", ["--p", "97"]),
                            ("alice", "consumer", []), ("bob", "consumer", [])):
        rc, _, _ = run_cli(
            ["register", "--store", str(store), "--user-id", uid, "--type", typ,
             "--credentials", f"cred-{uid}", *extra], capsys)
        assert rc == 0
    rc, out, _ = run_cli(
        ["grant", "--json", "--store", str(store), "--file-id", "f",
         "--owner", "olivia", "--consumers", "alice,bob", "--in", str(src)],
        capsys)
    assert rc == 0
    pt = json.loads(out)["owner_point"]
    assert json.loads((store / "policy.json").read_text())["p"] == 97
    rc, out, _ = run_cli(
        ["revoke", "--json", "--store", str(store), "--file-id", "f",
         "--user", "bob"], capsys)
    assert rc == 0
    owner = update_owner_share(SharePoint(pt["x"], pt["y"], modulus_for(97)),
                               json.loads(out)["owner_deltas"])
    fetched = tmp_path / "out.bin"
    rc, _, err = run_cli(
        ["request", "--store", str(store), "--file-id", "f", "--receiver", "alice",
         "--owner-point", f"{owner.x}:{owner.y}", "--out", str(fetched)], capsys)
    assert rc == 0, err
    assert fetched.read_bytes() == b"small-field body"


def test_register_modulus_sets_a_new_store(tmp_path, capsys):
    store = tmp_path / "store"
    for uid, extra in (("olivia", ["--p", "65537"]), ("alice", [])):
        rc, _, _ = run_cli(
            ["register", "--store", str(store), "--user-id", uid,
             "--type", "owner", "--credentials", "c", *extra], capsys)
        assert rc == 0
    doc = json.loads((store / "policy.json").read_text())
    assert doc["p"] == 65537 and len(doc["users"]) == 2


@pytest.mark.parametrize("argv", [
    ["request", "--file-id", "f", "--owner-point", "1:2", "--receiver", "bob"],
    ["grant", "--file-id", "f", "--owner", "olivia", "--consumers", "alice",
     "--in", "BODY"],
    ["revoke", "--file-id", "f", "--user", "alice"],
    ["register", "--user-id", "olivia", "--type", "owner", "--credentials",
     "c", "--p", "4"],
], ids=["request", "grant", "revoke", "register-bad-p"])
def test_policy_command_on_a_missing_store_creates_nothing(tmp_path, capsys, argv):
    body = tmp_path / "f.bin"
    body.write_bytes(b"body")
    argv = [str(body) if arg == "BODY" else arg for arg in argv]
    rc, out, err = run_cli([*argv, "--store", str(tmp_path / "typo" / "store")], capsys)
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin"]


def test_register_duplicate_fails(tmp_path, capsys):
    store = tmp_path / "store"
    register_users(store, capsys)
    rc, _, err = run_cli(
        ["register", "--store", str(store), "--user-id", "alice",
         "--type", "consumer", "--credentials", "x"],
        capsys,
    )
    assert rc == 1 and "already registered" in err


def test_grant_unknown_owner_fails(tmp_path, capsys):
    store = tmp_path / "store"
    src = tmp_path / "f.bin"
    src.write_bytes(b"body")
    register_users(store, capsys)
    rc, _, err = run_cli(
        ["grant", "--store", str(store), "--file-id", "f", "--owner", "nobody",
         "--consumers", "alice", "--in", str(src)],
        capsys,
    )
    assert rc == 1 and "error:" in err


def test_grant_additive_rejects_n_other_than_one(tmp_path, capsys):
    store, _ = granted_store(tmp_path, capsys)
    before = (store / "policy.json").read_bytes()
    objects = sorted((store / "objects").iterdir())
    rc, out, err = run_cli(
        ["grant", "--store", str(store), "--file-id", "g", "--owner", "olivia",
         "--consumers", "alice", "--in", str(tmp_path / "f.bin"), "--n", "9"],
        capsys,
    )
    assert_one_error_line(rc, out, err)
    assert (store / "policy.json").read_bytes() == before
    assert sorted((store / "objects").iterdir()) == objects


def test_request_with_presented_share_record(tmp_path, capsys):
    store = tmp_path / "store"
    body = b"hand-carried record"
    src = tmp_path / "f.bin"
    src.write_bytes(body)
    register_users(store, capsys)
    rc, out, _ = run_cli(
        ["grant", "--json", "--store", str(store), "--file-id", "f",
         "--owner", "olivia", "--consumers", "alice", "--in", str(src)],
        capsys,
    )
    owner_pt = json.loads(out)["owner_point"]
    policy = json.loads((store / "policy.json").read_text())
    record = policy["grants"][0]["consumers"]["alice"]
    share_file = tmp_path / "alice-share.json"
    share_file.write_text(json.dumps(record))
    fetched = tmp_path / "out.bin"
    rc, _, _ = run_cli(
        ["request", "--store", str(store), "--file-id", "f", "--receiver", "alice",
         "--owner-point", f"{owner_pt['x']}:{owner_pt['y']}",
         "--share", str(share_file), "--out", str(fetched)],
        capsys,
    )
    assert rc == 0
    assert fetched.read_bytes() == body


def granted_store(tmp_path, capsys):
    """A store with one grant of f to alice; returns (store, owner point)."""
    store = tmp_path / "store"
    src = tmp_path / "f.bin"
    src.write_bytes(b"body")
    register_users(store, capsys)
    rc, out, _ = run_cli(
        ["grant", "--json", "--store", str(store), "--file-id", "f",
         "--owner", "olivia", "--consumers", "alice", "--in", str(src)],
        capsys,
    )
    assert rc == 0
    point = json.loads(out)["owner_point"]
    return store, f"{point['x']}:{point['y']}"


@pytest.mark.parametrize("sidecar", ["rehashed", "deleted"])
def test_envelope_ref_leaving_the_store_is_corrupt(tmp_path, capsys, sidecar):
    # The ref is joined onto objects/, so "../../outside.bin" would open an
    # envelope copied beside the store; both load paths refuse the grant.
    store, owner_point = granted_store(tmp_path, capsys)
    policy = store / "policy.json"
    ref = json.loads(policy.read_text())["grants"][0]["envelope_ref"]
    (tmp_path / "outside.bin").write_bytes((store / "objects" / ref).read_bytes())
    policy.write_bytes(policy.read_bytes().replace(
        b'"envelope_ref": "%s"' % ref.encode(), b'"envelope_ref": "../../outside.bin"'))
    digest = store / "policy.json.sha256"
    if sidecar == "rehashed":
        digest.write_text(hashlib.sha256(policy.read_bytes()).hexdigest() + "\n")
    else:
        digest.unlink()
    fetched = tmp_path / "out.bin"
    rc, out, err = run_cli(
        ["request", "--store", str(store), "--file-id", "f", "--receiver", "alice",
         "--owner-point", owner_point, "--out", str(fetched)],
        capsys,
    )
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "'f'" in lines[0] and "../../outside.bin" in lines[0]
    assert not fetched.exists()


def test_policy_commands_fsync_each_durable_file_and_the_root_once(
        tmp_path, capsys, fsyncs, monkeypatch):
    store, _ = granted_store(tmp_path, capsys)
    src = tmp_path / "g.bin"
    src.write_bytes(b"body")
    # The sidecar is written in place: only the policy and the blob are
    # renamed into place.
    replaced = []
    real_replace = os.replace
    monkeypatch.setattr(trishare.storage.os, "replace",
                        lambda src, dst: replaced.append(dst) or real_replace(src, dst))
    fsyncs.clear()
    for argv, count, renames in (
            (["register", "--user-id", "dave", "--type", "consumer",
              "--credentials", "c"], 2, 1),  # policy, root
            (["grant", "--file-id", "g", "--owner", "olivia",
              "--consumers", "alice", "--in", str(src)], 4, 2),  # + blob, objects/
            (["revoke", "--file-id", "f", "--user", "alice"], 2, 1)):  # policy, root
        rc, _, _ = run_cli([*argv, "--store", str(store)], capsys)
        assert rc == 0 and len(fsyncs) == count, argv
        assert len(replaced) == renames, argv
        fsyncs.clear()
        replaced.clear()


def test_failed_policy_fsync_changes_no_policy_file(tmp_path, capsys, monkeypatch):
    store, _ = granted_store(tmp_path, capsys)
    names = ("policy.json", "policy.json.sha256")
    before = {name: (store / name).read_bytes() for name in names}
    policy_fds = set()
    real_mkstemp, real_fsync = tempfile.mkstemp, os.fsync

    def recording_mkstemp(*args, **kwargs):
        fd, path = real_mkstemp(*args, **kwargs)
        if os.path.basename(path).startswith("policy.json."):
            policy_fds.add(fd)
        return fd, path

    def fsync(fd):
        if fd in policy_fds:
            raise OSError(errno.EIO, "simulated failure syncing the policy")
        real_fsync(fd)

    monkeypatch.setattr(trishare.storage.tempfile, "mkstemp", recording_mkstemp)
    monkeypatch.setattr(trishare.storage.os, "fsync", fsync)
    rc, out, err = run_cli(["revoke", "--store", str(store), "--file-id", "f",
                            "--user", "alice"], capsys)
    monkeypatch.undo()
    assert_one_error_line(rc, out, err)
    assert policy_fds
    assert {name: (store / name).read_bytes() for name in names} == before
    assert [p.name for p in store.iterdir() if p.name.endswith(".tmp")] == []


def test_a_command_renders_only_the_blocks_it_assigns(tmp_path, capsys):
    store, owner_point = granted_store(tmp_path, capsys)
    src = tmp_path / "g.bin"
    src.write_bytes(b"body")
    for argv, users, grants in (
            (["register", "--user-id", "dave", "--type", "consumer",
              "--credentials", "c"], 1, 0),
            (["grant", "--file-id", "g", "--owner", "olivia",
              "--consumers", "alice,bob", "--in", str(src)], 0, 1),
            (["revoke", "--file-id", "g", "--user", "alice"], 0, 1),
            (["request", "--file-id", "f", "--receiver", "alice",
              "--owner-point", owner_point, "--out", str(tmp_path / "out")], 0, 0)):
        with mock.patch.object(trishare.policy, "_user_json",
                               wraps=trishare.policy._user_json) as user_json, \
                mock.patch.object(trishare.policy, "_grant_json",
                                  wraps=trishare.policy._grant_json) as grant_json:
            rc, _, err = run_cli([*argv, "--store", str(store)], capsys)
        assert rc == 0, err
        assert (user_json.call_count, grant_json.call_count) == (users, grants), argv


def held_registers(store, monkeypatch):
    """Register dave in a thread held inside its commit, then erin in a
    second thread.  Returns whether erin's thread was still running 0.2 s
    later, and both exit codes."""
    entered, release = threading.Event(), threading.Event()
    real_persist = trishare.policy.persist_db

    def held_persist(db, store):
        if threading.current_thread().name == "first":
            entered.set()
            release.wait(10)
        real_persist(db, store)

    monkeypatch.setattr(trishare.policy, "persist_db", held_persist)
    codes = {}

    def register(uid):
        codes[uid] = cli_dispatch(["register", "--store", str(store), "--user-id",
                                   uid, "--type", "consumer", "--credentials", "c"])

    first = threading.Thread(target=register, args=("dave",), name="first")
    second = threading.Thread(target=register, args=("erin",), name="second")
    try:
        first.start()
        assert entered.wait(10)
        second.start()
        second.join(0.2)
        waited = second.is_alive()
    finally:
        release.set()
        first.join(10)
        second.join(10)
    assert not first.is_alive() and not second.is_alive()
    return waited, codes


def test_a_policy_command_waits_for_one_in_progress(tmp_path, capsys, monkeypatch):
    # flock holds per open of the store root, so two threads exclude each
    # other as two processes do.  The first register stops inside its
    # commit; the second must wait for it, then commit on top of it.
    store = tmp_path / "store"
    register_users(store, capsys)
    waited, codes = held_registers(store, monkeypatch)
    assert waited and codes == {"dave": 0, "erin": 0}
    users = json.loads((store / "policy.json").read_text())["users"]
    assert [u["user_id"] for u in users] == ["alice", "bob", "dave", "erin", "olivia"]


def test_first_registers_on_a_missing_store_wait_for_each_other(tmp_path,
                                                                monkeypatch):
    # register makes the root before it locks, so the two commands that
    # create a store are serialized like any others.
    store = tmp_path / "new" / "store"
    waited, codes = held_registers(store, monkeypatch)
    assert waited and codes == {"dave": 0, "erin": 0}
    users = json.loads((store / "policy.json").read_text())["users"]
    assert [u["user_id"] for u in users] == ["dave", "erin"]


def test_legacy_acl_backup_is_left_in_place(tmp_path, capsys):
    # Older stores hold acl-backup.json, a copy of policy.json written on
    # grant and revoke.  Nothing reads, rewrites or deletes it now.
    store, _ = granted_store(tmp_path, capsys)
    legacy = store / "acl-backup.json"
    legacy.write_bytes((store / "policy.json").read_bytes())
    before = legacy.read_bytes()
    src, fetched = tmp_path / "g.bin", tmp_path / "g.out"
    src.write_bytes(b"second body")
    rc, _, _ = run_cli(["register", "--store", str(store), "--user-id", "dave",
                        "--type", "consumer", "--credentials", "c"], capsys)
    assert rc == 0
    rc, out, _ = run_cli(["grant", "--json", "--store", str(store), "--file-id",
                          "g", "--owner", "olivia", "--consumers", "dave",
                          "--in", str(src)], capsys)
    assert rc == 0
    point = json.loads(out)["owner_point"]
    rc, _, _ = run_cli(["revoke", "--store", str(store), "--file-id", "f",
                        "--user", "alice"], capsys)
    assert rc == 0
    rc, _, _ = run_cli(["request", "--store", str(store), "--file-id", "g",
                        "--receiver", "dave", "--owner-point",
                        f"{point['x']}:{point['y']}", "--out", str(fetched)],
                       capsys)
    assert rc == 0 and fetched.read_bytes() == b"second body"
    assert legacy.read_bytes() == before
    assert legacy.read_bytes() != (store / "policy.json").read_bytes()


def test_request_json_without_out_is_refused(tmp_path, capsys):
    # Without --out the plaintext goes to stdout, which --json promises
    # to JSON; the refusal comes before the store is opened.
    store, owner_point = granted_store(tmp_path, capsys)
    for root in (store, tmp_path / "absent"):
        rc, out, err = run_cli(
            ["request", "--json", "--store", str(root), "--file-id", "f",
             "--receiver", "alice", "--owner-point", owner_point], capsys)
        assert_one_error_line(rc, out, err)
        assert "--out" in err
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize("content", [
    b"\xff{}",
    b"not json",
    b"[1, 2]",
    b'{"file_id": "f"}',
    b'{"file_id": "f", "x": "abc", "y_enc": 1, "p": 97, "kc": 1, "x_kc": 1}',
    b'{"file_id": "f", "x": 3, "y_enc": 1, "p": 65537, "kc": 1, "x_kc": 1}',
    b"[" * 100_000,
], ids=["not-utf8", "not-json", "json-list", "missing-key", "non-numeric-x",
        "other-p", "too-deep"])
def test_bad_share_record_file_exits_with_one_error_line(tmp_path, capsys, content):
    store, owner_point = granted_store(tmp_path, capsys)
    share_file = tmp_path / "share.json"
    share_file.write_bytes(content)
    rc, out, err = run_cli(
        ["request", "--store", str(store), "--file-id", "f", "--receiver", "alice",
         "--owner-point", owner_point, "--share", str(share_file),
         "--out", str(tmp_path / "out.bin")],
        capsys,
    )
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize("argv", [
    ["register", "--user-id", "dave", "--type", "consumer",
     "--credentials", "\udcff"],
    ["grant", "--file-id", "\udcff", "--owner", "olivia", "--consumers", "alice"],
], ids=["register-credentials", "grant-file-id"])
def test_lone_surrogate_argument_changes_nothing(tmp_path, capsys, argv):
    store, _ = granted_store(tmp_path, capsys)
    src = tmp_path / "g.bin"
    src.write_bytes(b"other body")
    policy = (store / "policy.json").read_bytes()
    objects = sorted(os.listdir(store / "objects"))
    extra = ["--in", str(src)] if argv[0] == "grant" else []
    rc, out, err = run_cli([*argv, *extra, "--store", str(store)], capsys)
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert (store / "policy.json").read_bytes() == policy
    assert sorted(os.listdir(store / "objects")) == objects


def test_request_for_a_lone_surrogate_file_id_is_one_error_line(tmp_path, capsys):
    # A hand-edited policy renames f to "\udcff" in its grant and in each
    # record, which the full parse accepts; --file-id $'\xff' reaches
    # request_decrypt as that id, which no UTF-8 bytes key or bind.
    store, owner_point = granted_store(tmp_path, capsys)
    policy = store / "policy.json"
    policy.write_bytes(policy.read_bytes().replace(b'"file_id": "f"',
                                                   b'"file_id": "\\udcff"'))
    rc, out, err = run_cli(
        ["request", "--store", str(store), "--file-id", "\udcff",
         "--receiver", "alice", "--owner-point", owner_point,
         "--out", str(tmp_path / "out.bin")], capsys)
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: file id ")
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize("argv", [
    ["request", "--store", "store", "--file-id", "f", "--receiver", "alice",
     "--owner-point", "2"],
    ["reconstruct", "--points", "2"],
    ["split", "--secret", "5", "--coeffs", "a", "--n-users", "3"],
    ["bench", "encrypt", "--sizes", "a"],
], ids=["request-owner-point", "reconstruct-points", "split-coeffs",
        "bench-encrypt-sizes"])
def test_malformed_numeric_argument_is_usage_error(tmp_path, monkeypatch, capsys,
                                                   argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli_dispatch(argv)
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "usage:" in err and "Traceback" not in err
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("argv", [
    ["encrypt", "--in", "a.bin", "--out", "b.bin", "--key", "300"],
    ["decrypt", "--in", "a.bin", "--out", "b.bin", "--key", "300"],
    ["grant", "--store", "store", "--file-id", "f", "--owner", "olivia",
     "--consumers", "alice", "--in", "a.bin"],
    ["revoke", "--store", "store", "--file-id", "f", "--user", "alice"],
    ["request", "--store", "store", "--file-id", "f", "--receiver", "alice",
     "--owner-point", "2:3"],
    ["bench", "encrypt", "--sizes", "64"],
    ["bench", "attrs", "--k", "3,5"],
    ["bench", "storage"],
], ids=["encrypt", "decrypt", "grant", "revoke", "request", "bench-encrypt",
        "bench-attrs", "bench-storage"])
def test_modulus_option_only_where_it_sets_the_modulus(tmp_path, monkeypatch,
                                                       capsys, argv):
    # A store's modulus is fixed when it is created, and the cipher and
    # benchmark commands use no modulus, so --p here is a usage error.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli_dispatch([*argv, "--p", "97"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "unrecognized arguments: --p 97" in err
    assert not (tmp_path / "store").exists()


def test_reconstruct_takes_a_modulus(capsys):
    rc, out, _ = run_cli(["reconstruct", "--points", "1:10,2:19,3:32",
                          "--p", "97"], capsys)
    assert rc == 0
    assert out.strip() == "5"


@pytest.mark.parametrize("argv", [
    ["keygen", "--p", "0"],
    ["split", "--secret", "5", "--coeffs", "3,2", "--n-users", "3", "--p", "0"],
    ["verify-example", "--p", "0"],
], ids=["keygen", "split", "verify-example"])
def test_zero_modulus_is_rejected(capsys, argv):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1 and out == ""
    assert err.splitlines() == ["error: 0 is not prime"]


@pytest.mark.parametrize("argv", [
    ["keygen"],
    ["split", "--secret", "5", "--coeffs", "3,2", "--n-users", "3"],
    ["register", "--store", "store", "--user-id", "olivia", "--type", "owner",
     "--credentials", "c1"],
], ids=["keygen", "split", "register"])
def test_modulus_beyond_the_primality_bound_is_rejected(tmp_path, monkeypatch,
                                                        capsys, argv):
    # 1287836182261 * 2575672364521 passes Miller-Rabin for the 12 witnesses
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli([*argv, "--p", "3317044064679887385961981"], capsys)
    assert_one_error_line(rc, out, err)
    assert not (tmp_path / "store" / "policy.json").exists()


# ---------------------------------------------------------------- bench commands

def test_bench_storage_json(capsys):
    rc, out, _ = run_cli(["bench", "storage", "--json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    by_scheme = {row["scheme"]: row for row in doc["rows"]}
    assert by_scheme["proposed"]["user_bytes"] == 352
    assert by_scheme["dac-macs"]["user_bytes"] == 416


def test_bench_encrypt_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "enc.csv"
    rc, out, _ = run_cli(
        ["bench", "encrypt", "--sizes", "256,512", "--reps", "5",
         "--csv", str(csv_path)],
        capsys,
    )
    assert rc == 0
    text = csv_path.read_text()
    assert text.splitlines()[0] == "size_bytes,cipher_bytes,encrypt_s,decrypt_s,throughput_kbps"
    assert len(text.splitlines()) == 3
    assert out.splitlines()[0].startswith("size_bytes,")


def test_bench_attrs_reports_fit(capsys):
    rc, out, _ = run_cli(
        ["bench", "attrs", "--k", "3,5", "--n-users", "8", "--reps", "5"], capsys
    )
    assert rc == 0
    assert "split fit:" in out


@pytest.mark.parametrize("argv", [
    ["bench", "attrs", "--k", "3", "--reps", "5"],
    ["bench", "attrs", "--k", "3,3", "--reps", "5"],
    ["bench", "encrypt", "--sizes", "-5", "--reps", "5"],
    ["bench", "attrs", "--k", "0,1", "--reps", "5"],
    ["bench", "storage", "--n", "-1", "--tc", "-5"],
    ["bench", "encrypt", "--sizes", "", "--reps", "5"],
    ["bench", "encrypt", "--sizes", ",", "--reps", "5"],
    ["bench", "attrs", "--k", "", "--reps", "5"],
], ids=["attrs-one-k", "attrs-repeated-k", "encrypt-negative-size",
        "attrs-zero-k", "storage-negative-n", "encrypt-empty-sizes",
        "encrypt-comma-sizes", "attrs-empty-k"])
def test_bench_bad_input_exits_with_one_error_line(capsys, argv):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_bench_encrypt_additive_rejects_n_before_timing(capsys, monkeypatch):
    def fail(fn, reps):
        raise AssertionError("timed before validating its input")
    monkeypatch.setattr(trishare.bench, "_median_seconds", fail)
    rc, out, err = run_cli(
        ["bench", "encrypt", "--sizes", "64", "--n", "42", "--reps", "5"], capsys)
    assert_one_error_line(rc, out, err)


# ---------------------------------------------------------------- entry point

def trishare_cmd(*args):
    return [sys.executable, "-m", "trishare", *args]


@pytest.fixture
def child_env():
    # The children run with cwd=tmp_path, where a relative PYTHONPATH
    # would not resolve, so point them at the package this test imported.
    env = dict(os.environ)
    src = str(Path(trishare.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_script_runs(tmp_path, child_env):
    proc = subprocess.run(
        trishare_cmd("reconstruct", "--points", "2:1942,4:3402,5:4414"),
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1234"


def test_console_script_usage_error(tmp_path, child_env):
    proc = subprocess.run(
        trishare_cmd(), capture_output=True, text=True, cwd=tmp_path,
        env=child_env,
    )
    assert proc.returncode == 2


def test_request_streams_to_stdout(tmp_path, child_env):
    # no --out: raw plaintext on stdout (subprocess so the buffer is real)
    store = tmp_path / "store"
    src = tmp_path / "f.bin"
    body = b"streamed-bytes\x00\xff"
    src.write_bytes(body)
    for uid, typ in (("olivia", "owner"), ("alice", "consumer")):
        subprocess.run(
            trishare_cmd("register", "--store", str(store), "--user-id", uid,
                         "--type", typ, "--credentials", f"cred-{uid}"),
            check=True, cwd=tmp_path, capture_output=True, env=child_env,
        )
    granted = subprocess.run(
        trishare_cmd("grant", "--json", "--store", str(store), "--file-id", "f",
                     "--owner", "olivia", "--consumers", "alice", "--in", str(src)),
        check=True, cwd=tmp_path, capture_output=True, text=True, env=child_env,
    )
    pt = json.loads(granted.stdout)["owner_point"]
    fetched = subprocess.run(
        trishare_cmd("request", "--store", str(store), "--file-id", "f",
                     "--receiver", "alice", "--owner-point", f"{pt['x']}:{pt['y']}"),
        check=True, cwd=tmp_path, capture_output=True, env=child_env,
    )
    assert fetched.stdout == body


def test_concurrent_registers_keep_every_user(tmp_path, capsys, child_env):
    store = tmp_path / "store"
    rc, _, _ = run_cli(["register", "--store", str(store), "--user-id", "olivia",
                        "--type", "owner", "--credentials", "c"], capsys)
    assert rc == 0
    # Each process runs five registers; its exit code is the worst of them.
    script = ("import sys\n"
              "from trishare.cli import cli_dispatch\n"
              "store, prefix = sys.argv[1:]\n"
              "sys.exit(max(cli_dispatch(['register', '--store', store, '--user-id',\n"
              "                           f'{prefix}-{i}', '--type', 'consumer',\n"
              "                           '--credentials', 'c']) for i in range(5)))\n")
    procs = [subprocess.Popen([sys.executable, "-c", script, str(store), f"w{w}"],
                              cwd=tmp_path, env=child_env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
             for w in range(4)]
    try:
        errors = [proc.communicate(timeout=60)[1] for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    assert [proc.returncode for proc in procs] == [0] * 4, errors
    users = json.loads((store / "policy.json").read_text())["users"]
    assert len(users) == 21


def test_cli_import_leaves_numpy_out(tmp_path, child_env):
    # the package has no runtime dependencies; numpy alone would add
    # about 14 MiB to every command's resident set
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, trishare.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_bench_out(tmp_path, child_env):
    # only verify-example and bench need trishare.bench (and the
    # statistics and platform modules it brings); neither the package
    # nor the policy commands should pay for importing it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, trishare, trishare.cli; "
         "print('trishare.bench' in sys.modules)"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
