"""The stdout, stderr and --csv files of `verify-example` and `trishare
bench encrypt|attrs|storage` are pinned byte for byte.

Timings, the environment note and the grant's randomness are fixed, so
each command's output is a function of its arguments alone.  The
expected text lives in `bench_pinned_output.json` beside this file.
"""

import itertools
import json
from pathlib import Path

import pytest

import trishare.authz
import trishare.bench
from trishare.cli import cli_dispatch

GOLDEN = Path(__file__).resolve().parent / "bench_pinned_output.json"

COMMANDS = {
    "verify-example": ["verify-example"],
    "verify-example-json": ["verify-example", "--json"],
    "verify-example-p97": ["verify-example", "--p", "97"],
    "storage": ["bench", "storage"],
    "storage-json": ["bench", "storage", "--json"],
    "storage-custom": ["bench", "storage", "--n", "5", "--tc", "7",
                       "--element-bits", "128", "--pairing-bits", "1024"],
    "encrypt-additive": ["bench", "encrypt", "--sizes", "0,100,3000"],
    "encrypt-additive-json": ["bench", "encrypt", "--sizes", "0,100,3000",
                              "--json"],
    "encrypt-power": ["bench", "encrypt", "--sizes", "0,100", "--mode", "power",
                      "--n", "3", "--reps", "6"],
    "encrypt-power-json": ["bench", "encrypt", "--sizes", "0,100", "--mode",
                           "power", "--n", "3", "--reps", "6", "--json"],
    "attrs": ["bench", "attrs", "--k", "3,5,9", "--n-users", "12"],
    "attrs-json": ["bench", "attrs", "--k", "3,5,9", "--n-users", "12", "--json"],
    "attrs-one-k": ["bench", "attrs", "--k", "3"],
}


def run_pinned(argv, tmp_path, monkeypatch, capsys):
    """Run one command with fixed inputs; returns what it printed and wrote."""
    ticks = itertools.count(1)
    monkeypatch.setattr(trishare.bench, "_median_seconds",
                        lambda fn, reps: next(ticks) / 1024 + reps / 10**6)
    monkeypatch.setattr(trishare.bench, "_environment_note", lambda: "env")
    monkeypatch.setattr(trishare.authz._secrets, "randbelow", lambda p: 123456789)
    monkeypatch.setattr(trishare.authz.os, "urandom", lambda k: bytes(range(k)))
    csv_path = tmp_path / "out.csv"
    if argv[:2] in (["bench", "encrypt"], ["bench", "attrs"]):
        argv = [*argv, "--csv", str(csv_path)]
    rc = cli_dispatch(argv)
    out, err = capsys.readouterr()
    csv = csv_path.read_text(encoding="utf-8") if csv_path.exists() else None
    return {"rc": rc, "stdout": out, "stderr": err, "csv": csv}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_bench_output_is_pinned(name, tmp_path, monkeypatch, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_pinned(COMMANDS[name], tmp_path, monkeypatch, capsys) == expected


@pytest.mark.parametrize("name", ["storage", "storage-json", "storage-custom"])
def test_bench_storage_reproduces_without_fixing_randomness(name, capsys):
    """The sample grant is seeded, so the storage table is the same bytes
    on every run with nothing patched."""
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    for _ in range(2):
        rc = cli_dispatch(COMMANDS[name])
        out, err = capsys.readouterr()
        assert {"rc": rc, "stdout": out, "stderr": err, "csv": None} == expected
