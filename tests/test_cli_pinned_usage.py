"""The stdout, stderr and exit code of every `--help` and of the usage
errors (exit 2) are pinned byte for byte.

COLUMNS is fixed, so argparse wraps the same way on every terminal.  The
expected text lives in `cli_pinned_usage.json` beside this file; it is
argparse's wording on Python 3.11.
"""

import json
from pathlib import Path

import pytest

from trishare.cli import cli_dispatch

GOLDEN = Path(__file__).resolve().parent / "cli_pinned_usage.json"

SUBCOMMANDS = ["keygen", "encrypt", "decrypt", "split", "reconstruct",
               "register", "grant", "revoke", "request", "verify-example",
               "bench", "batch"]
BENCH_SUBCOMMANDS = ["encrypt", "attrs", "storage"]

COMMANDS = {
    "help": ["--help"],
    **{f"help-{name}": [name, "--help"] for name in SUBCOMMANDS},
    **{f"help-bench-{name}": ["bench", name, "--help"]
       for name in BENCH_SUBCOMMANDS},
    "no-subcommand": [],
    "unknown-subcommand": ["frobnicate"],
    "unknown-bench-subcommand": ["bench", "frobnicate"],
    "missing-argument": ["grant", "--file-id", "f", "--owner", "o",
                         "--consumers", "c"],
    "malformed-owner-point": ["request", "--file-id", "f", "--receiver", "r",
                              "--owner-point", "1-2"],
    "malformed-coeffs": ["split", "--secret", "5", "--coeffs", "3,two",
                         "--n-users", "3"],
    "malformed-sizes": ["bench", "encrypt", "--sizes", "64,1k"],
    "refused-p-grant": ["grant", "--p", "97", "--file-id", "f", "--owner", "o",
                        "--consumers", "c", "--in", "x"],
    "refused-p-bench-storage": ["bench", "storage", "--p", "97"],
    # A parser built for one subcommand must still fail the way the
    # whole tree does: top-level usage with the full subcommand list.
    "unrecognized-after-grant": ["grant", "--file-id", "f", "--owner", "o",
                                 "--consumers", "c", "--in", "x", "extra"],
    "unrecognized-after-bench-encrypt": ["bench", "encrypt", "--reps", "1",
                                         "--bogus"],
    "refused-p-bench-storage-extra": ["bench", "storage", "--p", "97",
                                      "extra"],
    "bench-no-subcommand": ["bench"],
    "help-before-subcommand": ["-h", "grant"],
    "ambiguous-abbreviation": ["request", "--o", "1:2"],
    "refused-abbreviation-bench-storage": ["bench", "storage", "--pair", "5"],
    # Each batch line names its own store.
    "refused-store-batch": ["batch", "--store", "s"],
}


def run_usage(argv, monkeypatch, capsys):
    """Run one command that argparse ends; returns what it printed."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        cli_dispatch(argv)
    out, err = capsys.readouterr()
    return {"rc": info.value.code, "stdout": out, "stderr": err}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_usage_output_is_pinned(name, monkeypatch, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert run_usage(COMMANDS[name], monkeypatch, capsys) == expected
