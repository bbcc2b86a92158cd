"""Mutation probe: which small faults in a module do its tests miss?

Run from the repository root:

    python tests/mutation.py authz keystream

With no module names it probes every module in TESTS.

Each mutant changes one site of the module's source, found with the
stdlib ast:

- a comparison flipped (< to <= and to >=, == to !=, in to not in, ...);
- an int constant 0, 1 or 2 plus one;
- a + swapped for a - and back (also in += and -=).

A fixed seed picks a fixed sample of the sites.  Every mutant is
written into a temporary copy of the repository, never the checkout,
and the module's mapped tests run there with `pytest -x`.  A failing
run, or one still going after TIMEOUT_S seconds, kills the mutant.  A
mutant that passes them is rerun against the whole tests/ directory
(WHOLE_TIMEOUT_S seconds), and only one that passes that too survives.
The report gives each mutant's line, its change, its fate and which
suite killed it.

This file is not collected by pytest and is not part of Tier-1.
"""

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: module -> the test files that run against its mutants
TESTS = {
    "authz": ["tests/test_authz.py"],
    # test_authz.py also holds the store's loader and persistence tests
    "policy": ["tests/test_authz.py", "tests/test_policy.py",
               "tests/test_store_fuzz.py"],
    "keystream": ["tests/test_keystream.py"],
    "storage": ["tests/test_storage.py", "tests/test_decoder_fuzz.py"],
    "cipher": ["tests/test_cipher.py"],
    "interpolate": ["tests/test_interpolate.py"],
    "sharing": ["tests/test_sharing.py", "tests/test_decoder_fuzz.py"],
    "cli": ["tests/test_cli.py", "tests/test_cli_pinned_usage.py",
            "tests/test_batch.py"],
    "field": ["tests/test_field.py", "tests/test_interpolate.py"],
    # the files that pin FNV outputs
    "hashing": ["tests/test_cipher.py", "tests/test_sharing.py",
                "tests/test_storage.py"],
    "bench": ["tests/test_bench.py", "tests/test_bench_pinned_output.py"],
}
#: the suite that reruns each mutant the mapped tests miss
WHOLE = ["tests"]
SEED = 7
SAMPLE = 40
TIMEOUT_S = 45
WHOLE_TIMEOUT_S = 240

_FLIPS = {
    ast.Lt: (ast.LtE, ast.GtE), ast.LtE: (ast.Lt, ast.Gt),
    ast.Gt: (ast.GtE, ast.LtE), ast.GtE: (ast.Gt, ast.Lt),
    ast.Eq: (ast.NotEq,), ast.NotEq: (ast.Eq,),
    ast.Is: (ast.IsNot,), ast.IsNot: (ast.Is,),
    ast.In: (ast.NotIn,), ast.NotIn: (ast.In,),
}
_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add}
_SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
            ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
            ast.In: "in", ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-"}


def _sites(tree):
    """(node position in ast.walk order, line, change, apply) for every
    mutable site; apply(node) makes the change in place."""
    sites = []
    for pos, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                for new in _FLIPS.get(type(op), ()):
                    sites.append((pos, node.lineno,
                                  f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[new]}",
                                  lambda n, i=i, new=new: n.ops.__setitem__(i, new())))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            new = _SWAPS[type(node.op)]
            sites.append((pos, node.lineno,
                          f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[new]}",
                          lambda n, new=new: setattr(n, "op", new())))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.value in (0, 1, 2)):
            sites.append((pos, node.lineno, f"{node.value} -> {node.value + 1}",
                          lambda n: setattr(n, "value", n.value + 1)))
    return sites


def _mutant(source, pos, apply):
    """The module's source with the site at walk position pos changed."""
    tree = ast.parse(source)
    apply(next(node for i, node in enumerate(ast.walk(tree)) if i == pos))
    return ast.unparse(tree) + "\n"


def _run_tests(copy, tests, timeout=TIMEOUT_S):
    """'killed', 'survived' or 'timeout' for the tests in the copy."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests],
        cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        return "survived" if proc.wait(timeout=timeout) == 0 else "killed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"


def probe(module, copy, sample):
    """Run a sample of the module's mutants; a list of report rows."""
    path = copy / "src" / "trishare" / f"{module}.py"
    source = path.read_text(encoding="utf-8")
    sites = _sites(ast.parse(source))
    picked = sorted(random.Random(SEED).sample(range(len(sites)),
                                               min(sample, len(sites))),
                    key=lambda k: (sites[k][1], k))
    unparsed = ast.unparse(ast.parse(source)) + "\n"

    def round_trip(tests, timeout=TIMEOUT_S):
        # ast.unparse drops comments and layout: the unmutated round trip
        # must pass, or no mutant's result would mean anything.
        path.write_text(unparsed, encoding="utf-8")
        if _run_tests(copy, tests, timeout) != "survived":
            raise SystemExit(f"{module}: {' '.join(tests)} fail on the "
                             "unmutated source")

    try:
        round_trip(TESTS[module])
        whole_checked = False  # the whole suite's round trip runs once, if needed
        print(f"{module}: {len(picked)} of {len(sites)} sites (seed {SEED})",
              flush=True)
        rows = []
        for k in picked:
            pos, line, change, apply = sites[k]
            mutant = _mutant(source, pos, apply)
            path.write_text(mutant, encoding="utf-8")
            start = time.monotonic()
            fate, by = _run_tests(copy, TESTS[module]), "mapped tests"
            if fate == "survived":
                if not whole_checked:
                    round_trip(WHOLE, WHOLE_TIMEOUT_S)
                    whole_checked = True
                    path.write_text(mutant, encoding="utf-8")
                fate, by = _run_tests(copy, WHOLE, WHOLE_TIMEOUT_S), "whole suite"
            if fate == "survived":
                by = ""
            rows.append((module, line, change, fate, by))
            print(f"  {module}.py:{line:<4} {change:<12} {fate:<8} {by:<12} "
                  f"{time.monotonic() - start:5.1f} s", flush=True)
        return rows
    finally:
        path.write_text(source, encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # no choices=: argparse checks a nargs="*" positional's empty list
    # against them and refuses it
    parser.add_argument("modules", nargs="*", metavar="module",
                        help=f"one of {', '.join(sorted(TESTS))} "
                             "(default: every one)")
    parser.add_argument("--sample", type=int, default=SAMPLE,
                        help="mutants per module")
    args = parser.parse_args(argv)
    for module in args.modules:
        if module not in TESTS:
            parser.error(f"unknown module {module!r}")
    with tempfile.TemporaryDirectory(prefix="trishare-mutation-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench"))
        rows = [row for module in args.modules or TESTS
                for row in probe(module, copy, args.sample)]
    survivors = [row for row in rows if row[3] == "survived"]
    whole = sum(row[4] == "whole suite" for row in rows)
    print(f"{len(rows) - len(survivors)} killed ({whole} only by the whole "
          f"suite), {len(survivors)} survived")
    for module, line, change, *_ in survivors:
        print(f"  survived: {module}.py:{line} {change}")


if __name__ == "__main__":
    main()
