"""Command-line front end.

Exit codes: 0 success, 1 operation failure (any trishare Error),
2 usage error (argparse).  Every subcommand but `batch` accepts --json
for machine-readable output on stdout.  `request` without --out writes
the plaintext to stdout, so `request --json` needs --out (exit 1
otherwise).  `batch` runs one command per stdin line in this process
and writes one JSON line per command.

Each command path has one parser, built the first time the process
sees that command and kept; the handler is found when the command
runs, by name, not stored in the parser.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import secrets as _secrets
import sys
from pathlib import Path
from typing import List, Sequence, Tuple

from . import authz, policy
from .cipher import CipherKey, Mode, open_file, seal_file
from .errors import Error
from .field import FieldModulus, M61, default_modulus, modulus_for
from .interpolate import ReconstructionInput, reconstruct_secret
from .sharing import EncryptedShare, SharePoint, read_json, split_secret
from .storage import NotFound, ObjectStore, decode_envelope, encode_envelope


def _mode_and_n(args: argparse.Namespace) -> Tuple[Mode, int]:
    """--mode and --n.  --n is the Power exponent, 2 when unset; Additive
    mode takes only n = 1, and CipherKey rejects any other n."""
    try:
        mode = Mode[args.mode.upper()]
    except KeyError:
        raise Error(f"unknown mode {args.mode!r}; use additive or power") from None
    if args.n is not None:
        return mode, args.n
    return mode, 2 if mode == Mode.POWER else 1


# argparse type= converters: a malformed value is a usage error (exit 2).

def _parse_int_list(text: str) -> List[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _parse_point(text: str) -> Tuple[int, int]:
    x, _, y = text.partition(":")
    try:
        return int(x), int(y)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a point x:y of integers, got {text!r}") from None


def _parse_points(text: str) -> List[Tuple[int, int]]:
    return [_parse_point(tok) for tok in text.split(",") if tok.strip()]


def _modulus(args: argparse.Namespace) -> FieldModulus:
    return modulus_for(args.p) if args.p is not None else default_modulus()


def _store(args: argparse.Namespace) -> ObjectStore:
    return ObjectStore(args.store)


def _emit(args: argparse.Namespace, payload: dict, lines: Sequence[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_keygen(args) -> int:
    p = _modulus(args).p
    secret = _secrets.randbelow(p)
    _emit(args, {"secret": secret, "p": p}, [str(secret)])
    return 0


def _cmd_encrypt(args) -> int:
    mode, n = _mode_and_n(args)
    key = CipherKey(a=args.key, n=n, mode=mode)
    data = Path(args.infile).read_bytes()
    envelope = seal_file(data, key)
    blob = encode_envelope(envelope)
    Path(args.outfile).write_bytes(blob)
    payload = {"in_bytes": len(data), "out_bytes": len(blob),
               "mode": mode.name.lower(), "n": envelope.n,
               "symbol_width": envelope.symbol_width}
    _emit(args, payload,
          [f"sealed {len(data)} B -> {len(blob)} B ({mode.name.lower()}, "
           f"width {envelope.symbol_width})"])
    return 0


def _cmd_decrypt(args) -> int:
    blob = Path(args.infile).read_bytes()
    # The header sets mode, n and width; open_file takes only a from the key.
    data = open_file(decode_envelope(blob), CipherKey(a=args.key))
    Path(args.outfile).write_bytes(data)
    _emit(args, {"out_bytes": len(data)}, [f"opened {len(data)} B"])
    return 0


def _cmd_split(args) -> int:
    modulus = _modulus(args)
    shares = split_secret(args.secret, args.coeffs, args.n_users, modulus)
    payload = {"p": modulus.p,
               "points": [{"x": s.x, "y": s.y} for s in shares]}
    _emit(args, payload, [f"{s.x}:{s.y}" for s in shares])
    return 0


def _cmd_reconstruct(args) -> int:
    modulus = _modulus(args)
    pts = tuple(SharePoint(x=x, y=y, modulus=modulus)
                for x, y in args.points)
    secret = reconstruct_secret(ReconstructionInput(pts))
    _emit(args, {"secret": secret, "p": modulus.p}, [str(secret)])
    return 0


def _cmd_register(args) -> int:
    try:
        credentials = args.credentials.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise Error("--credentials is not UTF-8 text") from exc
    store = _store(args)
    modulus = _modulus(args)  # a bad --p fails before the root is made
    store.create_root()  # so that the first register locks it too
    with store.lock(exclusive=True):
        try:
            db = policy.load_db(store)
        except NotFound:
            db = policy.PolicyDb(modulus=modulus)
        else:
            if args.p is not None and args.p != db.modulus.p:
                raise Error(f"--p {args.p} differs from the store's p = {db.modulus.p}")
        record = policy.UserRecord(user_id=args.user_id,
                                   user_type=policy.UserType(args.type),
                                   credentials=credentials)
        authz.register_user(db, record)
        policy.persist_db(db, store)
    _emit(args, {"registered": args.user_id, "type": args.type},
          [f"registered {args.user_id} as {args.type}"])
    return 0


def _cmd_grant(args) -> int:
    mode, n = _mode_and_n(args)
    store = _store(args)
    with store.lock(exclusive=True):
        db = policy.load_db(store)
        consumer_ids = [tok for tok in args.consumers.split(",") if tok.strip()]
        data = Path(args.infile).read_bytes()
        owner_share = authz.grant_access(
            db, store, args.file_id, args.owner, consumer_ids, data, mode=mode, n=n)
        policy.persist_db(db, store)
    grant = db.grants[args.file_id]
    payload = {"file_id": args.file_id,
               "owner_point": {"x": owner_share.x, "y": owner_share.y},
               "envelope_ref": grant.envelope_ref,
               "consumers": sorted(grant.consumer_shares)}
    _emit(args, payload,
          [f"granted {args.file_id} to {len(consumer_ids)} consumer(s)",
           f"owner point (keep private, never stored): "
           f"{owner_share.x}:{owner_share.y}",
           f"envelope ref: {grant.envelope_ref}"])
    return 0


def _cmd_revoke(args) -> int:
    store = _store(args)
    with store.lock(exclusive=True):
        db = policy.load_db(store)
        deltas = authz.revoke_user(db, args.file_id, args.user)
        policy.persist_db(db, store)
    delta_text = ",".join(str(d) for d in deltas)
    _emit(args, {"file_id": args.file_id, "revoked": args.user,
                 "owner_deltas": list(deltas)},
          [f"revoked {args.user} from {args.file_id}",
           f"owner share deltas (apply to your point): {delta_text}"])
    return 0


def _cmd_request(args) -> int:
    if args.json and not args.outfile:
        raise Error("--json needs --out: the plaintext would go to stdout")
    if _in_batch and not args.outfile:
        raise Error("a request in a batch needs --out: the plaintext would "
                    "go into the batch's JSON")
    store = _store(args)
    # Shared: a re-grant still rewrites the envelope this request reads.
    with store.lock(exclusive=False):
        db = policy.load_db(store)
        receiver = db.users.get(args.receiver)
        if receiver is None:
            raise authz.UnknownUser(f"receiver {args.receiver!r} is not registered")
        x, y = args.owner_point
        owner_point = SharePoint(x=x, y=y, modulus=db.modulus)
        record = None
        if args.share:
            record = EncryptedShare.from_json(Path(args.share).read_bytes())
        plaintext = authz.request_decrypt(db, store, args.file_id, owner_point,
                                          receiver, record)
    if args.outfile:
        Path(args.outfile).write_bytes(plaintext)
        _emit(args, {"out_bytes": len(plaintext), "outfile": args.outfile},
              [f"decrypted {len(plaintext)} B -> {args.outfile}"])
    else:
        sys.stdout.buffer.write(plaintext)
    return 0


#: True while `batch` runs its lines.  It redirects sys.stdout and
#: sys.stderr, so one batch runs at a time in a process.
_in_batch = False


def _batch_argv(doc) -> List[str]:
    if not (isinstance(doc, list) and all(isinstance(arg, str) for arg in doc)):
        raise TypeError("expected an array of strings")
    return doc


def _batch_line(line: bytes) -> dict:
    """Run one batch line through cli_dispatch: its argv, exit status,
    stdout and stderr.  A usage error or --help is the status argparse
    exits with; a line that is not an array of strings is status 1."""
    try:
        argv = read_json(line, _batch_argv, "batch line", Error)
    except Error as exc:
        return {"command": None, "status": 1, "stdout": "",
                "stderr": f"error: {exc}\n"}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli_dispatch(argv)
        except SystemExit as exc:
            status = exc.code
    return {"command": argv[0] if argv else None, "status": status,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cmd_batch(args) -> int:
    global _in_batch
    if _in_batch:
        raise Error("a batch cannot run inside a batch")
    failed = False
    _in_batch = True
    try:
        for line in sys.stdin.buffer:
            result = _batch_line(line)
            failed |= result["status"] != 0
            print(json.dumps(result), flush=True)
    finally:
        _in_batch = False
    return 1 if failed else 0


# verify-example and bench import trishare.bench on first use, so the
# other commands never load it.

def _cmd_verify_example(args) -> int:
    from . import bench
    doc = bench.verify_reference_example(modulus=_modulus(args))
    _emit(args, doc, bench.example_lines(doc))
    return 0


def _emit_table(args, doc: dict, header: str, lines: Sequence[str] = ()) -> None:
    """Write --csv, then print the document as JSON, or its rows as CSV
    followed by `lines`."""
    from .bench import csv_text
    text = csv_text(header, doc["rows"])
    if args.csv:
        Path(args.csv).write_text(text, encoding="utf-8")
    _emit(args, doc, text.splitlines() + list(lines))


def _cmd_bench_encrypt(args) -> int:
    from . import bench
    mode, n = _mode_and_n(args)
    doc = bench.bench_encrypt(
        sizes=bench.DEFAULT_BENCH_SIZES if args.sizes is None else args.sizes,
        mode=mode, n=n,
        reps=bench.MIN_REPS if args.reps is None else args.reps)
    _emit_table(args, doc, bench.ENCRYPT_CSV_HEADER)
    return 0


def _cmd_bench_attrs(args) -> int:
    from . import bench
    doc = bench.bench_attributes(
        k_values=bench.DEFAULT_K_VALUES if args.k is None else args.k,
        n_users=args.n_users,
        reps=bench.MIN_REPS if args.reps is None else args.reps)
    fit = doc["split_fit"]
    _emit_table(args, doc, bench.ATTRS_CSV_HEADER, [
        f"split fit: slope {fit['slope']:.3e} s/k, "
        f"intercept {fit['intercept']:.3e} s, residual {fit['residual']:.3e} s"])
    return 0


def _cmd_bench_storage(args) -> int:
    from . import bench
    model = bench.StorageOverheadModel(
        n_attrs_user=args.n, policy_attrs=args.tc,
        element_bits=args.element_bits, pairing_bits=args.pairing_bits)
    doc = bench.storage_overhead_report(model)
    _emit(args, doc, bench.storage_lines(doc))
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, modulus: bool = False,
                store: bool = False) -> None:
    sub.add_argument("--json", action="store_true",
                     help="machine-readable JSON on stdout")
    if modulus:
        sub.add_argument("--p", type=int, default=None,
                         help=f"field modulus (default {M61})")
    if store:
        sub.add_argument("--store", default="store",
                         help="object store root directory (default ./store)")


# One row per subcommand: name -> (its help line, the function that adds
# its arguments).  `bench` holds a table of its own.

def _keygen_args(s: argparse.ArgumentParser) -> None:
    _add_common(s, modulus=True)


def _encrypt_args(s: argparse.ArgumentParser) -> None:
    _add_common(s)
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", dest="outfile", required=True)
    s.add_argument("--key", type=int, required=True, help="key value a")
    s.add_argument("--mode", default="additive", help="additive|power")
    s.add_argument("--n", type=int, help="power-mode exponent (default 2)")


def _decrypt_args(s: argparse.ArgumentParser) -> None:
    _add_common(s)
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", dest="outfile", required=True)
    s.add_argument("--key", type=int, required=True)


def _split_args(s: argparse.ArgumentParser) -> None:
    _add_common(s, modulus=True)
    s.add_argument("--secret", type=int, required=True)
    s.add_argument("--coeffs", type=_parse_int_list, required=True,
                   help="comma-separated a1,a2,... (threshold = count + 1)")
    s.add_argument("--n-users", type=int, required=True)


def _reconstruct_args(s: argparse.ArgumentParser) -> None:
    _add_common(s, modulus=True)
    s.add_argument("--points", type=_parse_points, required=True,
                   help="x:y,x:y,x:y")


def _register_args(s: argparse.ArgumentParser) -> None:
    _add_common(s, modulus=True, store=True)
    s.add_argument("--user-id", required=True)
    s.add_argument("--type", required=True, choices=[t.value for t in policy.UserType])
    s.add_argument("--credentials", required=True)


def _grant_args(s: argparse.ArgumentParser) -> None:
    _add_common(s, store=True)
    s.add_argument("--file-id", required=True)
    s.add_argument("--owner", required=True)
    s.add_argument("--consumers", required=True, help="comma-separated user ids")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--mode", default="additive")
    s.add_argument("--n", type=int, help="power-mode exponent (default 2)")


def _revoke_args(s: argparse.ArgumentParser) -> None:
    _add_common(s, store=True)
    s.add_argument("--file-id", required=True)
    s.add_argument("--user", required=True)


def _request_args(s: argparse.ArgumentParser) -> None:
    _add_common(s, store=True)
    s.add_argument("--file-id", required=True)
    s.add_argument("--receiver", required=True)
    s.add_argument("--owner-point", type=_parse_point, required=True, help="x:y")
    s.add_argument("--share", default=None,
                   help="path to a share-record JSON (defaults to the stored one)")
    s.add_argument("--out", dest="outfile", default=None)


def _batch_args(s: argparse.ArgumentParser) -> None:
    # No --store: each line names its own, as it would run alone.  No
    # --json: the output is JSON lines.
    s.description = (
        "Run each stdin line, a JSON array of arguments, as trishare would "
        "run it alone, and write one JSON line per line read: command, "
        "status, stdout and stderr.  Exit 1 if any line failed.")


def _verify_example_args(s: argparse.ArgumentParser) -> None:
    _add_common(s, modulus=True)


def _bench_encrypt_args(s: argparse.ArgumentParser) -> None:
    _add_common(s)
    s.add_argument("--sizes", type=_parse_int_list, default=None,
                   help="comma-separated byte sizes")
    s.add_argument("--mode", default="additive")
    s.add_argument("--n", type=int, help="power-mode exponent (default 2)")
    s.add_argument("--reps", type=int, help="timed repetitions per row")
    s.add_argument("--csv", default=None, help="also write CSV to this path")


def _bench_attrs_args(s: argparse.ArgumentParser) -> None:
    _add_common(s)
    s.add_argument("--k", type=_parse_int_list, default=None,
                   help="comma-separated thresholds")
    s.add_argument("--n-users", type=int, default=24)
    s.add_argument("--reps", type=int, help="timed repetitions per row")
    s.add_argument("--csv", default=None)


def _bench_storage_args(s: argparse.ArgumentParser) -> None:
    # No abbreviations here: --p would otherwise be read as --pairing-bits.
    s.allow_abbrev = False
    _add_common(s)
    s.add_argument("--n", type=int, default=10, help="attributes per user")
    s.add_argument("--tc", type=int, default=10, help="policy attribute count")
    s.add_argument("--element-bits", type=int, default=256)
    s.add_argument("--pairing-bits", type=int, default=512)


_BENCH_COMMANDS = {
    "encrypt": ("seal/open throughput over sizes", _bench_encrypt_args),
    "attrs": ("split/reconstruct timing vs threshold", _bench_attrs_args),
    "storage": ("storage-overhead formula table", _bench_storage_args),
}

_COMMANDS = {
    "keygen": ("generate a fresh file secret", _keygen_args),
    "encrypt": ("seal a file into an envelope", _encrypt_args),
    "decrypt": ("open an envelope", _decrypt_args),
    "split": ("split a secret into share points", _split_args),
    "reconstruct": ("recover the secret from points", _reconstruct_args),
    "register": ("add a user to the policy db", _register_args),
    "grant": ("seal a file and issue shares", _grant_args),
    "revoke": ("revoke a consumer and refresh shares", _revoke_args),
    "request": ("decrypt with server+owner+receiver points", _request_args),
    "verify-example": ("check the pinned worked example, exit 1 on mismatch",
                       _verify_example_args),
    "bench": ("benchmarks and storage models", _BENCH_COMMANDS),
    "batch": ("run one JSON array of arguments per stdin line",
              _batch_args),
}


def _add_subcommands(parser: argparse.ArgumentParser, dest: str,
                     table: dict) -> None:
    """Add every subcommand of `table` to `parser`, nested tables too."""
    subs = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, add_arguments) in table.items():
        sub = subs.add_parser(name, help=help_text)
        if isinstance(add_arguments, dict):
            _add_subcommands(sub, f"{name}_command", add_arguments)
        else:
            add_arguments(sub)


@functools.lru_cache(maxsize=None)
def _parser(names: Tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser for one path of command names, or the whole tree for
    (); built the first time it is asked for, then kept.  build_parser
    asks only for paths in _COMMANDS, so at most one per command plus
    the tree is ever kept.  Reuse is safe: each parse makes a fresh
    Namespace and leaves the parser as it was, and argparse reads the
    terminal width, sys.stdout and sys.stderr when it prints, not here."""
    if not names:
        parser = argparse.ArgumentParser(prog="trishare", description=(
            "Seal files with an involution stream cipher and split the key "
            "across server, owner, and receivers."))
        _add_subcommands(parser, "command", _COMMANDS)
        return parser
    table, dest, defaults = _COMMANDS, "command", {}
    for name in names:
        defaults[dest], (_, add_arguments) = name, table[name]
        table, dest = add_arguments, f"{name}_command"
    parser = argparse.ArgumentParser(prog=" ".join(["trishare", *names]))
    add_arguments(parser)
    parser.set_defaults(**defaults)
    return parser


def build_parser(argv: "Sequence[str] | None" = None) -> argparse.ArgumentParser:
    """The parser for `argv`: the named command's own parser (prog
    "trishare" plus the names), which parses what follows the names as the
    whole tree would; else (no argv, help first, an unknown name) the tree.
    Each is built once per process and then reused; it holds no handler,
    which cli_dispatch looks up from the names when it runs one."""
    table, names = _COMMANDS, ()
    for name in argv or ():
        if name not in table:
            break
        names, table = (*names, name), table[name][1]
        if not isinstance(table, dict):
            return _parser(names)
    return _parser(())


def cli_dispatch(argv: "Sequence[str] | None" = None) -> int:
    """Parse argv (default sys.argv[1:]) and run the handler its command
    names select, `_cmd_` plus the names joined by `_`; returns the
    process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    names = parser.prog.split()[1:]
    args, rest = parser.parse_known_args(argv[len(names):])
    if rest:  # the whole tree refuses them, with its own usage line
        build_parser().parse_args(argv)
    # Looked up now, not when the parser was built, so a replaced
    # handler is the one that runs.
    handler = globals()["_cmd_" + "_".join(names).replace("-", "_")]
    try:
        return handler(args)
    except (Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
