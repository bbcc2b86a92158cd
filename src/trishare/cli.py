"""Command-line front end.

Exit codes: 0 success, 1 operation failure (any trishare Error),
2 usage error (argparse).  Every subcommand accepts --json for
machine-readable output on stdout.
"""

from __future__ import annotations

import argparse
import json
import secrets as _secrets
import sys
from pathlib import Path
from typing import List, Sequence, Tuple

from . import authz, bench
from .cipher import CipherKey, Mode, open_file, seal_file
from .errors import Error
from .field import FieldModulus, M61, default_modulus, modulus_for
from .interpolate import ReconstructionInput, reconstruct_secret
from .sharing import CorruptShareRecord, EncryptedShare, SharePoint, split_secret
from .storage import NotFound, ObjectStore, decode_envelope, encode_envelope


def _parse_mode(text: str) -> Mode:
    try:
        return Mode[text.upper()]
    except KeyError:
        raise Error(f"unknown mode {text!r}; use additive or power") from None


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
    mode = _parse_mode(args.mode)
    key = CipherKey(a=args.key, n=args.n if mode == Mode.POWER else 1, mode=mode)
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
    envelope = decode_envelope(blob)
    mode = Mode(envelope.mode)
    key = CipherKey(a=args.key, n=envelope.n if mode == Mode.POWER else 1,
                    mode=mode)
    data = open_file(envelope, key)
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
    secret = reconstruct_secret(ReconstructionInput(points=pts, modulus=modulus))
    _emit(args, {"secret": secret, "p": modulus.p}, [str(secret)])
    return 0


def _cmd_register(args) -> int:
    try:
        credentials = args.credentials.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise Error("--credentials is not UTF-8 text") from exc
    store = _store(args)
    try:
        db = authz.load_db(store)
    except NotFound:
        db = authz.PolicyDb(modulus=_modulus(args))
    else:
        if args.p is not None and args.p != db.modulus.p:
            raise Error(f"--p {args.p} differs from the store's p = {db.modulus.p}")
    record = authz.UserRecord(user_id=args.user_id,
                              user_type=authz.UserType(args.type),
                              credentials=credentials)
    authz.register_user(db, record)
    authz.persist_db(db, store)
    _emit(args, {"registered": args.user_id, "type": args.type},
          [f"registered {args.user_id} as {args.type}"])
    return 0


def _cmd_grant(args) -> int:
    store = _store(args)
    db = authz.load_db(store)
    owner = db.users.get(args.owner)
    if owner is None:
        raise authz.UnknownOwner(f"{args.owner!r} is not registered")
    consumer_ids = [tok for tok in args.consumers.split(",") if tok.strip()]
    consumers = []
    for cid in consumer_ids:
        rec = db.users.get(cid)
        if rec is None:
            raise authz.UnknownUser(f"consumer {cid!r} is not registered")
        consumers.append(rec)
    data = Path(args.infile).read_bytes()
    mode = _parse_mode(args.mode)
    db, envelope, owner_share = authz.grant_access(
        db, store, args.file_id, owner, consumers, data, mode=mode, n=args.n)
    authz.persist_db(db, store, backup=True)
    grant = db.grants[args.file_id]
    payload = {"file_id": args.file_id,
               "owner_point": {"x": owner_share.x, "y": owner_share.y},
               "envelope_ref": grant.envelope_ref,
               "consumers": sorted(grant.consumer_shares)}
    _emit(args, payload,
          [f"granted {args.file_id} to {len(consumers)} consumer(s)",
           f"owner point (keep private, never stored): "
           f"{owner_share.x}:{owner_share.y}",
           f"envelope ref: {grant.envelope_ref}"])
    return 0


def _cmd_revoke(args) -> int:
    store = _store(args)
    db = authz.load_db(store)
    db, deltas = authz.revoke_user(db, args.file_id, args.user)
    authz.persist_db(db, store, backup=True)
    delta_text = ",".join(str(d) for d in deltas)
    _emit(args, {"file_id": args.file_id, "revoked": args.user,
                 "owner_deltas": list(deltas)},
          [f"revoked {args.user} from {args.file_id}",
           f"owner share deltas (apply to your point): {delta_text}"])
    return 0


def _cmd_request(args) -> int:
    store = _store(args)
    db = authz.load_db(store)
    receiver = db.users.get(args.receiver)
    if receiver is None:
        raise authz.UnknownUser(f"receiver {args.receiver!r} is not registered")
    x, y = args.owner_point
    owner_point = SharePoint(x=x, y=y, modulus=db.modulus)
    record = None
    if args.share:
        record = _read_share_record(Path(args.share))
    plaintext = authz.request_decrypt(db, store, args.file_id, owner_point,
                                      receiver, record)
    if args.outfile:
        Path(args.outfile).write_bytes(plaintext)
        _emit(args, {"out_bytes": len(plaintext), "outfile": args.outfile},
              [f"decrypted {len(plaintext)} B -> {args.outfile}"])
    else:
        sys.stdout.buffer.write(plaintext)
    return 0


def _read_share_record(path: Path) -> EncryptedShare:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptShareRecord(f"{path} is not UTF-8: {exc}") from exc
    return EncryptedShare.from_json(text)


def _cmd_verify_example(args) -> int:
    report = bench.verify_reference_example(modulus=_modulus(args))
    payload = {"p": report.modulus_p, "passed": report.passed,
               "assertions": [{"name": a.name, "expected": a.expected,
                               "actual": a.actual, "ok": a.ok}
                              for a in report.assertions]}
    _emit(args, payload, report.lines() +
          [f"PASS with {len(report.assertions)} assertions"])
    return 0


def _cmd_bench_encrypt(args) -> int:
    sizes = args.sizes or bench.DEFAULT_BENCH_SIZES
    mode = _parse_mode(args.mode)
    report = bench.bench_encrypt(sizes=sizes, mode=mode, n=args.n,
                                 reps=args.reps)
    csv_text = report.to_csv()
    if args.csv:
        Path(args.csv).write_text(csv_text, encoding="utf-8")
    _emit(args, report.to_dict(), csv_text.splitlines())
    return 0


def _cmd_bench_attrs(args) -> int:
    k_values = args.k or bench.DEFAULT_K_VALUES
    report = bench.bench_attributes(k_values=k_values, n_users=args.n_users,
                                    reps=args.reps)
    csv_text = report.to_csv()
    if args.csv:
        Path(args.csv).write_text(csv_text, encoding="utf-8")
    lines = csv_text.splitlines() + [
        f"split fit: slope {report.split_fit_slope:.3e} s/k, "
        f"intercept {report.split_fit_intercept:.3e} s, "
        f"residual {report.split_fit_residual:.3e} s"]
    _emit(args, report.to_dict(), lines)
    return 0


def _cmd_bench_storage(args) -> int:
    model = bench.StorageOverheadModel(
        n_attrs_user=args.n, policy_attrs=args.tc,
        element_bits=args.element_bits, pairing_bits=args.pairing_bits)
    report = bench.storage_overhead_report(model)
    _emit(args, report.to_dict(), report.lines())
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trishare",
        description="Seal files with an involution stream cipher and split "
                    "the key across server, owner, and receivers.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("keygen", help="generate a fresh file secret")
    _add_common(s, modulus=True)
    s.set_defaults(fn=_cmd_keygen)

    s = subs.add_parser("encrypt", help="seal a file into an envelope")
    _add_common(s)
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", dest="outfile", required=True)
    s.add_argument("--key", type=int, required=True, help="key value a")
    s.add_argument("--mode", default="additive", help="additive|power")
    s.add_argument("--n", type=int, default=2, help="power-mode exponent")
    s.set_defaults(fn=_cmd_encrypt)

    s = subs.add_parser("decrypt", help="open an envelope")
    _add_common(s)
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", dest="outfile", required=True)
    s.add_argument("--key", type=int, required=True)
    s.set_defaults(fn=_cmd_decrypt)

    s = subs.add_parser("split", help="split a secret into share points")
    _add_common(s, modulus=True)
    s.add_argument("--secret", type=int, required=True)
    s.add_argument("--coeffs", type=_parse_int_list, required=True,
                   help="comma-separated a1,a2,... (threshold = count + 1)")
    s.add_argument("--n-users", type=int, required=True)
    s.set_defaults(fn=_cmd_split)

    s = subs.add_parser("reconstruct", help="recover the secret from points")
    _add_common(s, modulus=True)
    s.add_argument("--points", type=_parse_points, required=True,
                   help="x:y,x:y,x:y")
    s.set_defaults(fn=_cmd_reconstruct)

    s = subs.add_parser("register", help="add a user to the policy db")
    _add_common(s, modulus=True, store=True)
    s.add_argument("--user-id", required=True)
    s.add_argument("--type", required=True, choices=[t.value for t in authz.UserType])
    s.add_argument("--credentials", required=True)
    s.set_defaults(fn=_cmd_register)

    s = subs.add_parser("grant", help="seal a file and issue shares")
    _add_common(s, store=True)
    s.add_argument("--file-id", required=True)
    s.add_argument("--owner", required=True)
    s.add_argument("--consumers", required=True, help="comma-separated user ids")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--mode", default="additive")
    s.add_argument("--n", type=int, default=2)
    s.set_defaults(fn=_cmd_grant)

    s = subs.add_parser("revoke", help="revoke a consumer and refresh shares")
    _add_common(s, store=True)
    s.add_argument("--file-id", required=True)
    s.add_argument("--user", required=True)
    s.set_defaults(fn=_cmd_revoke)

    s = subs.add_parser("request", help="decrypt with server+owner+receiver points")
    _add_common(s, store=True)
    s.add_argument("--file-id", required=True)
    s.add_argument("--receiver", required=True)
    s.add_argument("--owner-point", type=_parse_point, required=True, help="x:y")
    s.add_argument("--share", default=None,
                   help="path to a share-record JSON (defaults to the stored one)")
    s.add_argument("--out", dest="outfile", default=None)
    s.set_defaults(fn=_cmd_request)

    s = subs.add_parser("verify-example",
                        help="check the pinned worked example, exit 1 on mismatch")
    _add_common(s, modulus=True)
    s.set_defaults(fn=_cmd_verify_example)

    b = subs.add_parser("bench", help="benchmarks and storage models")
    bsubs = b.add_subparsers(dest="bench_command", required=True)

    s = bsubs.add_parser("encrypt", help="seal/open throughput over sizes")
    _add_common(s)
    s.add_argument("--sizes", type=_parse_int_list, default=None,
                   help="comma-separated byte sizes")
    s.add_argument("--mode", default="additive")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--reps", type=int, default=bench.MIN_REPS)
    s.add_argument("--csv", default=None, help="also write CSV to this path")
    s.set_defaults(fn=_cmd_bench_encrypt)

    s = bsubs.add_parser("attrs", help="split/reconstruct timing vs threshold")
    _add_common(s)
    s.add_argument("--k", type=_parse_int_list, default=None,
                   help="comma-separated thresholds")
    s.add_argument("--n-users", type=int, default=24)
    s.add_argument("--reps", type=int, default=bench.MIN_REPS)
    s.add_argument("--csv", default=None)
    s.set_defaults(fn=_cmd_bench_attrs)

    # No abbreviations here: --p would otherwise be read as --pairing-bits.
    s = bsubs.add_parser("storage", help="storage-overhead formula table",
                         allow_abbrev=False)
    _add_common(s)
    s.add_argument("--n", type=int, default=10, help="attributes per user")
    s.add_argument("--tc", type=int, default=10, help="policy attribute count")
    s.add_argument("--element-bits", type=int, default=256)
    s.add_argument("--pairing-bits", type=int, default=512)
    s.set_defaults(fn=_cmd_bench_storage)

    return parser


def cli_dispatch(argv: "Sequence[str] | None" = None) -> int:
    """Parse argv and run; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
