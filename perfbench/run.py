"""Layered end-to-end benchmark of trishare's grant/request/revoke CLI.

    python3 perfbench/run.py --workload bulk-additive --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout; trishare is imported from ./src.
Each run first passes the bit-identity gate (pinned SHA-256 of two
sealed envelopes, plus ``verify-example``), then sets the store up three
times through the CLI (``setup_s`` is the median), then runs the
workload's closed loop for ``--seconds`` in whole cycles, checking every
output.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics of BENCHMARK.json.  With ``--trace 1`` it carries the per-layer
metrics: odd cycles run with every layer function wrapped in a span,
even cycles run untraced, and ``trace.overhead_ratio`` compares the two.

Every reported time is scaled to a nominal machine speed: a fixed 2 ms
slice of Python work runs between commands, and each command's time is
multiplied by ``workloads.REFERENCE_S`` over the mean of the two
references around it (see ``workloads.reference_task``).  Raw times
stay in the record.  Requests that must be refused count in
``ops_per_s`` but not in ``request_ms_*``.  Output checks are reported
through the result's ``attempted``/``failed`` (their ratio is the
fail ratio).

Work files and one result record per run (environment, latency
samples, and for traced runs all spans and a self-time table) go under
``./.perfbench/``.  Exit code 0: every output was correct; 1: some
output was wrong (metrics still printed); 2: no ./src/trishare;
3: the bit-identity gate failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUPS = 3


class GateFailure(Exception):
    """The program's output is not bit-identical to the pinned digests."""


def import_program() -> None:
    """Put ./src first on sys.path; exit 2 when the checkout has no sources."""
    src = ROOT / "src"
    if not (src / "trishare" / "__init__.py").is_file():
        print(f"perfbench: no trishare package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def envelope_digests(spec: dict) -> dict:
    """SHA-256 of encode_envelope(seal_file(...)) for each pinned key."""
    from trishare.cipher import CipherKey, Mode, seal_file
    from trishare.storage import encode_envelope

    payload = random.Random(spec["payload_seed"]).randbytes(spec["payload_bytes"])
    out = {}
    for name, key in spec["keys"].items():
        cipher_key = CipherKey(a=key["a"], n=key["n"], mode=Mode[key["mode"].upper()])
        out[name] = hashlib.sha256(encode_envelope(seal_file(payload, cipher_key))).hexdigest()
    return out


def bit_identity_gate() -> dict:
    """Compare sealed envelopes with golden.json and run verify-example."""
    import contextlib
    import io

    import trishare.cli

    spec = json.loads((HERE / "golden.json").read_text())
    digests = envelope_digests(spec)
    for name, digest in digests.items():
        if digest != spec["sha256"][name]:
            raise GateFailure(f"{name} envelope sha256 {digest}, pinned "
                              f"{spec['sha256'][name]}")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = trishare.cli.cli_dispatch(["verify-example"])
    if rc != 0:
        raise GateFailure(f"verify-example exited {rc}")
    return {"envelope_sha256": digests, "verify_example": "pass"}


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(load_before) -> dict:
    import inspect

    import trishare.storage

    writer = inspect.getsource(trishare.storage._atomic_write)
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "fsync": {"policy": "as shipped in storage._atomic_write: temp file, "
                            "fsync, os.replace",
                  "file_fsync": "os.fsync" in writer,
                  "directory_fsync": "O_DIRECTORY" in writer},
        "disk": "store I/O is served by the machine's page cache (container "
                "filesystem); no cold-disk reads are measured",
    }


def run(w, seed: int, seconds: float, trace: bool, work: Path,
        max_cycles: "int | None" = None, setups: int = SETUPS):
    """Set up, run the closed loop on workload ``w``, check outputs.

    Returns (result, record): the result line and the full record.
    ``max_cycles`` and ``setups`` let the smoke test run the same code
    on a fixed number of cycles.
    """
    from tracing import Tracer
    from workloads import Client

    load_before = os.getloadavg()
    gate = bit_identity_gate()

    setup_s, setup_raw = [], []
    for k in range(setups):
        client = Client(w, work / f"run{k}", seed)
        shutil.rmtree(client.work, ignore_errors=True)
        client.work.mkdir(parents=True)
        client.setup()
        setup_s.append(sum(s.segment for s in client.samples))
        setup_raw.append(sum(s.raw_seconds for s in client.samples))
        if client.violations:
            raise RuntimeError(f"set-up failed: {client.violations[:3]}")
        if k + 1 < setups:
            shutil.rmtree(client.work)
    client.samples.clear()
    client.sealed_bytes = client.opened_bytes = 0

    tracer = Tracer() if trace else None
    client.tracer = tracer
    rng = random.Random(f"{seed}:loop")
    index = 0
    client.start_clock()
    start = perf_counter()
    while True:
        client.traced = traced = trace and index % 2 == 1
        if traced:
            tracer.install()
        try:
            client.cycle(rng, index)
        finally:
            if traced:
                tracer.remove()
        index += 1
        if max_cycles is not None:
            if index >= max_cycles:
                break
        elif perf_counter() - start >= seconds:
            break
    samples = client.samples
    attempted, failed = len(samples), len(client.violations)
    wall = sum(s.segment for s in samples)
    ops = {}
    for op in ("grant", "request", "revoke"):
        values = [s.seconds * 1e3 for s in samples if s.op == op and not s.traced]
        if values:
            tail = percentile(values, w.tail[op])
            ops[op] = {"n": len(values), "p50_ms": statistics.median(values),
                       "tail_pct": w.tail[op], "tail_ms": tail,
                       "beyond_tail": sum(v > tail for v in values)}
    record = {
        "workload": w.name, "why": w.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "cycles": index, "gate": gate,
        "loop_s": wall, "setup_s": setup_s, "setup_commands_raw_s": setup_raw,
        "raw_ms": {op: statistics.median(s.raw_seconds * 1e3 for s in samples
                                         if s.op == op and not s.traced)
                   for op in ops}, "ops": ops,
        "refused_requests": sum(1 for s in samples if s.op == "refused"),
        "fail_ratio": failed / attempted, "violations": client.violations[:20],
    }
    if not trace:
        metrics = {
            **{f"{op}_ms_{stat}": (ops[op]["p50_ms"] if stat == "p50" else ops[op]["tail_ms"], "ms")
               for op in ("grant", "request", "revoke") for stat in ("p50", "tail")},
            "ops_per_s": (attempted / wall, "1/s"),
            "payload_mib_per_s": ((client.sealed_bytes + client.opened_bytes)
                                  / 2**20 / wall, "MiB/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "store_bytes_per_payload_byte": (client.store_bytes() / client.live_payload_bytes(),
                                             "ratio"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        from tracing import metric_units

        kinds = {s.command: s.op for s in samples if s.traced}
        scales = {s.command: s.seconds / s.raw_seconds for s in samples if s.traced}
        rate = {t: sum(1 for s in samples if s.traced == t)
                   / sum(s.segment for s in samples if s.traced == t) for t in (False, True)}
        units = metric_units()
        metrics = {name: (value, units[name]) for name, value in
                   tracer.metrics(kinds, scales, rate[True] / rate[False]).items()}
        record["traced_commands"] = len(kinds)
        record["self_time_table"] = tracer.self_time_table(kinds, scales)
        record["errors_by_class"] = tracer.error_classes()
        record["spans"] = tracer.span_records(start)
    record["env"] = environment(load_before)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record["result"] = result
    return result, record


def report_lines(record: dict) -> list:
    lines = [f"workload {record['workload']} seed {record['seed']}: "
             f"{record['cycles']} cycles in {record['loop_s']:.2f} s, "
             f"fail_ratio {record['fail_ratio']:.4f}"]
    for op, row in record["ops"].items():
        lines.append(f"  {op:8s} n={row['n']:4d} p50 {row['p50_ms']:9.2f} ms  "
                     f"p{row['tail_pct']} {row['tail_ms']:9.2f} ms "
                     f"({row['beyond_tail']} beyond)")
    for message in record["violations"]:
        lines.append(f"  VIOLATION {message}")
    for row in record.get("self_time_table", [])[:12]:
        per_op = " ".join(f"{k} {v:8.3f}" for k, v in row["self_ms_per_op"].items())
        lines.append(f"  {row['span']:36s} {row['self_ms_per_cmd']:9.3f} ms/cmd "
                     f"{row['share']:6.1%}  per op: {per_op}")
    return lines


def main(argv=None) -> int:
    import_program()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    try:
        result, record = run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), work)
    except GateFailure as exc:
        print(f"perfbench: bit-identity gate failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("\n".join(report_lines(record)))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
