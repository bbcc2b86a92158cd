"""Quick check of the benchmark harness, through the same code as run.py.

    python3 perfbench/smoke.py

Shrinks every workload to a few small files and runs two cycles of it:
once untraced and twice traced with the same seed.  Fails (exit 1) if
an output check fails, if the metric names or units differ from
BENCHMARK.json, or if a per-command span count (calls, errors, retry
and pass ratios) differs between the two traced runs.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run

TINY = {
    "bulk-additive": dict(payload_bytes=2048, files=3, consumers=12),
    "power-mode": dict(payload_bytes=512, files=3, consumers=12),
    "policy-churn": dict(payload_bytes=256, files=12, consumers=16, per_grant=4),
}

#: Per-layer metrics that count work, so must repeat exactly for a seed.
COUNT_SUFFIXES = (".calls", ".errors", ".per_revoke", ".pass_ratio",
                  ".useful_ratio", ".blobs_loaded")


def main() -> int:
    run.import_program()
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    work = run.ROOT / ".perfbench" / "smoke"
    try:
        for name, sizes in TINY.items():
            tiny = dataclasses.replace(WORKLOADS[name], **sizes)
            results = [run.run(tiny, 7, 0, bool(trace), work, max_cycles=2,
                               setups=1)[0]
                       for trace in (0, 1, 1)]
            for trace, result in zip((0, 1, 1), results):
                if not result["correct"] or result["failed"]:
                    problems.append(f"{name} trace {trace}: outputs wrong")
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"{name} trace {trace}: metric names or units "
                                    f"differ from BENCHMARK.json: "
                                    f"{sorted(set(units) ^ set(expected[trace]))}")
            first, second = (r["metrics"] for r in results[1:])
            for key in first:
                if key.endswith(COUNT_SUFFIXES) and first[key] != second[key]:
                    problems.append(f"{name}: {key} {first[key]['value']} then "
                                    f"{second[key]['value']} for the same seed")
            print(f"{name}: {results[1]['attempted']} commands per run")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
