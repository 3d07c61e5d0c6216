"""Determinism self-test for the benchmark.

For every workload, two traced runs with the development seed must
report exactly equal per-layer counts (every per-layer metric that is
not a time or a rate), and a traced run with the held-out seed must
pass every check.  Run from the repository root:

    python3 perfbench/selftest.py

Exit status 0 when all of it holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEV_SEED = 1  # used while the workloads were sized
HELD_OUT_SEED = 7919  # never used while the workloads were sized
TIMED_UNITS = {"s", "msg/s"}
TIMED_NAMES = {"tracing.overhead_ratio"}


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [
        m["name"]
        for m in spec["per_layer"]
        if m["unit"] not in TIMED_UNITS and m["name"] not in TIMED_NAMES
    ]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        first = traced_run(workload, DEV_SEED)
        second = traced_run(workload, DEV_SEED)
        held_out = traced_run(workload, HELD_OUT_SEED)
        differ = [
            name
            for name in counts
            if first["metrics"][name]["value"] != second["metrics"][name]["value"]
        ]
        clean = all(r["correct"] and r["failed"] == 0 for r in (first, second, held_out))
        ok = ok and clean and not differ
        print(
            f"{workload}: {len(counts)} counts "
            f"{'repeat exactly' if not differ else 'DIFFER: ' + ', '.join(differ)}; "
            f"seed {DEV_SEED} x2 and held-out seed {HELD_OUT_SEED} "
            f"{'pass every check' if clean else 'have FAILED operations'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
