"""congestlab benchmark: one seeded workload per run, every operation checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload protocol-battery --seed 1 --seconds 30 --trace 0

A closed loop with one client: each operation starts after the previous
one has finished and passed its check.  A pass runs the workload's
operation list once.  The untraced run (``--trace 0``) repeats whole
passes, at least three, while another one fits in ``--seconds``, and
reports the end-to-end metrics.  The traced run (``--trace 1``) makes
one untraced and one traced pass, writes the spans to ``perfbench/out/``
and reports the per-layer metrics.  The last line of standard output is
a JSON object; the lines before it repeat the metrics for people.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_PASSES = 3
REFERENCE_S = 0.0025


def _reference_work() -> int:
    """Fixed interpreter work, independent of congestlab: set and list
    traffic on a small pseudo-random graph.  About 2.5 ms of CPU."""
    adj = [set() for _ in range(200)]
    x = 12345
    for _ in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u, v = x % 200, (x >> 8) % 200
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    total = 0
    for u in range(200):
        for v in adj[u]:
            total += len(adj[u] & adj[v])
    return total


def _reference_seconds() -> float:
    """CPU seconds that _reference_work takes right now."""
    gc.disable()  # a collection would time the program's heap, not the host
    try:
        t0 = time.process_time()
        _reference_work()
        return time.process_time() - t0
    finally:
        gc.enable()


def _rescaled(cpu_s: float, before: float, after: float) -> float:
    """CPU seconds measured between two reference runs, rescaled to a
    host that runs the reference work in REFERENCE_S.

    On a shared virtual machine the CPU time of identical work switches
    between speeds up to 1.5x apart, within fractions of a second and
    for tens of seconds at a time, as the host lends the core to other
    guests.  The reference runs bracketing an interval see the speed it
    ran at.  The reference work belongs to the benchmark, never to the
    program, so the rescaling cannot absorb a change in the program.
    """
    return cpu_s * REFERENCE_S * 2 / (before + after)


def _timed(fn):
    """Run fn() between two reference runs; return (result, rescaled seconds)."""
    before = _reference_seconds()
    t0 = time.process_time()
    result = fn()
    cpu_s = time.process_time() - t0
    return result, _rescaled(cpu_s, before, _reference_seconds())


def _import_program() -> None:
    """Import congestlab from this checkout's src/.  Refuses a copy
    installed elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import congestlab

    if Path(congestlab.__file__).resolve().parent.parent != src:
        raise ImportError(f"congestlab was imported from {congestlab.__file__}, not {src}")


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.process_time(); "
    "import congestlab; print(time.process_time() - t0)"
)


def _import_seconds() -> float:
    """Median rescaled CPU seconds of importing congestlab in a fresh
    interpreter, over SETUP_REPEATS interpreters."""
    took = []
    for _ in range(SETUP_REPEATS):
        before = _reference_seconds()
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        took.append(_rescaled(float(probe.stdout), before, _reference_seconds()))
    return statistics.median(took)


def _run_pass(ops, tracer=None) -> tuple[list[float], list[str], float]:
    """Run every operation once; return per-operation rescaled seconds,
    failure messages and the wall seconds of the pass."""
    cpu: list[float] = []
    failures: list[str] = []
    gc.collect()
    wall_start = time.perf_counter()
    refs = [_reference_seconds()]
    for op in ops:
        span = tracer.open(f"op.{op.kind}", dict(op.attrs)) if tracer else None
        t0 = time.process_time()
        try:
            op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"{op.kind} {op.attrs}: {type(exc).__name__}: {exc}")
            if len(failures) <= 3:
                traceback.print_exc(file=sys.stderr)
        cpu.append(time.process_time() - t0)
        if tracer:
            tracer.close(span)
        refs.append(_reference_seconds())
    wall = time.perf_counter() - wall_start
    return [_rescaled(c, refs[i], refs[i + 1]) for i, c in enumerate(cpu)], failures, wall


def _end_to_end(build, seconds: float, import_s: float) -> tuple[dict, int, list[str]]:
    setup = []
    for _ in range(SETUP_REPEATS):
        ops = None  # free the previous copy, so the peak holds only one
        gc.collect()
        ops, took = _timed(build)
        setup.append(took)
    per_pass: list[list[float]] = []
    failures: list[str] = []
    walls: list[float] = []
    while True:
        samples, failed, wall = _run_pass(ops)
        per_pass.append(samples)
        failures += failed
        walls.append(wall)
        if len(walls) >= MIN_PASSES and sum(walls) + statistics.median(walls) > seconds:
            break
    # Each operation's time is its median over the passes.
    op_s = [statistics.median(times) for times in zip(*per_pass)]
    deciles = statistics.quantiles(op_s, n=10)
    attempted = len(ops) * len(per_pass)
    metrics = {
        "ops_per_s": len(op_s) / sum(op_s),
        "op_s.p50": statistics.median(op_s),
        "op_s.p90": deciles[8],
        "setup_s": import_s + statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(
        f"# {len(per_pass)} passes of {len(ops)} operations; op_s samples: "
        f"{attempted} ({len(ops)} per-operation medians, "
        f"{len(op_s) - int(0.9 * len(op_s))} beyond p90); "
        f"failed_ratio: {len(failures) / attempted:.6f}; "
        f"wall ops/s: {attempted / sum(walls):.4f}"
    )
    return metrics, attempted, failures


def _per_layer(build, args) -> tuple[dict, int, list[str]]:
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.open("setup")
        ops = build()
        tracer.close(root)
    finally:
        tracer.uninstall()
    plain, plain_failures, _ = _run_pass(ops)
    tracer.install()
    try:
        traced, traced_failures, _ = _run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans)
    metrics["tracing.overhead_ratio"] = sum(plain) / sum(traced)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
    out.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "span_fields": ["name", "start", "end", "parent", "attrs"],
                "spans": tracer.spans,
                "metrics": metrics,
            }
        )
    )
    print(f"# spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    return metrics, len(plain) + len(traced), plain_failures + traced_failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    def build():
        return WORKLOADS[args.workload](args.seed)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        metrics, attempted, failures = _per_layer(build, args)
    else:
        metrics, attempted, failures = _end_to_end(build, args.seconds, _import_seconds())
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: "
            f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}"
        )
    for failure in failures[:10]:
        print(f"# FAILED {failure}")
    for m in wanted:
        print(f"{m['name']:<52} {metrics[m['name']]:>16.6f} {m['unit']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
