"""Command-line entry point.

Subcommands: gen-family, verify-family, run-congest, run-protocol,
run-diamond-listing, bench, report.  Structured output is canonical
JSON (CSV for bench sweeps), always carrying a schema_version field
and the full parameter set, so identical invocations produce identical
bytes; bench additionally reports oracle wall time, which is the one
intentionally non-reproducible column.

Exit codes: 0 success, 1 verification failure, 2 usage error (such as
a count below 1, a --max-rounds above 1000000, an --input-density or
--densities value outside [0, 1], a --delta or --epsilon outside
[0, 2], a --delta and --epsilon whose common denominator is above 1000,
--exhaustive yes on a family of more than 9 bits, two report --inputs
with the same file name, --input-seed,
--input-density or --intersecting yes|no together with --x/--y, an
--x or --y that is not hex digits alone, an argument to a program that takes none, a flood source that is not an
integer or not a vertex of the graph, a cycles:<k> protocol whose k is
not an integer, c4 with a --k other than 4, a family flag (--k, --ell,
--m, --seed) on a family that does not take it, an option a subcommand
does not have, such as --seed on run-congest, a --cut or --partition
bundle that does not belong to --graph, or a path it cannot use: a
missing file, a directory where a file is read, or an existing file as
--out) or a simulator model violation, 3 work budget exceeded.
CONGESTLAB_WORK_BUDGET overrides the default enumeration budget; a
value that is not an integer of at least 1 is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from .bitstrings import hex_to_bits, random_bits
from .bundles import SCHEMA_VERSION, canonical_json_bytes, read_split, write_bundle
from .congest import (
    PROGRAMS,
    NodeProgram,
    ProtocolViolation,
    SimConfig,
    cut_traffic_bound_check,
    default_bandwidth,
    flood_program,
    run,
)
from .diamond_congest import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    DEFAULT_MIN_DEGREE_CONSTANT,
    list_induced_diamonds_congest,
)
from .diamond_family import build_diamond_fixture
from .families import InputPair
from .family_checks import (
    FamilyHarness,
    cycle_harness,
    diamond_harness,
    long_cycle_harness,
    verify_family_conditions,
)
from .graphs import (
    DEFAULT_WORK_BUDGET,
    Graph,
    WorkBudgetExceeded,
    crossing_edges,
    list_induced_cycles,
    list_induced_diamonds,
    random_graph,
)
from .twoparty import cycle_listing_protocol, diamond_listing_protocol

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

FAMILY_ALIASES = {
    "cycle": "cycle",
    "c4": "cycle",
    "ck": "cycle",
    "long-cycle": "long-cycle",
    "c8l": "long-cycle",
    "diamond": "diamond",
}
# Each family flag: the one family that takes it, and its default there.
FAMILY_FLAGS = {
    "k": ("cycle", 4),
    "ell": ("long-cycle", 1),
    "m": ("long-cycle", 0),
    "seed": ("diamond", None),
}


def work_budget() -> int:
    env = os.environ.get("CONGESTLAB_WORK_BUDGET")
    if not env:
        return DEFAULT_WORK_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = 0  # reported below, as a value under 1 is
    if budget < 1:
        raise ValueError(
            f"CONGESTLAB_WORK_BUDGET must be an integer of at least 1, got {env!r}"
        )
    return budget


def _write_out(data: bytes, path: str | None) -> None:
    """Write *data* to *path*, or to stdout when no path is given."""
    if path:
        Path(path).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _read_graph(path: str) -> Graph:
    return Graph.from_text(Path(path).read_text(encoding="utf-8"))


def _fraction(text: str) -> Fraction:
    """Parse only; ``decompose_by_peeling`` checks the exponent range."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _round_cap(text: str) -> int:
    """A --max-rounds value of at most 10^6: a run whose mail dies out
    reports one cut-bit entry per round up to the cap."""
    value = _positive_int(text)
    if value > 1_000_000:
        raise argparse.ArgumentTypeError(f"must be at most 1000000, got {value}")
    return value


def _unit_float(text: str) -> float:
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _positive_ints(text: str) -> list[int]:
    return [_positive_int(item) for item in text.split(",")]


def _unit_floats(text: str) -> list[float]:
    return [_unit_float(item) for item in text.split(",")]


def _make_inputs(args, bit_count: int) -> InputPair:
    if (args.x is None) != (args.y is None):
        raise ValueError("--x and --y must be given together")
    if args.x is not None:
        random_only = (
            ("--input-seed", args.input_seed is not None),
            ("--input-density", args.input_density is not None),
            (f"--intersecting {args.intersecting}", args.intersecting != "any"),
        )
        for flag, given in random_only:
            if given:
                raise ValueError(
                    f"{flag} applies to random inputs only; "
                    "it cannot be combined with --x/--y"
                )
        x = hex_to_bits(args.x, bit_count)
        y = hex_to_bits(args.y, bit_count)
        return InputPair(x=x, y=y)
    if args.input_seed is None:
        raise ValueError("give --x/--y or --input-seed")
    rng = random.Random(args.input_seed)
    density = {} if args.input_density is None else {"density": args.input_density}
    x = random_bits(bit_count, rng, **density)
    y = random_bits(bit_count, rng, **density)
    if args.intersecting == "yes":
        k = rng.randrange(bit_count)
        x = x[:k] + "1" + x[k + 1 :]
        y = y[:k] + "1" + y[k + 1 :]
    elif args.intersecting == "no":
        y = "".join("0" if xb == "1" else yb for xb, yb in zip(x, y))
    return InputPair(x=x, y=y)


def _harness(
    args, budget: int = DEFAULT_WORK_BUDGET, include_centers: bool = False
) -> FamilyHarness:
    """The harness of the family *args* names; it holds the builder.

    A flag of another family, and a diamond seed that keeps no input
    slot, are usage errors here, so ``gen-family`` and ``verify-family``
    reject them alike.
    """
    family = FAMILY_ALIASES[args.family]
    for flag, (owner, default) in FAMILY_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif owner != family:
            raise ValueError(f"{args.family} takes no --{flag}, a {owner} family flag")
    if args.family == "c4" and args.k != 4:
        raise ValueError(f"c4 is the 4-cycle family; for --k {args.k} use cycle or ck")
    if family == "cycle":
        return cycle_harness(args.n, args.k, budget=budget)
    if family == "long-cycle":
        return long_cycle_harness(
            args.n, args.ell, args.m, budget=budget, include_centers=include_centers
        )
    if args.seed is None:
        raise ValueError("the diamond family needs an explicit --seed")
    harness = diamond_harness(build_diamond_fixture(args.n, args.seed), budget=budget)
    if harness.bit_count == 0:
        raise ValueError(
            f"seed {args.seed} yields no usable slots at n={args.n}; pick another"
        )
    return harness


def cmd_gen_family(args) -> int:
    harness = _harness(args, include_centers=True)
    write_bundle(harness.build(_make_inputs(args, harness.bit_count)), args.out)
    sys.stdout.write(f"{args.out}\n")
    return EXIT_OK


def cmd_verify_family(args) -> int:
    harness = _harness(args, budget=work_budget())
    exhaustive = {"auto": None, "yes": True, "no": False}[args.exhaustive]
    report = verify_family_conditions(
        harness, samples=args.samples, exhaustive=exhaustive
    )
    _write_out(report.to_json_bytes(), args.json_out)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _program(spec: str, n: int) -> NodeProgram:
    """The program *spec* names, as ``name`` or ``name:arg``.

    Only ``flood`` takes an argument, its source vertex."""
    name, _, arg = spec.partition(":")
    if name not in PROGRAMS:
        raise ValueError(f"unknown program {name!r}; have {sorted(PROGRAMS)}")
    if name != "flood":
        if arg:
            raise ValueError(f"program {name} takes no argument, got {arg!r}")
        return PROGRAMS[name]()
    try:
        source = int(arg or 0)
    except ValueError:
        raise ValueError(f"bad flood source {arg!r}: not an integer") from None
    if not 0 <= source < n:
        raise ValueError(
            f"flood source {arg or 0} is not a vertex of the {n}-vertex graph"
        )
    return flood_program(source)


def cmd_run_congest(args) -> int:
    g = _read_graph(args.graph)
    program = _program(args.program, g.n)
    cut = None
    if args.cut:
        _, cut = read_split(args.cut, g)
    config = SimConfig(bandwidth_bits=args.bandwidth, max_rounds=args.max_rounds)
    stats = run(g, program, config, cut=cut)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "parameters": {
            "graph": args.graph,
            "program": args.program,
            "bandwidth": args.bandwidth,
            "max_rounds": args.max_rounds,
            "cut": args.cut,
        },
        "rounds_used": stats.rounds_used,
        "timed_out": stats.timed_out,
        "decision": stats.decision,
        "message_count": stats.message_count,
        "max_message_bits": stats.max_message_bits,
        "node_outputs": list(stats.node_outputs),
        "per_round_cut_bits": list(stats.per_round_cut_bits),
        "total_cut_bits": stats.total_cut_bits,
    }
    if cut is not None:
        bandwidth = config.bandwidth_bits or default_bandwidth(g.n)
        check = cut_traffic_bound_check(stats, len(cut), bandwidth)
        payload["cut_bound"] = dataclasses.asdict(check)
    _write_out(canonical_json_bytes(payload), args.stats_out)
    return EXIT_OK


def cmd_run_protocol(args) -> int:
    g = _read_graph(args.graph)
    side_a = frozenset(read_split(args.partition, g)[0])
    budget = work_budget()
    if args.protocol.startswith("cycles:"):
        arg = args.protocol.split(":", 1)[1]
        try:
            k = int(arg)
        except ValueError:
            raise ValueError(
                f"--protocol cycles:<k> needs an integer k, got {arg!r}"
            ) from None
        result = cycle_listing_protocol(g, side_a, k, budget=budget)
        oracle = list_induced_cycles(g, k, budget=budget)
    elif args.protocol == "diamond":
        result = diamond_listing_protocol(g, side_a, budget=budget)
        oracle = list_induced_diamonds(g, budget=budget)
    else:
        raise ValueError(f"unknown protocol {args.protocol!r}")
    listed = result.all_listed
    oracle_match = listed == tuple(oracle)
    t = result.transcript
    payload = {
        "schema_version": SCHEMA_VERSION,
        "parameters": {
            "graph": args.graph,
            "partition": args.partition,
            "protocol": args.protocol,
        },
        "a_list": [list(c) for c in sorted(result.a_list)],
        "b_list": [list(c) for c in sorted(result.b_list)],
        "listed": [list(c) for c in listed],
        "payload_bits_a_to_b": t.payload_bits("a->b"),
        "payload_bits_b_to_a": t.payload_bits("b->a"),
        "payload_bits_total": t.payload_bits(),
        "framing_bits": t.framing_bits(),
        "bound_bits": result.bound_bits,
        "within_bound": result.within_bound,
        "slack_bits": result.bound_bits - t.payload_bits(),
        "oracle_match": oracle_match,
    }
    _write_out(canonical_json_bytes(payload), args.out)
    ok = result.within_bound and oracle_match
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_run_diamond_listing(args) -> int:
    g = _read_graph(args.graph)
    budget = work_budget()
    diamonds, stats = list_induced_diamonds_congest(
        g,
        delta=args.delta,
        epsilon=args.epsilon,
        min_degree_constant=args.min_degree_constant,
        budget=budget,
        with_coverage=True,
    )
    payload = dict(vars(stats), schema_version=SCHEMA_VERSION)
    payload["parameters"] = {
        "graph": args.graph,
        "delta": str(args.delta),
        "epsilon": str(args.epsilon),
        "min_degree_constant": args.min_degree_constant,
    }
    ok = True
    if args.check_oracle:
        oracle = list_induced_diamonds(g, budget=budget)
        ok = list(diamonds) == list(oracle)
        payload["oracle_match"] = ok
        payload["oracle_count"] = len(oracle)
    if args.list_out:
        Path(args.list_out).write_bytes(
            canonical_json_bytes({"diamonds": [list(d) for d in diamonds]})
        )
    _write_out(canonical_json_bytes(payload), args.stats_out)
    return EXIT_OK if ok else EXIT_VERIFY


def _bench_run(args, g: Graph, side_a, k: int | None, budget: int, row: dict) -> None:
    """Run the suite's algorithm on one bench graph; fill its columns of *row*."""
    if args.suite == "diamond-listing":
        diamonds, stats = list_induced_diamonds_congest(g, budget=budget)
        row["params"] += f";delta={stats.delta};epsilon={stats.epsilon}"
        executed = stats.sparse_rounds + stats.heavy_executed_rounds
        row["rounds"] = executed + stats.light_executed_rounds
        row["cut_edges"] = ""
        row["heavy_charged_rounds"] = stats.heavy_charged_rounds_sum
        row["found"] = len(diamonds)
        return
    if k is None:
        res = diamond_listing_protocol(g, side_a, budget=budget)
    else:
        res = cycle_listing_protocol(g, side_a, k, budget=budget)
    row["payload_bits"] = res.transcript.payload_bits()
    row["bound_bits"] = res.bound_bits
    row["found"] = len(res.all_listed)


def _bench_rows(args):
    budget = work_budget()
    ks = (4, 5, 6, 7) if args.suite == "cycle-protocol" else (None,)
    for n in args.sizes:
        for density in args.densities:
            rng = random.Random(f"{args.seed}:{n}:{density}")
            g = random_graph(n, density, rng)
            side_a = frozenset(v for v in range(n) if rng.random() < 0.5)
            cut = len(crossing_edges(g, side_a))
            for k in ks:
                t0 = time.perf_counter()
                if k is None:
                    oracle = list_induced_diamonds(g, budget=budget)
                else:
                    oracle = list_induced_cycles(g, k, budget=budget)
                oracle_s = time.perf_counter() - t0
                # Columns no run fills are written empty (csv restval).
                row = {
                    "algorithm": args.suite,
                    "n": n,
                    "params": ("" if k is None else f"k={k};") + f"density={density}",
                    "cut_edges": cut,
                    "oracle_found": len(oracle),
                    "oracle_seconds": f"{oracle_s:.6f}",
                }
                _bench_run(args, g, side_a, k, budget, row)
                yield row


def cmd_bench(args) -> int:
    fieldnames = [
        "schema_version",
        "algorithm",
        "n",
        "params",
        "rounds",
        "heavy_charged_rounds",
        "cut_edges",
        "payload_bits",
        "bound_bits",
        "found",
        "oracle_found",
        "oracle_seconds",
    ]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in _bench_rows(args):
        row["schema_version"] = SCHEMA_VERSION
        writer.writerow(row)
    _write_out(buf.getvalue().encode("utf-8"), args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    merged: dict = {"schema_version": SCHEMA_VERSION, "reports": {}}
    first: dict[str, Path] = {}  # the merged reports are keyed by file name
    for path in sorted(args.inputs):
        p = Path(path)
        if (seen := first.setdefault(p.name, p)) != p:
            raise ValueError(f"report inputs {seen} and {p} share one file name")
        if p.suffix == ".csv":
            with p.open(newline="", encoding="utf-8") as fh:
                merged["reports"][p.name] = list(csv.DictReader(fh))
        else:
            merged["reports"][p.name] = json.loads(p.read_text(encoding="utf-8"))
    _write_out(canonical_json_bytes(merged), args.out)
    return EXIT_OK


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=sorted(FAMILY_ALIASES))
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=int, help="cycle length (cycle families, default 4)")
    p.add_argument("--ell", type=int, help="strands (long-cycle family, default 1)")
    p.add_argument("--m", type=int, help="padding (long-cycle family, default 0)")
    p.add_argument("--seed", type=int, help="diamond family seed")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", help="hex input for the first party")
    p.add_argument("--y", help="hex input for the second party")
    p.add_argument("--input-seed", type=int, default=None)
    p.add_argument("--input-density", type=_unit_float, help="default 0.5")
    p.add_argument(
        "--intersecting", choices=["yes", "no", "any"], default="any",
        help="force the random inputs to share an index, or not",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congestlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-family", help="write an instance bundle to disk")
    _add_family_flags(p)
    _add_input_flags(p)
    p.add_argument("--out", required=True, help="bundle directory")
    p.set_defaults(func=cmd_gen_family)

    p = sub.add_parser("verify-family", help="check structure and the iff predicate")
    _add_family_flags(p)
    p.add_argument("--samples", type=_positive_int, default=40)
    p.add_argument("--exhaustive", choices=["auto", "yes", "no"], default="auto")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_verify_family)

    p = sub.add_parser("run-congest", help="run a node program on the simulator")
    p.add_argument("--graph", required=True)
    p.add_argument("--program", required=True, help="name or name:arg")
    p.add_argument("--bandwidth", type=_positive_int, default=None)
    p.add_argument("--max-rounds", type=_round_cap, default=SimConfig.max_rounds)
    p.add_argument("--cut", help="bundle dir or meta.json supplying cut edges")
    p.add_argument("--stats-out")
    p.set_defaults(func=cmd_run_congest)

    p = sub.add_parser("run-protocol", help="two-party listing over a vertex cut")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True, help="bundle dir or meta.json")
    p.add_argument("--protocol", required=True, help="cycles:<k> or diamond")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run_protocol)

    p = sub.add_parser("run-diamond-listing", help="distributed diamond listing")
    p.add_argument("--graph", required=True)
    p.add_argument("--delta", type=_fraction, default=DEFAULT_DELTA)
    p.add_argument("--epsilon", type=_fraction, default=DEFAULT_EPSILON)
    p.add_argument(
        "--min-degree-constant", type=_positive_int, default=DEFAULT_MIN_DEGREE_CONSTANT
    )
    p.add_argument("--stats-out")
    p.add_argument("--list-out", help="also write the full diamond list")
    p.add_argument("--check-oracle", action="store_true")
    p.set_defaults(func=cmd_run_diamond_listing)

    p = sub.add_parser("bench", help="parameter sweeps as CSV")
    p.add_argument(
        "--suite",
        choices=["cycle-protocol", "diamond-protocol", "diamond-listing"],
        required=True,
    )
    p.add_argument(
        "--sizes",
        type=_positive_ints,
        default="16,24,32",
        help="comma-separated n values",
    )
    p.add_argument(
        "--densities",
        type=_unit_floats,
        default="0.1,0.2",
        help="comma-separated values in [0, 1]",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="merge JSON reports deterministically")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WorkBudgetExceeded as exc:
        print(f"work budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, ProtocolViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
