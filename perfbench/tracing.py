"""In-memory spans around congestlab's public functions, and the per-layer
metrics derived from them.

Tracing rebinds each target function, in every loaded ``congestlab``
module that holds it, to a wrapper that opens a span, calls the
original and records counts read from the returned object.  Callers
inside the package look the function up by its module-level name at
call time, so a call from ``twoparty`` into ``list_induced_cycles``
becomes a child span of the protocol's span.  Nothing under ``src/``
changes; ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, attrs]``: CPU times of the
process from ``time.process_time``, ``parent`` the index of the
enclosing span or -1, ``attrs`` the sizes and counts of that call.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import time
from collections import defaultdict

# (span name, defining module, function name, attrs(arguments, result)).
# Several functions may share one span name; their spans aggregate.
TARGETS = [
    (
        "graphs.list_induced_cycles",
        "graphs",
        "list_induced_cycles",
        lambda a, r: {"n": a["g"].n, "k": a["k"], "found": len(r)},
    ),
    (
        "graphs.list_induced_diamonds",
        "graphs",
        "list_induced_diamonds",
        lambda a, r: {"n": a["g"].n, "found": len(r)},
    ),
    (
        "twoparty.cycle_listing_protocol",
        "twoparty",
        "cycle_listing_protocol",
        lambda a, r: {
            "n": a["g"].n,
            "k": a["k"],
            "payload_bits": r.transcript.payload_bits(),
            "listed": len(r.a_list) + len(r.b_list),
        },
    ),
    (
        "twoparty.diamond_listing_protocol",
        "twoparty",
        "diamond_listing_protocol",
        lambda a, r: {"n": a["g"].n, "payload_bits": r.transcript.payload_bits()},
    ),
    (
        "twoparty.congest_reduction",
        "twoparty",
        "congest_reduction",
        lambda a, r: {
            "n": a["inst"].graph.n,
            "transcript_bits": r.transcript.payload_bits(),
        },
    ),
    (
        "diamond_congest.decompose_by_peeling",
        "diamond_congest",
        "decompose_by_peeling",
        lambda a, r: {"n": a["g"].n},
    ),
    (
        "diamond_congest.run_sparse_phase",
        "diamond_congest",
        "run_sparse_phase",
        lambda a, r: {
            "n": a["g"].n,
            "rounds": r[1].rounds_used,
            "messages": r[1].message_count,
        },
    ),
    (
        "diamond_congest.run_heavy_phase",
        "diamond_congest",
        "run_heavy_phase",
        lambda a, r: {
            "n": a["g"].n,
            "engaged_clusters": r[2]["engaged_clusters"],
            "charged_rounds": r[2]["charged_rounds_sum"],
            "kept": len(r[0]),
        },
    ),
    (
        "diamond_congest.run_light_phase",
        "diamond_congest",
        "run_light_phase",
        lambda a, r: {
            "n": a["g"].n,
            "rounds": r[2]["executed_rounds"],
            "messages": r[1].message_count,
            "kept": r[2]["reconcile_found"],
        },
    ),
    (
        "diamond_congest.coverage_tags",
        "diamond_congest",
        "coverage_tags",
        lambda a, r: {"n": a["g"].n},
    ),
    (
        "diamond_congest.list_induced_diamonds_congest",
        "diamond_congest",
        "list_induced_diamonds_congest",
        lambda a, r: {"n": a["g"].n, "found": len(r[0])},
    ),
    (
        "families.build",
        "families",
        "build_four_cycle_family",
        lambda a, r: {"n": r.graph.n},
    ),
    (
        "families.build",
        "families",
        "build_cycle_family",
        lambda a, r: {"n": r.graph.n},
    ),
    (
        "families.build",
        "families",
        "build_long_cycle_family",
        lambda a, r: {"n": r.graph.n},
    ),
    (
        "diamond_family.build_diamond_fixture",
        "diamond_family",
        "build_diamond_fixture",
        lambda a, r: {"n": a["n"]},
    ),
    (
        "diamond_family.build_diamond_family",
        "diamond_family",
        "build_diamond_family",
        lambda a, r: {"n": r.graph.n},
    ),
    (
        "family_checks.verify_family_conditions",
        "family_checks",
        "verify_family_conditions",
        lambda a, r: {
            "pairs": r.pairs_checked,
            "iff_failed": int(not r.conditions["target_iff_intersect"]["passed"]),
        },
    ),
]


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.process_time(), None, parent, attrs or {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.process_time()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order (open: {popped})")

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every target in every loaded congestlab module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "congestlab" or name.startswith("congestlab."))
        ]
        for span_name, home, func_name, describe in TARGETS:
            original = getattr(sys.modules[f"congestlab.{home}"], func_name)
            self._rebind(modules, original, self._wrap(span_name, original, describe))
        original = sys.modules["congestlab.congest"].run
        self._rebind(modules, original, self._wrap_run(original))

    def _rebind(self, modules, original, wrapper) -> None:
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._saved.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    def _wrap(self, span_name, original, describe):
        signature = inspect.signature(original)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            bound = signature.bind(*args, **kwargs).arguments
            tracer.spans[idx][4] = describe(bound, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _wrap_run(self, original):
        """congest.run: also count node steps, and the active ones (a
        non-empty inbox or outbox), by wrapping the program's step."""
        signature = inspect.signature(original)
        tracer = self

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            program = bound.arguments["program"]
            steps = [0, 0]
            step = program.step

            def counted_step(state, r, inbox):
                out = step(state, r, inbox)
                steps[0] += 1
                if inbox or out[1]:
                    steps[1] += 1
                return out

            bound.arguments["program"] = dataclasses.replace(program, step=counted_step)
            idx = tracer.open("congest.run")
            try:
                stats = original(*bound.args, **bound.kwargs)
            finally:
                tracer.close(idx)
            tracer.spans[idx][4] = {
                "n": bound.arguments["g"].n,
                "program": program.name,
                "rounds": stats.rounds_used,
                "messages": stats.message_count,
                "cut_bits": stats.total_cut_bits,
                "node_steps": steps[0],
                "active_steps": steps[1],
            }
            return stats

        traced.__wrapped__ = original
        return traced


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children.  Spans come
    from one thread, so children never overlap and their sum is the
    covered time."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics named ``<module>.<function>.<stat>``.

    Counts are sums over every span of that name; a span whose call
    raised carries none.  A ratio with an empty base reads 0.  ``check_s`` is the time the benchmark's own
    oracle checks spend in the cycle oracle (calls made directly from
    an operation span, whose names start with ``op.``).
    """
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[tuple[str, str], int] = defaultdict(int)
    cycle_found_in_protocol = 0
    central_found = 0
    central_s = 0.0
    check_s = 0.0
    build_calls = 0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        total[name] += end - start
        self_s[name] += own[i]
        calls[name] += 1
        for key, value in attrs.items():
            if isinstance(value, int):
                sums[name, key] += value
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "graphs.list_induced_cycles":
            if parent_name == "twoparty.cycle_listing_protocol":
                cycle_found_in_protocol += attrs.get("found", 0)
            elif parent_name.startswith("op."):
                check_s += end - start
        if name == "graphs.list_induced_diamonds" and parent_name in (
            "diamond_congest.run_heavy_phase",
            "diamond_congest.run_light_phase",
        ):
            central_found += attrs.get("found", 0)
            central_s += end - start
        if name == "families.build" and parent_name != "families.build":
            build_calls += 1

    cyc = "graphs.list_induced_cycles"
    dia = "graphs.list_induced_diamonds"
    cp = "twoparty.cycle_listing_protocol"
    dp = "twoparty.diamond_listing_protocol"
    red = "twoparty.congest_reduction"
    run = "congest.run"
    peel = "diamond_congest.decompose_by_peeling"
    sparse = "diamond_congest.run_sparse_phase"
    heavy = "diamond_congest.run_heavy_phase"
    light = "diamond_congest.run_light_phase"
    cov = "diamond_congest.coverage_tags"
    lidc = "diamond_congest.list_induced_diamonds_congest"
    build = "families.build"
    fixture = "diamond_family.build_diamond_fixture"
    dfam = "diamond_family.build_diamond_family"
    verify = "family_checks.verify_family_conditions"
    return {
        f"{cyc}.self_s": self_s[cyc],
        f"{cyc}.calls": calls[cyc],
        f"{cyc}.found": sums[cyc, "found"],
        f"{cyc}.check_s": check_s,
        f"{dia}.self_s": self_s[dia],
        f"{dia}.calls": calls[dia],
        f"{dia}.found": sums[dia, "found"],
        f"{cp}.self_s": self_s[cp],
        f"{cp}.total_s": total[cp],
        f"{cp}.payload_bits": sums[cp, "payload_bits"],
        "twoparty.cycle_kept_ratio": _ratio(sums[cp, "listed"], cycle_found_in_protocol),
        f"{dp}.self_s": self_s[dp],
        f"{dp}.payload_bits": sums[dp, "payload_bits"],
        f"{red}.self_s": self_s[red],
        f"{red}.transcript_bits": sums[red, "transcript_bits"],
        f"{run}.self_s": self_s[run],
        f"{run}.calls": calls[run],
        f"{run}.rounds": sums[run, "rounds"],
        f"{run}.messages": sums[run, "messages"],
        f"{run}.cut_bits": sums[run, "cut_bits"],
        f"{run}.node_steps": sums[run, "node_steps"],
        f"{run}.msgs_per_s": _ratio(sums[run, "messages"], total[run]),
        f"{run}.active_step_ratio": _ratio(
            sums[run, "active_steps"], sums[run, "node_steps"]
        ),
        f"{peel}.self_s": self_s[peel],
        f"{peel}.calls": calls[peel],
        f"{sparse}.self_s": self_s[sparse],
        f"{sparse}.rounds": sums[sparse, "rounds"],
        f"{sparse}.messages": sums[sparse, "messages"],
        f"{sparse}.msgs_per_s": _ratio(sums[sparse, "messages"], total[sparse]),
        f"{heavy}.self_s": self_s[heavy],
        f"{heavy}.engaged_clusters": sums[heavy, "engaged_clusters"],
        f"{heavy}.charged_rounds": sums[heavy, "charged_rounds"],
        f"{light}.self_s": self_s[light],
        f"{light}.rounds": sums[light, "rounds"],
        f"{light}.messages": sums[light, "messages"],
        "diamond_congest.central_oracle_s": central_s,
        "diamond_congest.central_kept_ratio": _ratio(
            sums[heavy, "kept"] + sums[light, "kept"], central_found
        ),
        f"{cov}.self_s": self_s[cov],
        f"{lidc}.self_s": self_s[lidc],
        f"{build}.self_s": self_s[build],
        f"{build}.calls": build_calls,
        f"{fixture}.self_s": self_s[fixture],
        f"{dfam}.self_s": self_s[dfam],
        f"{verify}.self_s": self_s[verify],
        f"{verify}.pairs": sums[verify, "pairs"],
        "family_checks.iff_failed_harnesses": sums[verify, "iff_failed"],
    }


def summarize(
    spans: list[list],
    name: str | None = None,
    by: str = "n",
    parent: str | None = None,
    total_of: str | None = None,
) -> list[tuple]:
    """Rows of (key, calls, total_s, self_s, sum of attribute *total_of*):
    one per span name or, with *name*, one per value of attribute *by*
    among that name's spans.  *parent* keeps only spans whose parent's
    name starts with it."""
    own = self_times(spans)
    rows: dict = {}
    for i, (span_name, start, end, up, attrs) in enumerate(spans):
        if name is not None and span_name != name:
            continue
        if parent is not None and not (up >= 0 and spans[up][0].startswith(parent)):
            continue
        key = span_name if name is None else attrs.get(by)
        row = rows.setdefault(key, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += own[i]
        row[3] += attrs.get(total_of, 0) if total_of else 0
    def order(row):
        key = row[0]
        return (0, key, "") if isinstance(key, (int, float)) else (1, 0, str(key))

    return sorted(((k, *v) for k, v in rows.items()), key=order)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Summarize a trace file written by perfbench/run.py --trace 1."
    )
    parser.add_argument("trace_file")
    parser.add_argument("--name", help="only spans of this name, grouped by --by")
    parser.add_argument("--by", default="n", help="attribute to group by (default n)")
    parser.add_argument("--parent", help="only spans whose parent name starts with this")
    parser.add_argument("--sum", dest="total_of", help="also sum this attribute")
    args = parser.parse_args(argv)
    with open(args.trace_file) as f:
        spans = json.load(f)["spans"]
    label = args.by if args.name else "span"
    extra = f" {args.total_of:>14}" if args.total_of else ""
    print(f"{label:<48} {'calls':>8} {'total_s':>12} {'self_s':>12}{extra}")
    rows = summarize(spans, args.name, args.by, args.parent, args.total_of)
    for key, calls, total, own, summed in rows:
        extra = f" {summed:>14}" if args.total_of else ""
        print(f"{str(key):<48} {calls:>8} {total:>12.6f} {own:>12.6f}{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
