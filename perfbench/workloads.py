"""The three benchmark workloads: seeded inputs and self-checking operations.

Each workload turns a seed into a fixed list of operations (one pass).
An operation calls congestlab through the package's public names,
looked up at call time so that tracing can rebind them, and then checks
the output against an independent reference.  A failed check raises
``CheckFailed``; the runner counts it, and any other exception, as a
failed operation.

Input sizes sit on fixed grids and only the graphs, splits and pairs
are drawn from the seed.  The costliest operations grow steeply with n
and with the edge count (induced 7-cycle listing on G(60, 0.3) takes
seconds), so a grid, and G(n, p) draws kept near their mean edge
count, hold the work of one pass nearly the same from seed to seed.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import congestlab as cl


class CheckFailed(AssertionError):
    """An operation's output disagreed with its reference."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Op:
    kind: str
    attrs: dict
    call: Callable[[], None] = field(repr=False)


def typical_graph(n: int, p: float, rng: random.Random):
    """A G(n, p) draw whose edge count lies within a quarter standard
    deviation of its mean; other draws are discarded.  Listing cost grows
    like a high power of the edge count, so this removes most of the
    seed-to-seed swing in an operation's work."""
    pairs = n * (n - 1) // 2
    mean, sd = pairs * p, math.sqrt(pairs * p * (1 - p))
    for _ in range(1000):
        g = cl.random_graph(n, p, rng)
        if abs(g.m - mean) <= sd / 4:
            return g
    raise RuntimeError(f"no typical G({n}, {p}) in 1000 draws")


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


# ---------------------------------------------------------------------------
# protocol-battery: two-party listing over a random half split.
# ---------------------------------------------------------------------------

# Sizes per density.  At p = 0.3 the grid stops at 48 and at p = 0.15 at
# 52: one G(60, 0.3) graph costs more than the rest of a pass together,
# one G(60, 0.15) graph over a quarter of it, and the cost of either
# swings with the seed by 10-20%, so they would set both the pass time
# and the spread.  p = 0.05 keeps the full 12..60 range.  Sizes up to
# SMALL_N get two graphs each, so that the median operation sits among
# many of similar cost.
PROTOCOL_SIZES = {
    0.05: (12, 20, 28, 36, 44, 52, 60),
    0.15: (12, 20, 28, 36, 44, 52),
    0.3: (12, 18, 24, 30, 36, 42, 48),
}
SMALL_N = 36
CYCLE_LENGTHS = (4, 5, 6, 7)


def _cycle_protocol_op(g, side, k, cut):
    res = cl.cycle_listing_protocol(g, side, k)
    oracle = tuple(cl.list_induced_cycles(g, k))
    _expect(res.all_listed == oracle, f"k={k} listing differs from the pruned oracle")
    _expect(
        len(res.a_list) + len(res.b_list) == len(oracle),
        f"k={k} some cycle was listed by both parties",
    )
    _expect(
        res.transcript.payload_bits() <= 4 * cl.word_bits(g.n) * g.n * cut,
        f"k={k} payload exceeds 4*w*n*cut",
    )


def _diamond_protocol_op(g, side, cut):
    res = cl.diamond_listing_protocol(g, side)
    oracle = tuple(cl.list_induced_diamonds(g))
    _expect(res.all_listed == oracle, "diamond listing differs from the pruned oracle")
    _expect(
        res.transcript.payload_bits()
        <= 12 * cl.word_bits(g.n) * _ceil_sqrt(g.n) * cut,
        "diamond payload exceeds 12*w*sqrt(n)*cut",
    )


def _protocol_ops(g, p: float, rng: random.Random) -> list[Op]:
    """The five protocol operations on g over a random half split."""
    n = g.n
    side = frozenset(rng.sample(range(n), n // 2))
    cut = len(cl.crossing_edges(g, side))
    ops = [
        Op(
            "cycle-protocol",
            {"n": n, "p": p, "k": k},
            lambda k=k: _cycle_protocol_op(g, side, k, cut),
        )
        for k in CYCLE_LENGTHS
    ]
    ops.append(
        Op("diamond-protocol", {"n": n, "p": p}, lambda: _diamond_protocol_op(g, side, cut))
    )
    return ops


def protocol_battery(seed: int) -> list[Op]:
    rng = random.Random(f"protocol-battery:{seed}")
    ops = []
    for p, sizes in PROTOCOL_SIZES.items():
        for n in sizes:
            for _ in range(2 if n <= SMALL_N else 1):
                ops += _protocol_ops(typical_graph(n, p, rng), p, rng)
    return ops


# ---------------------------------------------------------------------------
# diamond-pipeline: distributed induced-diamond listing with coverage.
# ---------------------------------------------------------------------------

PIPELINE_MID_SIZES = (48, 64, 80, 96, 112, 128)
PIPELINE_MID_DENSITIES = (0.03, 0.07, 0.12, 0.2)
# (fixture n, fixtures, instances per fixture)
PIPELINE_PLANTED = ((16, 6, 10), (64, 4, 4))
# A dense single-cluster graph: nearly all time goes to the central
# reconcile listing.  n = 400 takes over 6 s per listing, longer than a
# whole pass may last, so n is 200.
PIPELINE_DENSE = ((200, 0.15),)
# Large sparse graphs: everything is peeled; time goes to peeling and the
# sparse-phase simulator.
PIPELINE_SPARSE = ((1000, 0.004), (2000, 0.003), (3000, 0.002))


def _pipeline_op(g):
    found, stats = cl.list_induced_diamonds_congest(g, with_coverage=True)
    oracle = tuple(cl.list_induced_diamonds(g))
    _expect(found == oracle, "distributed listing differs from the pruned oracle")
    coverage = stats.coverage_counts
    _expect(sum(coverage.values()) == len(oracle), "coverage tags are incomplete")
    light = sum(v for tag, v in coverage.items() if tag.startswith("light-"))
    _expect(
        (coverage.get("sparse", 0), coverage.get("heavy", 0), light)
        == (stats.sparse_found, stats.heavy_found, stats.light_found),
        "phase outputs do not match their coverage tags",
    )
    _expect(
        stats.gathered_entries_max <= stats.gathered_entries_cap
        and stats.query_len_max <= stats.query_len_cap,
        "gather or query cap exceeded",
    )


def _planted_op(fixture, pair):
    inst = cl.build_diamond_family(fixture, pair)
    _pipeline_op(inst.graph)


def _fixture(n: int, rng: random.Random):
    """A fixture with at least one slot, from a seed drawn from *rng*."""
    for _ in range(100):
        fx = cl.build_diamond_fixture(n, rng.randrange(2**31))
        if fx.bit_count:
            return fx
    raise RuntimeError(f"no diamond fixture with slots at n={n} in 100 seeds")


def _random_pair(bits: int, rng: random.Random) -> cl.InputPair:
    """Half intersecting-or-not at random, half guaranteed disjoint."""
    if rng.random() < 0.5:
        return cl.InputPair(cl.random_bits(bits, rng), cl.random_bits(bits, rng))
    return cl.InputPair(*cl.random_nonintersecting_pair(bits, rng))


def diamond_pipeline(seed: int) -> list[Op]:
    rng = random.Random(f"diamond-pipeline:{seed}")
    ops = []
    for n, p in itertools.product(PIPELINE_MID_SIZES, PIPELINE_MID_DENSITIES):
        g = typical_graph(n, p, rng)
        ops.append(Op("pipeline-mid", {"n": n, "p": p}, lambda g=g: _pipeline_op(g)))
    for n, fixtures, count in PIPELINE_PLANTED:
        for _ in range(fixtures):
            fx = _fixture(n, rng)
            for _ in range(count):
                pair = _random_pair(fx.bit_count, rng)
                ops.append(
                    Op(
                        "pipeline-planted",
                        {"n": n},
                        lambda fx=fx, pair=pair: _planted_op(fx, pair),
                    )
                )
    for n, p in PIPELINE_DENSE:
        g = typical_graph(n, p, rng)
        ops.append(Op("pipeline-dense", {"n": n, "p": p}, lambda g=g: _pipeline_op(g)))
    for n, p in PIPELINE_SPARSE:
        g = cl.random_graph(n, p, rng)
        ops.append(Op("pipeline-sparse", {"n": n, "p": p}, lambda g=g: _pipeline_op(g)))
    return ops


# ---------------------------------------------------------------------------
# family-sim: family verification, run-to-transcript reductions, floods.
# ---------------------------------------------------------------------------

# Harnesses whose construction is known to admit off-design targets; their
# iff failures are counted by the trace, not treated as failed operations.
KNOWN_IFF_LIMITATIONS = {("cycle", 5), ("cycle", 7), ("longcycle", 2)}
STRUCTURAL_CONDITIONS = ("fixed_structure", "side_a_edges_from_x", "side_b_edges_from_y")
REDUCTION_SAMPLES = {4: 48, 8: 48}
# Connected floods: (n, mean degree), two graphs each.
FLOOD_CONNECTED = ((200, 12), (400, 14), (600, 14), (800, 16))
FLOOD_DISCONNECTED = (1000, 0.002, 1500)  # n, p, max_rounds


def _verify_op(harness, key, vseed, exhaustive_pairs):
    report = cl.verify_family_conditions(harness, seed=vseed)
    for name in STRUCTURAL_CONDITIONS:
        _expect(report.conditions[name]["passed"], f"{key}: {name} failed")
    if key not in KNOWN_IFF_LIMITATIONS:
        _expect(
            report.conditions["target_iff_intersect"]["passed"],
            f"{key}: target_iff_intersect failed",
        )
    if exhaustive_pairs is not None:
        _expect(
            report.exhaustive and report.pairs_checked == exhaustive_pairs,
            f"{key}: expected {exhaustive_pairs} exhaustive pairs",
        )


def _reduction_op(n, pair):
    inst = cl.build_four_cycle_family(n, pair)
    res = cl.congest_reduction(inst, cl.naive_four_cycle_program())
    _expect(res.consistent, "reduction answer disagrees with set disjointness")
    _expect(
        res.transcript.payload_bits(kind="sim") == res.stats.total_cut_bits,
        "transcript payload differs from measured cut bits",
    )
    _expect(
        cl.cut_traffic_bound_check(
            res.stats, inst.cut_size, cl.default_bandwidth(inst.graph.n)
        ).ok,
        "cut traffic exceeds the per-round ceiling",
    )


def _bfs_dist(g, src: int) -> dict[int, int]:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _flood_op(g, source, max_rounds, dist):
    """Nodes reachable from the source decide 1; the rest never decide.
    A connected run ends one round after the farthest node hears the
    token; a disconnected one runs to the cap."""
    stats = cl.run(g, cl.flood_program(source), cl.SimConfig(max_rounds=max_rounds))
    expected = tuple(1 if v in dist else None for v in range(g.n))
    _expect(stats.node_outputs == expected, "flood outputs differ from reachability")
    if len(dist) == g.n:
        _expect(
            not stats.timed_out and stats.rounds_used == max(dist.values()) + 1,
            "connected flood did not end at eccentricity + 1 rounds",
        )
    else:
        _expect(
            stats.timed_out and stats.rounds_used == max_rounds,
            "disconnected flood did not run to the round cap",
        )
    _expect(
        stats.message_count == sum(g.degree(v) for v in dist),
        "flood message count differs from the reached degree sum",
    )


def _connected_graph(n: int, p: float, rng: random.Random):
    for _ in range(20):
        g = cl.random_graph(n, p, rng)
        if len(_bfs_dist(g, 0)) == n:
            return g
    raise RuntimeError(f"no connected G({n}, {p}) in 20 draws")


def family_sim(seed: int) -> list[Op]:
    rng = random.Random(f"family-sim:{seed}")
    ops = []
    harnesses = [(("cycle", k), cl.cycle_harness(2, k), 256) for k in (4, 5, 6, 7)]
    harnesses += [
        (("longcycle", ell), cl.long_cycle_harness(2, ell), 256) for ell in (1, 2)
    ]
    harnesses += [
        (("diamond", n), cl.diamond_harness(_fixture(n, rng)), None) for n in (16, 64)
    ]
    for key, harness, exhaustive_pairs in harnesses:
        vseed = rng.randrange(2**31)
        ops.append(
            Op(
                "verify-family",
                {"family": key[0], "param": key[1]},
                lambda h=harness, key=key, s=vseed, e=exhaustive_pairs: _verify_op(
                    h, key, s, e
                ),
            )
        )

    strings = ["".join(bits) for bits in itertools.product("01", repeat=4)]
    pairs = [(2, cl.InputPair(x, y)) for x in strings for y in strings]
    for n, count in REDUCTION_SAMPLES.items():
        pairs += [(n, _random_pair(n * n, rng)) for _ in range(count)]
    for n, pair in pairs:
        ops.append(
            Op("reduction", {"n": n}, lambda n=n, pair=pair: _reduction_op(n, pair))
        )

    floods = []
    for n, degree in FLOOD_CONNECTED:
        for _ in range(2):
            floods.append((_connected_graph(n, degree / n, rng), 10_000))
    n, p, cap = FLOOD_DISCONNECTED
    g = cl.random_graph(n, p, rng)
    floods.append((g, cap))
    for g, cap in floods:
        source = rng.randrange(g.n)
        dist = _bfs_dist(g, source)
        ops.append(
            Op(
                "flood",
                {"n": g.n, "max_rounds": cap},
                lambda g=g, s=source, cap=cap, dist=dist: _flood_op(g, s, cap, dist),
            )
        )
    return ops


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "protocol-battery": protocol_battery,
    "diamond-pipeline": diamond_pipeline,
    "family-sim": family_sim,
}
