"""The split replay (``split_replay``): runs re-executed as two parties.

Honest programs replay equal: criterion 10's 256 reductions and the
stock programs on seeded four-cycle instances.  A planted program whose
nodes share what the factory's closure gathered passes
``congest_reduction``'s consistency check, yet fails the replay on
every intersecting instance.

The closure guard (``guarded_run``) holds for every stock and phase
program, and catches the planted program on disjoint instances too,
where the replay is blind.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from split_replay import ClosureWrite, SplitReplayMismatch, guarded_run, split_replay
from test_diamond_congest import GRAPH_SETS, _clique_edges
from test_reference_sim import stock_program_cases

from congestlab import diamond_congest
from congestlab.bitstrings import bits_intersect
from congestlab.congest import (
    PROGRAMS,
    NodeProgram,
    SimConfig,
    encode_uint,
    flood_program,
    naive_four_cycle_program,
    run,
)
from congestlab.diamond_congest import list_induced_diamonds_congest
from congestlab.families import InputPair, build_four_cycle_family
from congestlab.graphs import Graph, has_induced_cycle
from congestlab.twoparty import congest_reduction


def _four_cycle_instances():
    """Three seeded disjoint pairs and three seeded intersecting pairs at
    each of n = 2, 3, 4 and 6: 24 instances."""
    instances = []
    for n in (2, 3, 4, 6):
        rng = random.Random(f"split-replay:{n}")
        for _ in range(3):
            x = "".join(rng.choice("01") for _ in range(n * n))
            disjoint = "".join(rng.choice("01") if b == "0" else "0" for b in x)
            hit = rng.randrange(n * n)
            meets = "".join("1" if i == hit else rng.choice("01") for i in range(n * n))
            x_hit = x[:hit] + "1" + x[hit + 1 :]
            instances.append(build_four_cycle_family(n, InputPair(x, disjoint)))
            instances.append(build_four_cycle_family(n, InputPair(x_hit, meets)))
    return instances


def leaky_four_cycle_program() -> NodeProgram:
    """Planted leak: the factory keeps one dict of every node's
    neighbours, filled in ``init``, and each node decides in round 0 by
    ``has_induced_cycle`` on the graph rebuilt from it.  It sends
    nothing, so no cut bit is charged."""
    seen: dict[int, tuple[int, ...]] = {}

    def init(v, neighbors, n):
        seen[v] = neighbors
        return n

    def step(n, r, inbox):
        rebuilt = Graph(n, [(u, w) for u, nbrs in seen.items() for w in nbrs])
        return n, [], int(has_induced_cycle(rebuilt, 4))

    return NodeProgram("leaky-four-cycle", init, step)


def test_criterion_10_reductions_replay_as_two_parties():
    strings = [format(v, "04b") for v in range(16)]
    for x in strings:
        for y in strings:
            inst = build_four_cycle_family(2, InputPair(x, y))
            res = congest_reduction(inst, naive_four_cycle_program())
            split_replay(inst, naive_four_cycle_program, res.stats)


@pytest.mark.parametrize("name", ["detect-four-cycle", "flood", "constant-one", "silent"])
def test_stock_programs_replay_on_four_cycle_instances(name):
    config = SimConfig(max_rounds=40)
    for seed, inst in enumerate(_four_cycle_instances()):

        def make():
            return flood_program(seed) if name == "flood" else PROGRAMS[name]()

        joint = run(inst.graph, make(), config, cut=inst.cut_edges)
        split_replay(inst, make, joint)


def test_the_leaky_program_beats_the_reduction_but_fails_the_replay():
    intersecting = 0
    for inst in _four_cycle_instances():
        res = congest_reduction(inst, leaky_four_cycle_program())
        assert res.consistent and res.stats.rounds_used == 1 and res.stats.total_cut_bits == 0
        if bits_intersect(inst.pair.x, inst.pair.y):
            intersecting += 1
            with pytest.raises(
                SplitReplayMismatch,
                match=r"^program leaky-four-cycle: node \d+ output 0 where the joint run has 1 in round 0$",
            ):
                split_replay(inst, leaky_four_cycle_program, res.stats)
        else:
            # Each side alone holds no induced 4-cycle, and neither does
            # the whole graph: the leak moves no output, so it goes unseen.
            split_replay(inst, leaky_four_cycle_program, res.stats)
    assert intersecting == 12


def test_a_changed_record_names_the_node_and_the_round():
    # An honest run whose joint record is altered: one listing, or the
    # bits of side A's first message across the cut.
    inst = build_four_cycle_family(2, InputPair("1000", "0001"))
    joint = run(inst.graph, naive_four_cycle_program(), cut=inst.cut_edges)
    last = joint.rounds_used - 1
    listed = dataclasses.replace(joint, listings={inst.side_b[0]: "made up"})
    with pytest.raises(
        SplitReplayMismatch,
        match=rf"node {inst.side_b[0]} collected None where the joint run has 'made up' in round {last}$",
    ):
        split_replay(inst, naive_four_cycle_program, listed)

    i, (r, src, dst, bits) = next(
        (i, m) for i, m in enumerate(joint.cut_messages) if m[1] in inst.side_a
    )
    flipped = ("1" if bits[0] == "0" else "0") + bits[1:]
    messages = list(joint.cut_messages)
    messages[i] = (r, src, dst, flipped)
    altered = dataclasses.replace(joint, cut_messages=tuple(messages))
    with pytest.raises(
        SplitReplayMismatch,
        match=rf"^program detect-four-cycle: node {src} sent \({r}, {dst}, '{bits}'\) "
        rf"across the cut where the joint run sent \({r}, {dst}, '{flipped}'\) in round {r}$",
    ):
        split_replay(inst, naive_four_cycle_program, altered)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_stock_programs_write_nothing_their_factory_closed_over(name):
    config = SimConfig(max_rounds=30)
    for seed, g, cut in stock_program_cases():
        program = flood_program(seed) if name == "flood" else PROGRAMS[name]()
        guarded_run(g, program, config, cut=cut)


PHASE_GRAPHS = {
    **GRAPH_SETS,
    # K20 and hub 20 with 11 member neighbors, heavy at n = 100.
    "heavy-gadget": lambda: [Graph(100, _clique_edges(range(20)) + [(i, 20) for i in range(11)])],
}


@pytest.mark.parametrize("name", sorted(PHASE_GRAPHS))
def test_phase_programs_write_nothing_their_factory_closed_over(name, monkeypatch):
    names = set()

    def guarded(g, program, config):
        names.add(program.name)
        return guarded_run(g, program, config)

    monkeypatch.setattr(diamond_congest, "run", guarded)
    for g in PHASE_GRAPHS[name]():
        list_induced_diamonds_congest(g)
    # Only the golden planted graph and the gadget have heavy vertices.
    heavy = name in ("golden-planted", "heavy-gadget")
    assert names == {"diamond-sparse", "diamond-light"} | ({"diamond-heavy"} if heavy else set())


@pytest.mark.parametrize("n, x, y", [(2, "1000", "0001"), (3, "100000000", "000000010")])
def test_the_guard_catches_the_leaky_program_where_the_replay_is_blind(n, x, y):
    inst = build_four_cycle_family(n, InputPair(x, y))
    assert not bits_intersect(x, y)
    joint = run(inst.graph, leaky_four_cycle_program(), cut=inst.cut_edges)
    split_replay(inst, leaky_four_cycle_program, joint)
    with pytest.raises(
        ClosureWrite, match=r"^program leaky-four-cycle: a node wrote 'seen' in its closure$"
    ):
        guarded_run(inst.graph, leaky_four_cycle_program(), cut=inst.cut_edges)


def test_the_guard_sees_a_write_through_a_helper_the_program_closes_over():
    # A sender that files each string it formats in a shared decoder, as
    # a codebook helper would: step reaches ``ids`` only through ``code``.
    ids: dict[str, int] = {}

    def code(u):
        ids[encode_uint(u, 2)] = u
        return encode_uint(u, 2)

    program = NodeProgram(
        "codebook", lambda v, neighbors, n: v, lambda v, r, inbox: (v, code(v), 0)
    )
    with pytest.raises(ClosureWrite, match=r"^program codebook: a node wrote 'ids' in its closure$"):
        guarded_run(Graph(3, [(0, 1), (1, 2)]), program)
