"""Induced versus non-induced cycles on the lab's own hard instances.

Every cycle-family input edge is added on a 1-bit, so the all-zero
instance is a subgraph of every instance with the same (n, k).  Once
n >= k, the all-zero instance already holds a k-cycle with chords (in
the a1 clique), so every instance holds one: the non-induced predicate
is constant on the family and needs no communication, while the induced
one is set disjointness.  networkx's ``simple_cycles`` is the
non-induced oracle; it is a test dependency only.

A small test-local detection program makes the contrast executable:
on disjoint c4 instances it answers Yes in a constant number of
rounds, where ``detect-four-cycle`` needs V = 4n.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from congestlab.bitstrings import ones, random_bits, random_nonintersecting_pair, zeros
from congestlab.congest import (
    NodeProgram,
    encode_uint,
    naive_four_cycle_program,
    run,
    word_bits,
)
from congestlab.families import InputPair, build_cycle_family, build_four_cycle_family
from congestlab.graphs import is_induced_cycle, norm_edge, random_graph


def _first_k_cycle(g, k: int) -> list[int]:
    nxg = nx.Graph(g.edges)
    nxg.add_nodes_from(g.vertices())
    return next(c for c in nx.simple_cycles(nxg, length_bound=k) if len(c) == k)


@pytest.mark.parametrize("k", range(4, 8))
def test_every_instance_at_n_equal_k_holds_a_non_induced_k_cycle(k):
    n = k
    bits = n * n
    zero = build_cycle_family(n, k, InputPair(zeros(bits), zeros(bits)))
    cycle = _first_k_cycle(zero.graph, k)
    assert not is_induced_cycle(zero.graph, cycle)
    cycle_edges = {norm_edge(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1])}
    assert cycle_edges <= zero.graph.edges

    rng = random.Random(k)
    pairs = [InputPair(ones(bits), ones(bits))]
    pairs += [InputPair(random_bits(bits, rng), random_bits(bits, rng)) for _ in range(8)]
    for pair in pairs:
        edges = build_cycle_family(n, k, pair).graph.edges
        assert zero.graph.edges <= edges, pair
        assert cycle_edges <= edges, pair



def _non_induced_four_cycle_program() -> NodeProgram:
    """Non-induced 4-cycle detection.  A test program, not the algorithm
    of Drucker, Kuhn and Oshman.

    Each node streams its sorted neighbour ids, one a round, as "0" +
    id.  A node v that hears one id t != v from two neighbours u1, u2
    sees the 4-cycle v, u1, t, u2 and decides 1, and each vertex of a
    4-cycle can see it this way.  A node that decides 1 sends the alarm
    "1" to every neighbour once and stops streaming; a node that hears
    an alarm decides 1.  Every stream is in by round V - 1, where a
    node still undecided decides 0, so a graph without a 4-cycle takes
    V rounds.
    """

    def init(v, neighbors, n):
        w = word_bits(n)
        stream = ["0" + encode_uint(u, w) for u in neighbors]
        return {"v": v, "last": n - 1, "stream": stream, "heard": set(), "output": None}

    def step(state, r, inbox):
        if state["output"] is not None:
            return state, [], state["output"]
        heard = state["heard"]
        for bits in inbox.values():
            t = int(bits[1:], 2) if bits != "1" else None
            if t is None or t in heard:
                state["output"] = 1
            elif t != state["v"]:
                heard.add(t)
        if state["output"] == 1:
            return state, "1", 1
        if r == state["last"]:
            state["output"] = 0
        stream = state["stream"]
        return state, stream[r] if r < len(stream) else [], state["output"]

    return NodeProgram(name="non-induced-four-cycle", init=init, step=step)


def _has_four_cycle(g) -> bool:
    nxg = nx.Graph(g.edges)
    nxg.add_nodes_from(g.vertices())
    return any(len(c) == 4 for c in nx.simple_cycles(nxg, length_bound=4))


def test_the_non_induced_detector_matches_simple_cycles():
    detector = _non_induced_four_cycle_program()
    seen = set()
    for n in range(4, 15):
        for seed in range(12):
            g = random_graph(n, (0.15, 0.3, 0.5)[seed % 3], random.Random(1000 * n + seed))
            stats = run(g, detector)
            expected = _has_four_cycle(g)
            assert stats.decision == int(expected), (n, seed)
            if not expected:
                assert stats.rounds_used == n
            seen.add(expected)
    assert seen == {False, True}


def test_non_induced_detection_takes_constant_rounds_on_c4_instances():
    # Every c4 instance holds the cliques a1 and b2, each a K_n with
    # n >= 4, so the non-induced answer is Yes whatever the inputs.  The
    # detector's runs here all end within five rounds, at every n; the
    # induced program answers No on disjoint inputs only in round V = 4n.
    detector = _non_induced_four_cycle_program()
    rng = random.Random(15)
    for n in (4, 8, 16):
        pairs = [InputPair(zeros(n * n), zeros(n * n))]
        pairs += [InputPair(*random_nonintersecting_pair(n * n, rng)) for _ in range(3)]
        for pair in pairs:
            g = build_four_cycle_family(n, pair).graph
            fast = run(g, detector)
            assert fast.decision == 1 and fast.rounds_used <= 5, (n, pair)
            slow = run(g, naive_four_cycle_program())
            assert slow.decision == 0 and slow.rounds_used == g.n == 4 * n, (n, pair)
