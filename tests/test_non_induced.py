"""Induced versus non-induced cycles on the lab's own hard instances.

Every cycle-family input edge is added on a 1-bit, so the all-zero
instance is a subgraph of every instance with the same (n, k).  Once
n >= k, the all-zero instance already holds a k-cycle with chords (in
the a1 clique), so every instance holds one: the non-induced predicate
is constant on the family and needs no communication, while the induced
one is set disjointness.  networkx's ``simple_cycles`` is the
non-induced oracle; it is a test dependency only.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from congestlab.bitstrings import ones, random_bits, zeros
from congestlab.families import InputPair, build_cycle_family
from congestlab.graphs import is_induced_cycle, norm_edge


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
