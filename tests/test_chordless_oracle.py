"""A third cycle oracle: networkx's chordless-cycle enumeration.

The naive subset scan is exact but only reaches small graphs, and the
two-party side listers run the pruned search with a quota, so a defect
shared by the search and its quota path would pass a comparison of the
two.  ``networkx.chordless_cycles`` finds induced cycles by an unrelated
algorithm.  networkx is a test dependency only; the package never
imports it.
"""

from __future__ import annotations

import random

import networkx as nx

from congestlab.graphs import list_induced_cycles, random_graph
from congestlab.twoparty import cycle_listing_protocol


def _criterion_08_graphs(max_n: int):
    """Criterion 08's seeded graphs and splits, those with n <= max_n."""
    rng = random.Random("cycle-protocol-battery")
    for i in range(30):
        density = (0.05, 0.15, 0.3)[i % 3]
        n = rng.randint(12, 60)
        g = random_graph(n, density, rng)
        side = frozenset(rng.sample(range(n), n // 2))
        if n <= max_n:
            yield g, side


def test_pruned_search_and_side_listings_match_chordless_cycles():
    graphs = 0
    for g, side in _criterion_08_graphs(max_n=48):
        graphs += 1
        nxg = nx.Graph()
        nxg.add_nodes_from(g.vertices())
        nxg.add_edges_from(g.edges)
        by_length: dict[int, list[tuple[int, ...]]] = {k: [] for k in range(3, 8)}
        for cycle in nx.chordless_cycles(nxg, length_bound=7):
            by_length[len(cycle)].append(tuple(sorted(cycle)))
        for k, cycles in by_length.items():
            expected = sorted(cycles)
            assert list_induced_cycles(g, k) == expected, (g, k)
            assert list(cycle_listing_protocol(g, side, k).all_listed) == expected, (g, k)
    assert graphs == 21
