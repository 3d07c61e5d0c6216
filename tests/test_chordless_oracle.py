"""Third oracles for cycles and diamonds, from networkx.

The naive subset scan is exact but only reaches small graphs, and the
two-party side listers run the pruned search with a quota, so a defect
shared by the search and its quota path would pass a comparison of the
two.  ``networkx.chordless_cycles`` finds induced cycles by an unrelated
algorithm, and networkx's VF2 matcher finds induced diamonds as
node-induced subgraph isomorphisms.  networkx is a test dependency only;
the package never imports it.
"""

from __future__ import annotations

import random

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from congestlab.graphs import list_induced_cycles, list_induced_diamonds, random_graph
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
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        by_length: dict[int, list[tuple[int, ...]]] = {k: [] for k in range(3, 8)}
        for cycle in nx.chordless_cycles(nxg, length_bound=7):
            by_length[len(cycle)].append(tuple(sorted(cycle)))
        for k, cycles in by_length.items():
            expected = sorted(cycles)
            assert list_induced_cycles(g, k) == expected, (g, k)
            assert list(cycle_listing_protocol(g, side, k).all_listed) == expected, (g, k)
    assert graphs == 21


def test_pruned_diamond_search_and_its_quota_forms_match_vf2():
    # VF2's subgraph isomorphisms are node-induced, and each diamond
    # shows up once per automorphism, so the vertex sets are deduped.
    # VF2 is slow past n = 16, so the graphs stay small.
    diamond = nx.Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    rng = random.Random("diamond-vf2")
    listed = 0
    for _ in range(30):
        n = rng.randint(6, 16)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.7]), rng)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        matches = GraphMatcher(nxg, diamond).subgraph_isomorphisms_iter()
        expected = sorted({tuple(sorted(m)) for m in matches})
        assert list_induced_diamonds(g) == expected, g
        listed += len(expected)
        own = frozenset(rng.sample(range(n), n // 2))
        for need in range(1, 5):
            assert list_induced_diamonds(g, quota=(own, need)) == [
                d for d in expected if len(own.intersection(d)) >= need
            ], (g, need)
    assert listed == 1811
