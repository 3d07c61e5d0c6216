"""Tests for the peeling decomposition and the distributed diamond listing."""

from __future__ import annotations

import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_sim import reference_run
from test_golden_outputs import planted_graph, sparse_graph

from congestlab import diamond_congest
from congestlab.congest import PROGRAMS, NodeProgram, SimConfig, flood_program, run
from congestlab.diamond_congest import (
    coverage_tags,
    decompose_by_peeling,
    frac_pow_ceil,
    frac_pow_floor,
    list_induced_diamonds_congest,
    min_peel_degree,
    run_heavy_phase,
    run_light_phase,
    run_sparse_phase,
)
from congestlab.diamond_family import build_diamond_family, build_diamond_fixture
from congestlab.families import InputPair
from congestlab.graphs import (
    Graph,
    is_induced_diamond,
    list_induced_diamonds,
    list_induced_diamonds_naive,
    random_graph,
)

PROPERTY_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HALF = Fraction(1, 2)
FIVE_SIXTHS = Fraction(5, 6)


def _clique_edges(ids) -> list[tuple[int, int]]:
    ids = list(ids)
    return [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]


class TestExactPowers:
    def test_floor_and_ceil_agree_on_exact_powers(self):
        assert frac_pow_floor(64, FIVE_SIXTHS) == 32
        assert frac_pow_ceil(64, FIVE_SIXTHS) == 32
        assert frac_pow_floor(16, HALF) == frac_pow_ceil(16, HALF) == 4

    def test_ceil_rounds_up_between_powers(self):
        assert frac_pow_floor(2, HALF) == 1
        assert frac_pow_ceil(2, HALF) == 2
        assert frac_pow_floor(17, HALF) == 4
        assert frac_pow_ceil(17, HALF) == 5

    def test_float_exponents_are_rejected(self):
        with pytest.raises(TypeError):
            frac_pow_floor(64, 0.5)
        with pytest.raises(TypeError):
            frac_pow_ceil(64, 0.5)

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(min_value=0, max_value=3000),
        p=st.integers(min_value=1, max_value=7),
        q=st.integers(min_value=1, max_value=7),
    )
    def test_floor_is_the_exact_integer_root_bound(self, n: int, p: int, q: int):
        f = frac_pow_floor(n, Fraction(p, q))
        assert f**q <= n**p
        assert (f + 1) ** q > n**p

    def test_min_peel_degree_frozen_values(self):
        assert min_peel_degree(64, FIVE_SIXTHS, 4) == 8
        assert min_peel_degree(96, FIVE_SIXTHS, 4) == 12
        assert min_peel_degree(128, FIVE_SIXTHS, 4) == 15
        assert min_peel_degree(4, FIVE_SIXTHS, 4) == 2
        # delta > 1: capped at n + 1, so every vertex peels.
        assert min_peel_degree(10, Fraction(2), 4) == 11

    def test_min_peel_degree_rejects_a_nonpositive_constant(self):
        with pytest.raises(ValueError):
            min_peel_degree(64, FIVE_SIXTHS, 0)


class TestDecomposition:
    def test_empty_graph_peels_everything(self):
        dec = decompose_by_peeling(Graph(5, []))
        assert dec.clusters == ()
        assert sorted(dec.es_assigned) == [0, 1, 2, 3, 4]
        assert dec.es_edges() == frozenset()

    def test_two_cliques_become_two_clusters_with_no_sparse_edges(self):
        g = Graph(24, _clique_edges(range(12)) + _clique_edges(range(12, 24)))
        dec = decompose_by_peeling(g)
        assert len(dec.clusters) == 2
        assert dec.es_edges() == frozenset()
        assert dec.em_edges() == g.edges
        assert dec.validate(g) == []

    def test_low_degree_fringe_is_assigned_its_residual_edges(self):
        # A pendant path hanging off a clique peels from the far end.
        g = Graph(14, _clique_edges(range(12)) + [(11, 12), (12, 13)])
        dec = decompose_by_peeling(g)
        assert set(dec.es_assigned) == {12, 13}
        assert dec.es_edges() == frozenset({(11, 12), (12, 13)})
        assert dec.validate(g) == []

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(min_value=1, max_value=40),
        density=st.sampled_from([0.05, 0.15, 0.4]),
        seed=st.integers(0, 100),
    )
    def test_validate_passes_on_random_graphs(self, n, density, seed):
        g = random_graph(n, density, random.Random(seed))
        dec = decompose_by_peeling(g)
        assert dec.validate(g) == []

    @pytest.mark.parametrize(
        "exponents, named",
        [
            ({"delta": Fraction(100000)}, "delta"),
            ({"delta": Fraction(-1)}, "delta"),
            ({"epsilon": Fraction(9, 4)}, "epsilon"),
            ({"epsilon": Fraction(100000)}, "epsilon"),
            # Inside the range, but the exact powers would take minutes.
            ({"delta": Fraction(1, 1001)}, "delta"),
            ({"epsilon": Fraction(1, 10**7)}, "epsilon"),
        ],
    )
    def test_an_exponent_outside_zero_to_two_is_refused(self, exponents, named):
        value = exponents[named]
        if 0 <= value <= 2:
            rule = "must have a denominator of at most 1000"
        else:
            rule = r"must be in \[0, 2\]"
        with pytest.raises(ValueError, match=f"^{named} {rule}, got {value}$"):
            decompose_by_peeling(Graph(4, [(0, 1)]), **exponents)

    def test_exponents_with_a_common_denominator_above_1000_are_refused(self):
        # The heavy phase charges n^(2 - delta - epsilon), whose denominator
        # is the lcm of the two, 997000 here.
        rule = "delta and epsilon must have a common denominator of at most 1000"
        with pytest.raises(ValueError, match=f"^{rule}, got 833/1000 and 499/997$"):
            decompose_by_peeling(
                Graph(4, [(0, 1)]), delta=Fraction(833, 1000), epsilon=Fraction(499, 997)
            )

    def test_an_exponent_with_a_denominator_of_1000_is_accepted(self):
        dec = decompose_by_peeling(
            Graph(4, [(0, 1)]), delta=Fraction(999, 1000), epsilon=Fraction(1, 1000)
        )
        assert (dec.delta, dec.epsilon) == (Fraction(999, 1000), Fraction(1, 1000))

    def test_membership_maps_match_the_clusters(self):
        g = Graph(14, _clique_edges(range(12)) + [(11, 12), (12, 13)])
        dec = decompose_by_peeling(g)
        leaders = _leader_map(dec)
        for c in dec.clusters:
            for v in c.members:
                assert dec.cluster_index[v] is not None
                assert leaders[v] == min(c.members)
        assert dec.cluster_index[13] is None
        assert leaders[13] is None
        assert set(dec.cluster_index) == set(range(g.n))


def _one_cluster_with_a_fringe():
    """K10 on 0..9 (the cluster at delta 5/6, constant 1, so d_min 9),
    vertex 10 peeled with its 7 edges into the clique, and the edge
    11-12 assigned to 11."""
    g = Graph(13, _clique_edges(range(10)) + [(v, 10) for v in range(7)] + [(11, 12)])
    return g, decompose_by_peeling(g, FIVE_SIXTHS, 1)


# Each planted fault, as the fields it replaces in the valid peel above,
# and a violation message it must produce.
PLANTED_FAULTS = {
    "sparse-and-member": (
        lambda dec: {"es_assigned": {**dec.es_assigned, 11: ((11, 12), (0, 1))}},
        "1 edges are both sparse and member",
    ),
    "uncovered-edge": (
        lambda dec: {"es_assigned": {**dec.es_assigned, 11: ()}},
        "sparse+member edges do not cover the graph",
    ),
    "edge-assigned-twice": (
        lambda dec: {"es_assigned": {**dec.es_assigned, 12: ((11, 12),)}},
        "an edge is assigned to more than one vertex",
    ),
    "assigned-at-d-min": (
        lambda dec: {"d_min": 1},
        "vertex 10 was assigned 7 >= d_min edges",
    ),
    "over-the-cap": (
        lambda dec: {"delta": Fraction(0)},
        "vertex 10 exceeds the assigned-edge cap",
    ),
    "overlapping-clusters": (
        lambda dec: {"clusters": (*dec.clusters, replace(dec.clusters[0], index=1))},
        "cluster 1 overlaps another cluster",
    ),
    "leader-not-minimum": (
        lambda dec: {"clusters": (replace(dec.clusters[0], leader=5),)},
        "cluster 0 leader is not the minimum member",
    ),
    "member-below-d-min": (
        lambda dec: {"d_min": 10},
        "member 0 has in-cluster degree 9 < 10",
    ),
    "edge-between-clusters": (
        lambda dec: {"cluster_index": {**dec.cluster_index, 9: 1}},
        "edge (0,9) joins two different clusters",
    ),
    # With no cluster listed, cluster_index alone still names two.
    "edge-between-unlisted-clusters": (
        lambda dec: {"clusters": (), "cluster_index": {**dec.cluster_index, 9: 1}},
        "edge (0,9) joins two different clusters",
    ),
    "peel-order-short": (
        lambda dec: {"es_assigned": dict([*dec.es_assigned.items()][:-1])},
        "peel order disagrees with cluster membership",
    ),
}


class TestPlantedDecompositionFaults:
    def test_the_unplanted_peel_is_valid(self):
        g, dec = _one_cluster_with_a_fringe()
        assert (dec.d_min, tuple(dec.es_assigned)) == (9, (10, 11, 12))
        assert dec.validate(g) == []

    @pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
    def test_each_fault_is_named(self, fault):
        fields, message = PLANTED_FAULTS[fault]
        g, dec = _one_cluster_with_a_fringe()
        assert message in replace(dec, **fields(dec)).validate(g)

    @pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
    def test_the_full_listing_refuses_a_faulty_peel(self, fault, monkeypatch):
        fields, message = PLANTED_FAULTS[fault]
        g, dec = _one_cluster_with_a_fringe()
        bad = replace(dec, **fields(dec))
        monkeypatch.setattr(diamond_congest, "decompose_by_peeling", lambda *a: bad)
        with pytest.raises(AssertionError, match=re.escape(message)):
            list_induced_diamonds_congest(g)


def _leader_map(dec) -> dict[int, int | None]:
    """Each vertex's cluster leader (None when peeled), from cluster_index."""
    return {
        v: (None if ci is None else dec.clusters[ci].leader)
        for v, ci in dec.cluster_index.items()
    }


def _reference_peel(g: Graph, d_min: int):
    """The definition of the peel: repeatedly take the smallest active
    vertex whose remaining degree is below d_min, assign it the edges
    it still has, and cluster the survivors by connected component."""
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    active = set(range(g.n))
    order: list[int] = []
    assigned: dict[int, tuple[tuple[int, int], ...]] = {}
    while True:
        peelable = [v for v in sorted(active) if len(adj[v]) < d_min]
        if not peelable:
            break
        v = peelable[0]
        assigned[v] = tuple(sorted((min(v, u), max(v, u)) for u in adj[v]))
        for u in adj[v]:
            adj[u].discard(v)
        adj[v] = set()
        active.discard(v)
        order.append(v)
    clusters: list[list[int]] = []
    seen: set[int] = set()
    for start in sorted(active):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for u in adj[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        clusters.append(sorted(comp))
    leaders = {v: None for v in range(g.n)}
    for comp in clusters:
        for v in comp:
            leaders[v] = comp[0]
    return tuple(order), assigned, clusters, leaders


class TestPeelOrderPin:
    """The heap peeler against the rescanning definition it replaced."""

    @staticmethod
    def _assert_matches_reference(g: Graph, delta=FIVE_SIXTHS, constant=4):
        dec = decompose_by_peeling(g, delta, constant)
        order, assigned, clusters, leaders = _reference_peel(g, dec.d_min)
        assert tuple(dec.es_assigned) == order
        assert dec.es_assigned == assigned
        assert [sorted(c.members) for c in dec.clusters] == clusters
        assert _leader_map(dec) == leaders

    def test_seeded_random_graphs(self):
        rng = random.Random(2024)
        for i in range(36):
            n = rng.randint(1, 300)
            p = rng.choice([0.01, 0.03, 0.08, 0.2, 0.4])
            g = random_graph(n, p, random.Random(i))
            for delta, constant in ((FIVE_SIXTHS, 4), (HALF, 1), (Fraction(2, 3), 2)):
                self._assert_matches_reference(g, delta, constant)

    def test_planted_diamond_family_graphs(self):
        for n, seed in ((16, 0), (16, 3), (64, 1)):
            fx = build_diamond_fixture(n, seed)
            rng = random.Random(seed)
            for _ in range(3):
                x = "".join(rng.choice("01") for _ in range(fx.bit_count))
                y = "".join(rng.choice("01") for _ in range(fx.bit_count))
                g = build_diamond_family(fx, InputPair(x, y)).graph
                self._assert_matches_reference(g)
                self._assert_matches_reference(g, HALF, 1)

    def test_delta_above_one_peels_everything(self):
        g = random_graph(80, 0.3, random.Random(5))
        dec = decompose_by_peeling(g, Fraction(2), 4)
        assert dec.clusters == () and len(dec.es_assigned) == g.n
        self._assert_matches_reference(g, Fraction(2), 4)

    def test_empty_graph(self):
        dec = decompose_by_peeling(Graph(0, []))
        assert dec.es_assigned == {} and dec.clusters == ()
        self._assert_matches_reference(Graph(0, []))


def _seeded_random_graphs():
    rng = random.Random(31)
    for i in range(12):
        n = rng.randint(10, 80)
        yield random_graph(n, rng.choice([0.05, 0.1, 0.2, 0.35]), random.Random(i))


def _dense_blocks_with_a_sparse_fringe():
    """A G(k, 0.6) block survives peeling as a cluster that is not a
    clique, so a fringe vertex's two wings can be non-adjacent
    co-members, which the spine rule must leave to the wings."""
    for i in range(8):
        rng = random.Random(100 + i)
        k, fringe = rng.randint(14, 24), rng.randint(20, 50)
        edges = [e for e in combinations(range(k), 2) if rng.random() < 0.6]
        edges += [
            (a, b)
            for a, b in combinations(range(k + fringe), 2)
            if b >= k and rng.random() < 0.12
        ]
        yield Graph(k + fringe, edges)


def _planted_diamond_family_graphs():
    for n, seed in ((16, 0), (16, 3), (64, 1)):
        fx = build_diamond_fixture(n, seed)
        rng = random.Random(seed)
        for _ in range(2):
            x = "".join(rng.choice("01") for _ in range(fx.bit_count))
            y = "".join(rng.choice("01") for _ in range(fx.bit_count))
            yield build_diamond_family(fx, InputPair(x, y)).graph


GRAPH_SETS = {
    "seeded-random": _seeded_random_graphs,
    "dense-blocks": _dense_blocks_with_a_sparse_fringe,
    "planted-family": _planted_diamond_family_graphs,
    "golden-planted": lambda: [planted_graph()],
    "golden-sparse": lambda: [sparse_graph()],
}


class TestSparsePhase:
    """The sparse phase lists exactly the diamonds whose present pairs
    (five edges) are all sparse edges of the decomposition."""

    @staticmethod
    def _all_sparse_count(g: Graph) -> int:
        dec = decompose_by_peeling(g)
        es = dec.es_edges()
        expected = {
            d
            for d in list_induced_diamonds(g)
            if all(e in es for e in combinations(d, 2) if e in g.edges)
        }
        assert run_sparse_phase(g, dec)[0] == expected
        return len(expected)

    def test_seeded_random_graphs(self):
        assert sum(map(self._all_sparse_count, _seeded_random_graphs())) > 0

    def test_dense_blocks_with_a_sparse_fringe(self):
        assert sum(map(self._all_sparse_count, _dense_blocks_with_a_sparse_fringe())) > 0

    def test_planted_diamond_family_graphs(self):
        assert sum(map(self._all_sparse_count, _planted_diamond_family_graphs())) > 0

    @pytest.mark.parametrize("name", sorted(GRAPH_SETS))
    def test_warm_start_knowledge_is_the_closed_neighbourhood_edges(self, name):
        # Node v knows the sparse edges assigned to v or to a neighbour,
        # filed under each endpoint in N[v] and under no other key.
        for g in GRAPH_SETS[name]():
            dec = decompose_by_peeling(g)
            listings = run_sparse_phase(g, dec)[1].listings
            for v in range(g.n):
                closed = g.adj[v] | {v}
                known = [e for u in closed for e in dec.es_assigned.get(u, ())]
                es_adj = listings[v]["es_adj"]
                assert es_adj.keys() == closed
                for x in closed:
                    assert es_adj[x] == {b if a == x else a for a, b in known if x in (a, b)}


def _multi_cluster_graphs():
    """Two or three dense blocks that each survive peeling as a cluster,
    and fringe vertices that peel: some with light_max + 1 neighbors in
    one block (heavy for it), the rest with one to three neighbors in
    each of two blocks (light for both)."""
    for i in range(8):
        rng = random.Random(700 + i)
        n = rng.randint(100, 160)
        d_min = min_peel_degree(n, FIVE_SIXTHS, 4)
        light_max = frac_pow_floor(n, HALF)
        edges, blocks, start = [], [], 0
        for _ in range(rng.randint(2, 3)):
            k = rng.randint(d_min + 6, d_min + 10)
            edges += [
                (start + a, start + b)
                for a, b in combinations(range(k), 2)
                if rng.random() < 0.9
            ]
            blocks.append(range(start, start + k))
            start += k
        for f in range(start, n):
            if rng.random() < 0.3:
                block = blocks[rng.randrange(len(blocks))]
                edges += [(u, f) for u in rng.sample(block, light_max + 1)]
            else:
                for block in rng.sample(blocks, 2):
                    edges += [(u, f) for u in rng.sample(block, rng.randint(1, 3))]
        yield Graph(n, edges)


def _sorted_walk_split(g: Graph, dec) -> tuple[dict, dict]:
    """The heavy/light split as a per-vertex loop over sorted adjacency,
    run for every vertex whether or not a cluster exists."""
    heavy: dict[int, dict[int, list[int]]] = {c.index: {} for c in dec.clusters}
    light: dict[int, dict[int, list[int]]] = {c.index: {} for c in dec.clusters}
    for v in range(g.n):
        by_cluster: dict[int, list[int]] = {}
        for u in sorted(g.adj[v]):
            cu = dec.cluster_index[u]
            if cu is not None and cu != dec.cluster_index[v]:
                by_cluster.setdefault(cu, []).append(u)
        for ci, members in by_cluster.items():
            (heavy if len(members) > dec.light_max else light)[ci][v] = members
    return heavy, light


class TestHeavyLightSplit:
    def test_the_split_equals_the_sorted_per_vertex_walk(self):
        graphs = [g for make in GRAPH_SETS.values() for g in make()]
        multi = list(_multi_cluster_graphs())
        for g in graphs + multi:
            dec = decompose_by_peeling(g)
            for ours, ref in zip((dec.heavy, dec.light), _sorted_walk_split(g, dec)):
                # Same keys, member lists and insertion order, per cluster.
                assert list(ours) == list(ref)
                for ci in ref:
                    assert list(ours[ci].items()) == list(ref[ci].items())
        split = [decompose_by_peeling(g) for g in multi]
        assert all(len(dec.clusters) >= 2 for dec in split)
        assert all(any(dec.heavy.values()) and any(dec.light.values()) for dec in split)

    def test_hub_classification_by_member_degree(self):
        # Cluster K20; vertex 20 has 11 member neighbors, above
        # sqrt(100) = 10, so it is heavy; a vertex with one member
        # neighbor would be light.
        edges = _clique_edges(range(20)) + [(i, 20) for i in range(11)]
        g = Graph(100, edges)
        dec = decompose_by_peeling(g)
        assert [len(c.members) for c in dec.clusters] == [20]
        assert dec.light_max == 10
        assert set(dec.heavy[0]) == {20}
        assert 20 not in dec.light[0]
        # With epsilon = 11/20 the bound is floor(100^(11/20)) = 12, so
        # the same hub is light.
        dec = decompose_by_peeling(g, epsilon=Fraction(11, 20))
        assert dec.light_max == 12
        assert dec.heavy[0] == {}
        assert dec.light[0] == {20: list(range(11))}

    def test_light_map_needs_at_least_one_member_neighbor(self):
        g = Graph(26, _clique_edges(range(24)) + [(0, 24)])
        dec = decompose_by_peeling(g)
        assert 24 in dec.light[0]
        assert 25 not in dec.light[0]


class TestPhasesOnHandGadgets:
    def _light_gadget(self):
        # K12 cluster; vertex 12 sees members {0, 1} and vertex 13,
        # vertex 13 sees member 0 and vertex 12.  Both peel, both are
        # light, and {0, 1, 12, 13} is a diamond whose missing pair is
        # (1, 13).
        edges = _clique_edges(range(12)) + [(0, 12), (1, 12), (12, 13), (0, 13)]
        return Graph(14, edges)

    def test_light_gadget_decomposition(self):
        g = self._light_gadget()
        dec = decompose_by_peeling(g)
        assert dec.d_min == 3
        assert tuple(dec.es_assigned) == (13, 12)
        assert [sorted(c.members) for c in dec.clusters] == [list(range(12))]
        assert dec.validate(g) == []

    def test_light_phase_lists_the_gadget_diamonds(self):
        g = self._light_gadget()
        dec = decompose_by_peeling(g)
        oracle = sorted(list_induced_diamonds_naive(g))
        assert len(oracle) == 11
        sparse_found, sparse_stats = run_sparse_phase(g, dec)
        heavy_found, _, _ = run_heavy_phase(g, dec)
        light_found, _, acct = run_light_phase(
            g, dec, warm=dict(sparse_stats.listings)
        )
        assert sparse_found == set()
        assert heavy_found == set()
        assert sorted(light_found) == oracle
        assert (0, 1, 12, 13) in light_found
        assert acct["pair_rule_found"] == 1
        assert acct["reconcile_found"] == 10
        assert acct["query_len_max"] <= acct["query_len_cap"]

    def test_light_gadget_coverage_tags(self):
        g = self._light_gadget()
        dec = decompose_by_peeling(g)
        tags = coverage_tags(g, dec, tuple(list_induced_diamonds(g)))
        assert tags[(0, 1, 12, 13)] == "light-pair-present"
        counts: dict[str, int] = {}
        for t in tags.values():
            counts[t] = counts.get(t, 0) + 1
        assert counts == {"light-pair-present": 1, "light-reconcile": 10}

    def test_heavy_gadget_routes_through_the_heavy_hub(self):
        edges = _clique_edges(range(20)) + [(i, 20) for i in range(11)]
        g = Graph(100, edges)
        dec = decompose_by_peeling(g)
        oracle = sorted(list_induced_diamonds(g))
        assert len(oracle) == 495
        sparse_found, sparse_stats = run_sparse_phase(g, dec)
        heavy_found, heavy_stats, acct = run_heavy_phase(g, dec)
        light_found, _, _ = run_light_phase(g, dec, warm=dict(sparse_stats.listings))
        assert sparse_found == set() and light_found == set()
        assert sorted(heavy_found) == oracle
        assert acct["engaged_clusters"] == 1
        assert acct["gathered_entries_max"] <= acct["gathered_entries_cap"]
        assert heavy_stats is not None and heavy_stats.message_count > 0
        tags = coverage_tags(g, dec, tuple(list_induced_diamonds(g)))
        assert set(tags.values()) == {"heavy"}

    def test_heavy_phase_leaves_all_sparse_hub_diamonds_to_the_sparse_phase(self):
        # A G(40, 0.9) block and two adjacent hubs 40, 41 with six block
        # neighbors each (heavy: light_max = 4 at epsilon = 1/3), both
        # joined to the non-adjacent non-members 42 and 43.  The heavy
        # knowledge graph holds the diamond {40, 41, 42, 43}, whose five
        # edges are all sparse; only the member-edge filter keeps the
        # heavy phase from listing it a second time.
        rng = random.Random(0)
        edges = [e for e in combinations(range(40), 2) if rng.random() < 0.9]
        edges.append((40, 41))
        for hub in (40, 41):
            edges += [(m, hub) for m in rng.sample(range(40), 6)]
            edges += [(hub, 42), (hub, 43)]
        edges += [
            e for e in combinations(range(42, 100), 2)
            if e != (42, 43) and rng.random() < 0.04
        ]
        g = Graph(100, edges)
        found, stats = list_induced_diamonds_congest(
            g, epsilon=Fraction(1, 3), with_coverage=True
        )
        assert (stats.light_max, stats.d_min, stats.cluster_sizes) == (4, 12, (40,))
        assert stats.heavy_engaged_clusters == 1
        assert list(found) == list_induced_diamonds(g)
        assert (40, 41, 42, 43) in found
        counts = stats.coverage_counts
        assert (counts["sparse"], counts["heavy"]) == (stats.sparse_found, stats.heavy_found)
        assert stats.light_found == sum(
            v for k, v in counts.items() if k.startswith("light-")
        )

    def test_heavy_phase_is_silent_without_heavy_vertices(self):
        g = self._light_gadget()
        dec = decompose_by_peeling(g)
        found, stats, acct = run_heavy_phase(g, dec)
        assert found == set()
        assert stats is None
        assert acct["engaged_clusters"] == 0


def _tags_from_edge_sets(g: Graph, dec, diamonds) -> dict[tuple[int, ...], str]:
    """The tag rule written from edge sets: a diamond's member edges are
    its edges that are not sparse, and its cluster is that of the first
    endpoint of the smallest member edge."""
    es = dec.es_edges()
    tags = {}
    for d in diamonds:
        em = {e for e in combinations(d, 2) if e in g.edges} - es
        if not em:
            tags[d] = "sparse"
            continue
        ci = dec.cluster_index[min(em)[0]]
        outside = set(d) - dec.clusters[ci].members
        if any(v in dec.heavy[ci] for v in d):
            tags[d] = "heavy"
        elif len(outside) <= 1:
            tags[d] = "light-reconcile"
        elif g.has_edge(*outside):
            tags[d] = "light-pair-present"
        else:
            tags[d] = "light-pair-absent"
    return tags


class TestCoverageTags:
    def test_cluster_index_rule_matches_the_edge_set_rule(self):
        seen: set[str] = set()
        for name in sorted(GRAPH_SETS):
            for g in GRAPH_SETS[name]():
                dec = decompose_by_peeling(g)
                diamonds = tuple(list_induced_diamonds(g))
                tags = coverage_tags(g, dec, diamonds)
                assert tags == _tags_from_edge_sets(g, dec, diamonds), name
                seen |= set(tags.values())
        assert seen == {
            "sparse",
            "heavy",
            "light-reconcile",
            "light-pair-present",
            "light-pair-absent",
        }


class TestPhasesAgainstTheNaiveTwin:
    """Each phase program run on ``reference_sim`` yields the same
    listings and every ``RunStats`` field the engine does."""

    @staticmethod
    def _phases(g: Graph):
        dec = decompose_by_peeling(g)
        sparse = run_sparse_phase(g, dec)
        heavy = run_heavy_phase(g, dec)
        light = run_light_phase(g, dec, warm=sparse[1].listings)
        return sparse, heavy, light

    @pytest.mark.parametrize("name", sorted(GRAPH_SETS))
    def test_phases_match_the_twin(self, name, monkeypatch):
        twin_runs = []

        def twin(*args, **kwargs):
            twin_runs.append(args[1].name)
            return reference_run(*args, **kwargs)

        engaged = 0
        for g in GRAPH_SETS[name]():
            engine = self._phases(g)
            with monkeypatch.context() as patch:
                patch.setattr(diamond_congest, "run", twin)
                twin_out = self._phases(g)
            for phase, ours, theirs in zip(("sparse", "heavy", "light"), engine, twin_out):
                assert ours == theirs, phase
            engaged += engine[1][1] is not None
        assert set(twin_runs) >= {"diamond-sparse", "diamond-light"}
        assert ("diamond-heavy" in twin_runs) == (engaged > 0)


class TestPhaseOverrun:
    """A phase run that outlasts its round schedule raises, naming its
    program.  Each run is cut to one round, well short of any schedule;
    the light phase warms up on an uncut sparse run."""

    PHASES = {
        "diamond-sparse": lambda g, dec, warm: run_sparse_phase(g, dec),
        "diamond-heavy": lambda g, dec, warm: run_heavy_phase(g, dec),
        "diamond-light": lambda g, dec, warm: run_light_phase(g, dec, warm=warm),
    }

    @pytest.mark.parametrize("name", sorted(PHASES))
    def test_the_phase_names_its_program_when_it_overruns(self, name, monkeypatch):
        # K20 and hub 20 with 11 member neighbors, heavy at n = 100.
        g = Graph(100, _clique_edges(range(20)) + [(i, 20) for i in range(11)])
        dec = decompose_by_peeling(g)
        assert dec.heavy[0]
        warm = run_sparse_phase(g, dec)[1].listings
        monkeypatch.setattr(
            diamond_congest,
            "run",
            lambda g, program, config: run(g, program, SimConfig(max_rounds=1)),
        )
        with pytest.raises(RuntimeError, match=f"^{name} exceeded its round schedule$"):
            self.PHASES[name](g, dec, warm)


class TestBroadcastsUseTheStringForm:
    """A step that sends one payload object to every neighbor returns it
    as one string, which the engine delivers without building or
    checking a pair per edge.  The guard wraps each program's step and
    records every list outbox that is such a broadcast."""

    @staticmethod
    def _guarded(program: NodeProgram, listed: list) -> NodeProgram:
        def init(v, neighbors, n):
            return v, neighbors, program.init(v, neighbors, n)

        def step(wrapped, r, inbox):
            v, neighbors, state = wrapped
            state, outbox, out = program.step(state, r, inbox)
            if (
                outbox
                and not isinstance(outbox, str)
                and sorted(dst for dst, _ in outbox) == list(neighbors)
                and all(bits is outbox[0][1] for _, bits in outbox)
            ):
                listed.append((program.name, v, r))
            return (v, neighbors, state), outbox, out

        collect = program.collect
        return replace(
            program,
            init=init,
            step=step,
            collect=None if collect is None else (lambda wrapped: collect(wrapped[2])),
        )

    def test_the_guard_catches_a_listed_broadcast(self):
        listed: list = []
        shout = NodeProgram(
            name="shout",
            init=lambda v, neighbors, n: neighbors,
            step=lambda nbrs, r, inbox: (nbrs, [(u, "1") for u in nbrs], 0),
        )
        run(Graph(3, [(0, 1), (1, 2)]), self._guarded(shout, listed))
        assert listed == [("shout", 0, 0), ("shout", 1, 0), ("shout", 2, 0)]

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_stock_programs_broadcast_strings(self, name):
        listed: list = []
        for seed in range(4):
            g = random_graph(10 + seed, 0.15 + 0.05 * seed, random.Random(seed))
            program = flood_program(seed) if name == "flood" else PROGRAMS[name]()
            run(g, self._guarded(program, listed), SimConfig(max_rounds=30))
        assert listed == []

    def test_phase_programs_broadcast_strings(self, monkeypatch):
        listed: list = []
        names = set()

        def guarded_run(g, program, *args, **kwargs):
            names.add(program.name)
            return run(g, self._guarded(program, listed), *args, **kwargs)

        monkeypatch.setattr(diamond_congest, "run", guarded_run)
        for graphs in GRAPH_SETS.values():
            for g in graphs():
                list_induced_diamonds_congest(g)
        assert listed == []
        # The golden planted graph is the one that engages the heavy phase.
        assert names == {"diamond-sparse", "diamond-heavy", "diamond-light"}


class TestFullListing:
    def test_matches_the_oracle_on_seeded_random_graphs(self):
        rng = random.Random(17)
        for _ in range(6):
            n = rng.randint(20, 48)
            g = random_graph(n, rng.choice([0.08, 0.2]), rng)
            found, stats = list_induced_diamonds_congest(g, with_coverage=True)
            assert list(found) == sorted(list_induced_diamonds_naive(g))
            assert stats.total_found == len(found)
            assert sum(stats.coverage_counts.values()) == len(found)

    def test_every_emitted_subset_is_an_induced_diamond(self):
        g = random_graph(40, 0.25, random.Random(23))
        found, _ = list_induced_diamonds_congest(g)
        for d in found:
            assert is_induced_diamond(g, d)

    def test_triangle_free_graphs_yield_nothing(self):
        g = Graph(12, [(i, (i + 1) % 12) for i in range(12)])
        found, stats = list_induced_diamonds_congest(g)
        assert found == ()
        assert stats.total_found == 0

    def test_stats_serialization_is_deterministic(self):
        g = random_graph(36, 0.15, random.Random(4))
        _, a = list_induced_diamonds_congest(g, with_coverage=True)
        _, b = list_induced_diamonds_congest(g, with_coverage=True)
        assert a.to_json_bytes() == b.to_json_bytes()

    def test_observed_caps_are_respected(self):
        g = random_graph(64, 0.3, random.Random(8))
        _, stats = list_induced_diamonds_congest(g)
        assert stats.gathered_entries_max <= stats.gathered_entries_cap
        assert stats.query_len_max <= stats.query_len_cap

    def test_exponent_sweep_preserves_correctness(self):
        g = random_graph(30, 0.2, random.Random(12))
        oracle = sorted(list_induced_diamonds_naive(g))
        for delta, eps in ((FIVE_SIXTHS, HALF), (Fraction(2, 3), HALF), (FIVE_SIXTHS, Fraction(1, 3))):
            found, stats = list_induced_diamonds_congest(
                g, delta=delta, epsilon=eps, with_coverage=True
            )
            assert list(found) == oracle, (delta, eps)
            counts = stats.coverage_counts
            per_phase = (
                counts.get("sparse", 0),
                counts.get("heavy", 0),
                sum(v for k, v in counts.items() if k.startswith("light-")),
            )
            assert per_phase == (
                stats.sparse_found,
                stats.heavy_found,
                stats.light_found,
            ), (delta, eps)
