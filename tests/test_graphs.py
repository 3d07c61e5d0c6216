"""Tests for the graph container, oracles, and search routines."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from congestlab.graphs import (
    DEFAULT_WORK_BUDGET,
    Graph,
    WorkBudgetExceeded,
    connected_components,
    crossing_edges,
    diameter,
    eccentricity,
    induced_edge_count,
    induced_edges,
    is_induced_cycle,
    is_induced_diamond,
    list_induced_cycles,
    list_induced_cycles_naive,
    list_induced_diamonds,
    list_induced_diamonds_naive,
    random_graph,
)

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _small_graphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
    return Graph(n, edges)


def _cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestGraphBasics:
    def test_edges_are_normalized_and_deduplicated(self):
        g = Graph(4, [(1, 0), (0, 1), (2, 3)])
        assert g.edges == frozenset({(0, 1), (2, 3)})
        assert g.m == 2

    def test_self_loops_are_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_out_of_range_endpoints_are_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_adjacency_queries(self):
        g = Graph(4, [(0, 1), (1, 2)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.neighbors(1) == frozenset({0, 2})
        assert g.degree(1) == 2
        assert g.degree(3) == 0

    def test_equality_and_hashing_ignore_edge_order(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (1, 0)])
        assert a == b
        assert hash(a) == hash(b)

    def test_text_round_trip(self):
        g = Graph(5, [(0, 4), (1, 2)])
        assert Graph.from_text(g.to_text()) == g


class TestInducedSubgraphPredicates:
    def test_four_cycle_is_an_induced_cycle(self):
        g = _cycle_graph(4)
        assert is_induced_cycle(g, (0, 1, 2, 3))

    def test_chorded_cycle_is_not_induced(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert not is_induced_cycle(g, (0, 1, 2, 3))

    def test_cycle_predicate_reads_the_vertex_set_not_the_order(self):
        g = _cycle_graph(4)
        assert is_induced_cycle(g, (0, 2, 1, 3))
        assert not is_induced_cycle(g, (0, 1, 2))

    def test_diamond_predicate_accepts_k4_minus_an_edge(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert is_induced_diamond(g, (0, 1, 2, 3))

    def test_diamond_predicate_rejects_k4(self):
        assert not is_induced_diamond(_complete_graph(4), (0, 1, 2, 3))

    def test_induced_edges_and_count_agree(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        sub = (0, 1, 2)
        assert induced_edge_count(g, sub) == len(induced_edges(g, sub)) == 2


class TestNaiveOracles:
    def test_cycle_oracle_on_a_plain_cycle(self):
        for k in (4, 5, 6, 7):
            cycles = list_induced_cycles_naive(_cycle_graph(k), k)
            assert len(cycles) == 1

    def test_cycle_oracle_finds_nothing_in_a_clique(self):
        assert list_induced_cycles_naive(_complete_graph(6), 4) == []

    def test_mask_scan_matches_the_cycle_predicate(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(3, 12)
            g = random_graph(n, rng.choice([0.2, 0.35, 0.5, 0.7]), rng)
            for k in range(3, 8):
                assert list_induced_cycles_naive(g, k) == [
                    vs for vs in combinations(range(n), k) if is_induced_cycle(g, vs)
                ]

    def test_diamond_oracle_on_k5_minus_an_edge(self):
        # K5 minus edge (3, 4): every diamond uses both endpoints of
        # the missing edge plus two of the three common neighbours.
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (3, 4)]
        diamonds = list_induced_diamonds_naive(Graph(5, edges))
        assert diamonds == [(0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4)]

    def test_diamond_oracle_ignores_triangles_and_paths(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert list_induced_diamonds_naive(g) == []


class TestPrunedSearchMatchesNaive:
    @PROPERTY_SETTINGS
    @given(g=_small_graphs(), k=st.integers(min_value=3, max_value=8))
    def test_cycle_listing_agrees_with_oracle_on_small_graphs(self, g: Graph, k: int):
        # The naive route yields subsets in combinations order, which is
        # sorted, so this also pins the order the pruned route returns.
        assert list_induced_cycles(g, k) == list_induced_cycles_naive(g, k)

    @PROPERTY_SETTINGS
    @given(g=_small_graphs())
    def test_diamond_listing_agrees_with_oracle_on_small_graphs(self, g: Graph):
        assert sorted(list_induced_diamonds(g)) == sorted(
            list_induced_diamonds_naive(g)
        )

    def test_cycle_listing_agrees_with_oracle_on_seeded_random_graphs(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng.randint(6, 14), rng.choice([0.15, 0.3, 0.5]), rng)
            for k in range(3, 8):
                assert list_induced_cycles(g, k) == list_induced_cycles_naive(g, k)

    def test_diamond_listing_agrees_with_oracle_on_seeded_random_graphs(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng.randint(6, 14), rng.choice([0.2, 0.4, 0.6]), rng)
            assert sorted(list_induced_diamonds(g)) == sorted(
                list_induced_diamonds_naive(g)
            )

    def test_cycle_length_below_three_is_rejected(self):
        with pytest.raises(ValueError):
            list_induced_cycles(_cycle_graph(5), 2)

    def test_triangle_listing_works_through_the_closing_branch(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert list_induced_cycles(g, 3) == [(0, 1, 2)]


def _work_count(g: Graph, k: int, **kwargs) -> int:
    """The smallest budget under which list_induced_cycles finishes."""
    lo, hi = -1, 1
    while True:
        try:
            list_induced_cycles(g, k, budget=hi, **kwargs)
            break
        except WorkBudgetExceeded:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            list_induced_cycles(g, k, budget=mid, **kwargs)
            hi = mid
        except WorkBudgetExceeded:
            lo = mid
    return hi


def _with_quota(g: Graph, k: int, vertices, need: int) -> list[tuple[int, ...]]:
    return [c for c in list_induced_cycles(g, k) if len(set(c) & vertices) >= need]


class TestQuota:
    @PROPERTY_SETTINGS
    @given(data=st.data(), g=_small_graphs(max_n=10), k=st.integers(3, 8))
    def test_quota_keeps_exactly_the_cycles_meeting_it(self, data, g: Graph, k: int):
        vertices = data.draw(st.frozensets(st.integers(0, g.n - 1)))
        need = data.draw(st.integers(0, k))
        assert list_induced_cycles(g, k, quota=(vertices, need)) == _with_quota(
            g, k, vertices, need
        )

    def test_quota_on_seeded_random_graphs(self):
        rng = random.Random(23)
        for _ in range(8):
            n = rng.randint(6, 14)
            g = random_graph(n, rng.choice([0.2, 0.35, 0.5]), rng)
            for k in range(3, 9):
                full_work = _work_count(g, k)
                choices = [frozenset(), frozenset(range(n))]
                choices += [frozenset(rng.sample(range(n), n // 2)) for _ in range(2)]
                for vertices in choices:
                    for need in range(k + 1):
                        quota = (vertices, need)
                        assert list_induced_cycles(g, k, quota=quota) == _with_quota(
                            g, k, vertices, need
                        )
                        assert _work_count(g, k, quota=quota) <= full_work

    def test_an_unmeetable_quota_does_no_work(self):
        g = _complete_graph(6)
        assert list_induced_cycles(g, 3, budget=0, quota=(range(6), 4)) == []


class TestWorkBudget:
    def test_tiny_budget_raises_with_estimate(self):
        g = _complete_graph(12)
        with pytest.raises(WorkBudgetExceeded) as info:
            list_induced_cycles(g, 6, budget=10)
        assert info.value.budget == 10
        assert info.value.estimate > 10

    def test_work_count_is_the_smallest_passing_budget(self):
        # W is the search's total work count, one unit per neighbor it
        # inspects; a change to that accounting moves these values.
        sparse = random_graph(20, 0.3, random.Random(3))
        recorded = zip(range(3, 8), (138, 565, 1168, 2408, 3983))
        cases = [(sparse, k, w) for k, w in recorded]
        cases += [(_complete_graph(12), 6, 858), (_complete_graph(12), 3, 792)]
        for g, k, w in cases:
            list_induced_cycles(g, k, budget=w)
            with pytest.raises(WorkBudgetExceeded):
                list_induced_cycles(g, k, budget=w - 1)

    def test_quota_work_count_is_the_smallest_passing_budget(self):
        # Paths with no outside room left inspect only own neighbors, at
        # every step including the closing one; (k, need, W) rows.
        g = random_graph(20, 0.3, random.Random(3))
        recorded = [
            (3, 1, 126), (3, 2, 114), (3, 3, 55),
            (4, 2, 410), (4, 3, 306), (4, 4, 134),
            (5, 2, 1071), (5, 3, 762), (5, 5, 189),
            (6, 3, 1957), (6, 4, 1278), (6, 6, 262),
            (7, 3, 3698), (7, 4, 2879), (7, 7, 299),
        ]
        for k, need, w in recorded:
            quota = (range(10), need)
            list_induced_cycles(g, k, budget=w, quota=quota)
            with pytest.raises(WorkBudgetExceeded):
                list_induced_cycles(g, k, budget=w - 1, quota=quota)

    def test_each_closing_step_tests_the_budget(self):
        # The estimate is the count at the first step that crossed the
        # budget.  The first four rows are at half of each W above; the
        # last four cross inside a run of closing steps, so they move if
        # those steps share one budget test.
        g = random_graph(20, 0.3, random.Random(3))
        recorded = [(4, 282, 283), (5, 584, 592), (6, 1204, 1206), (7, 1991, 1992)]
        recorded += [(4, 283, 285), (5, 568, 571), (6, 1214, 1215), (7, 1973, 1974)]
        for k, budget, estimate in recorded:
            with pytest.raises(WorkBudgetExceeded) as info:
                list_induced_cycles(g, k, budget=budget)
            assert info.value.estimate == estimate

    def test_default_budget_handles_small_graphs(self):
        g = random_graph(20, 0.2, random.Random(3))
        list_induced_cycles(g, 5, budget=DEFAULT_WORK_BUDGET)
        list_induced_diamonds(g, budget=DEFAULT_WORK_BUDGET)


class TestDistancesAndCuts:
    def test_eccentricity_on_a_path(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert eccentricity(g, 0) == 3
        assert eccentricity(g, 1) == 2

    def test_diameter_of_a_cycle(self):
        assert diameter(_cycle_graph(6)) == 3

    def test_diameter_of_a_disconnected_graph_is_infinite(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert diameter(g) == float("inf")

    def test_connected_components_partition_the_vertices(self):
        g = Graph(5, [(0, 1), (3, 4)])
        comps = connected_components(g)
        assert sorted(sorted(c) for c in comps) == [[0, 1], [2], [3, 4]]

    def test_crossing_edges_respect_the_side_set(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        cut = crossing_edges(g, {0, 1})
        assert sorted(cut) == [(1, 2), (3, 0)] or sorted(cut) == [(0, 3), (1, 2)]
        assert len(cut) == 2

    def test_random_graph_is_deterministic_per_seed(self):
        a = random_graph(15, 0.3, random.Random(42))
        b = random_graph(15, 0.3, random.Random(42))
        assert a == b
