"""Tests for the graph container, oracles, and search routines."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from congestlab.bitstrings import bits_intersect
from congestlab.families import InputPair, build_cycle_family, build_long_cycle_family
from congestlab.graphs import (
    DEFAULT_WORK_BUDGET,
    Graph,
    WorkBudgetExceeded,
    connected_components,
    crossing_edges,
    diameter,
    frac_pow_floor,
    has_induced_cycle,
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
        assert not g.has_edge(1, 1)
        assert g.adj[1] == frozenset({0, 2})
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


def _snapshot(g: Graph) -> tuple:
    return g.n, g.edges, g.adj


class TestWithEdges:
    """``Graph.with_edges`` is the constructor applied to the union: the
    same graph, the same errors, and the original left as it was."""

    @PROPERTY_SETTINGS
    @given(g=_small_graphs(), data=st.data())
    def test_equals_the_constructor_on_the_union(self, g, data):
        pool = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
        extra = data.draw(st.lists(st.sampled_from(pool)) if pool else st.just([]))
        before = _snapshot(g)
        grown = g.with_edges(extra)
        union = Graph(g.n, g.edges | set(extra))
        assert _snapshot(grown) == _snapshot(union)
        assert _snapshot(g) == before
        touched = {v for e in extra for v in e}
        for v in set(range(g.n)) - touched:
            assert grown.adj[v] is g.adj[v]

    def test_seeded_graphs_equal_the_constructor_on_the_union(self):
        rng = random.Random(5)
        for n in (1, 7, 30, 80):
            g = random_graph(n, 0.2, rng)
            extra = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
            extra = [(u, v) for u, v in extra if u != v]
            grown, union = g.with_edges(extra), Graph(n, [*g.edges, *extra])
            assert _snapshot(grown) == _snapshot(union)
            # Adjacency sets as compact as the constructor's: a set grown
            # in place keeps spare slots, which cost memory and iteration.
            assert list(map(sys.getsizeof, grown.adj)) == list(map(sys.getsizeof, union.adj))

    @pytest.mark.parametrize(
        "bad", [(2, 2), (-1, 2), (2, -1), (0, 5), (5, 0), (7, 9)], ids=str
    )
    def test_bad_edges_raise_the_constructor_error(self, bad):
        g = Graph(5, [(0, 1), (2, 3)])
        before = _snapshot(g)
        with pytest.raises(ValueError) as from_ctor:
            Graph(g.n, [*g.edges, bad])
        with pytest.raises(ValueError) as from_extension:
            g.with_edges([(1, 2), bad])
        assert str(from_extension.value) == str(from_ctor.value)
        assert _snapshot(g) == before

    def test_an_existing_edge_is_a_no_op(self):
        g = Graph(4, [(0, 1), (2, 3)])
        same = g.with_edges([(1, 0), (2, 3)])
        assert _snapshot(same) == _snapshot(g)
        assert all(a is b for a, b in zip(same.adj, g.adj))


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
        assert not is_induced_cycle(g, (0, 1))

    def test_diamond_predicate_accepts_k4_minus_an_edge(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert is_induced_diamond(g, (0, 1, 2, 3))

    def test_diamond_predicate_rejects_k4(self):
        assert not is_induced_diamond(_complete_graph(4), (0, 1, 2, 3))

    def test_induced_edges_and_count_agree(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        sub = (0, 1, 2)
        assert len(induced_edges(g, sub)) == 2


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
        with pytest.raises(ValueError):
            has_induced_cycle(_cycle_graph(5), 2)

    def test_triangle_listing_works_through_the_closing_branch(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert list_induced_cycles(g, 3) == [(0, 1, 2)]


def _work_count(g: Graph, k: int, search=list_induced_cycles, **kwargs) -> int:
    """The smallest budget under which *search* finishes."""
    lo, hi = -1, 1
    while True:
        try:
            search(g, k, budget=hi, **kwargs)
            break
        except WorkBudgetExceeded:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            search(g, k, budget=mid, **kwargs)
            hi = mid
        except WorkBudgetExceeded:
            lo = mid
    return hi


def _diamonds(g: Graph, _k, **kwargs) -> list[tuple[int, ...]]:
    """``list_induced_diamonds`` in the (g, k, ...) form ``_work_count`` calls."""
    return list_induced_diamonds(g, **kwargs)


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

    @PROPERTY_SETTINGS
    @given(data=st.data(), g=_small_graphs(max_n=10), k=st.integers(3, 8))
    def test_quota_work_never_exceeds_the_full_listings(self, data, g: Graph, k: int):
        vertices = data.draw(st.frozensets(st.integers(0, g.n - 1)))
        need = data.draw(st.integers(0, k))
        assert _work_count(g, k, quota=(vertices, need)) <= _work_count(g, k)

    def test_an_unmeetable_quota_does_no_work(self):
        g = _complete_graph(6)
        assert list_induced_cycles(g, 3, budget=0, quota=(range(6), 4)) == []


def _diamonds_with_quota(g: Graph, vertices, need: int) -> list[tuple[int, ...]]:
    return [
        d for d in list_induced_diamonds_naive(g) if len(vertices.intersection(d)) >= need
    ]


class TestDiamondQuota:
    @PROPERTY_SETTINGS
    @given(data=st.data(), g=_small_graphs(max_n=10))
    def test_quota_keeps_exactly_the_diamonds_meeting_it(self, data, g: Graph):
        vertices = data.draw(st.frozensets(st.integers(0, g.n - 1)))
        need = data.draw(st.integers(0, 5))
        assert list_induced_diamonds(
            g, quota=(vertices, need)
        ) == _diamonds_with_quota(g, vertices, need)

    def test_quota_on_seeded_random_graphs(self):
        rng = random.Random(31)
        for _ in range(12):
            n = rng.randint(6, 16)
            g = random_graph(n, rng.choice([0.3, 0.5, 0.7]), rng)
            full_work = _work_count(g, None, search=_diamonds)
            choices = [frozenset(), frozenset(range(n))]
            choices += [frozenset(rng.sample(range(n), n // 2)) for _ in range(3)]
            for vertices in choices:
                for need in range(6):
                    quota = (vertices, need)
                    assert list_induced_diamonds(
                        g, quota=quota
                    ) == _diamonds_with_quota(g, vertices, need)
                    work = _work_count(g, None, search=_diamonds, quota=quota)
                    assert work <= full_work

    def test_an_unmeetable_quota_does_no_work(self):
        # K6 minus one edge holds diamonds; none has five vertices, and
        # none has four in a three-vertex set.
        g = Graph(6, [(u, v) for u, v in combinations(range(6), 2) if (u, v) != (0, 1)])
        assert list_induced_diamonds(g) != []
        assert list_induced_diamonds(g, budget=0, quota=(range(6), 5)) == []
        assert list_induced_diamonds(g, budget=0, quota=(range(3), 4)) == []

    def test_quota_work_count_is_the_smallest_passing_budget(self):
        # A spine short of two own vertices takes only own wings; short
        # of one, only the wing pairs with an own wing; short of more,
        # nothing.  (need, W) rows on the graph the unrestricted pin uses.
        g = random_graph(40, 0.3, random.Random(3))
        recorded = [(0, 1377), (1, 1177), (2, 595), (3, 141), (4, 16), (5, 0)]
        for need, w in recorded:
            quota = (range(20), need)
            assert _work_count(g, None, search=_diamonds, quota=quota) == w


class TestWorkBudget:
    def test_tiny_budget_raises_with_estimate(self):
        g = _complete_graph(12)
        with pytest.raises(WorkBudgetExceeded) as info:
            list_induced_cycles(g, 6, budget=10)
        assert info.value.budget == 10
        assert info.value.estimate > 10

    @pytest.mark.parametrize(
        "naive, k",
        [
            (lambda g, budget: list_induced_cycles_naive(g, 5, budget=budget), 5),
            (lambda g, budget: list_induced_diamonds_naive(g, budget=budget), 4),
        ],
        ids=["cycles", "diamonds"],
    )
    def test_naive_routes_refuse_a_scan_over_budget_up_front(self, naive, k):
        # The scan costs one unit per k-subset, charged before it starts,
        # so an edgeless graph is refused one unit short of C(n, k).
        g = Graph(30, [])
        count = math.comb(30, k)
        assert naive(g, count) == []
        with pytest.raises(WorkBudgetExceeded) as info:
            naive(g, count - 1)
        assert (info.value.estimate, info.value.budget) == (count, count - 1)
        assert str(info.value) == (
            f"naive scan over {k}-subsets of 30 vertices "
            f"(estimate {count} > budget {count - 1})"
        )

    def test_work_count_is_the_smallest_passing_budget(self):
        # W is the search's total work count, one unit per neighbor it
        # inspects; a change to that accounting moves these values.
        sparse = random_graph(20, 0.3, random.Random(3))
        recorded = zip(range(3, 8), (138, 412, 780, 1441, 2243))
        cases = [(sparse, k, w) for k, w in recorded]
        cases += [(_complete_graph(12), 6, 858), (_complete_graph(12), 3, 792)]
        for g, k, w in cases:
            list_induced_cycles(g, k, budget=w)
            with pytest.raises(WorkBudgetExceeded):
                list_induced_cycles(g, k, budget=w - 1)

    def test_diamond_work_count_is_the_smallest_passing_budget(self):
        # W is one unit per wing pair the spine search inspects: the sum
        # of C(|common neighbors|, 2) over the edges.  K8 has 28 spines
        # of 6 common neighbors each and no diamond.
        cases = [
            (random_graph(20, 0.3, random.Random(3)), 10),
            (random_graph(40, 0.3, random.Random(3)), 1377),
            (_complete_graph(8), 420),
        ]
        for g, w in cases:
            assert _work_count(g, None, search=_diamonds) == w
        g = random_graph(40, 0.3, random.Random(3))
        with pytest.raises(WorkBudgetExceeded) as info:
            list_induced_diamonds(g, budget=500)
        assert (info.value.estimate, info.value.budget) == (501, 500)
        assert str(info.value) == "pruned diamond search (estimate 501 > budget 500)"

    def test_quota_work_count_is_the_smallest_passing_budget(self):
        # Paths with no outside room left inspect only own neighbors, at
        # every step including the closing one; (k, need, W) rows.
        g = random_graph(20, 0.3, random.Random(3))
        recorded = [
            (3, 1, 126), (3, 2, 114), (3, 3, 55),
            (4, 2, 335), (4, 3, 258), (4, 4, 110),
            (5, 2, 743), (5, 3, 572), (5, 5, 141),
            (6, 3, 1304), (6, 4, 904), (6, 6, 179),
            (7, 3, 2170), (7, 4, 1863), (7, 7, 195),
        ]
        for k, need, w in recorded:
            quota = (range(10), need)
            list_induced_cycles(g, k, budget=w, quota=quota)
            with pytest.raises(WorkBudgetExceeded):
                list_induced_cycles(g, k, budget=w - 1, quota=quota)

    def test_each_closing_step_tests_the_budget(self):
        # The estimate is the count at the first step that crossed the
        # budget.  The first four rows are at half of each W above; the
        # last four cross at a closing step.  At k = 4..6 that step is
        # inside a run of closing steps, so those rows move if the steps
        # share one budget test; at k = 7 no closing run on this graph
        # has two charged steps, so its row crosses at a lone one.
        g = random_graph(20, 0.3, random.Random(3))
        recorded = [(4, 206, 211), (5, 390, 395), (6, 720, 726), (7, 1121, 1124)]
        recorded += [(4, 194, 195), (5, 395, 396), (6, 625, 626), (7, 1124, 1126)]
        for k, budget, estimate in recorded:
            with pytest.raises(WorkBudgetExceeded) as info:
                list_induced_cycles(g, k, budget=budget)
            assert info.value.estimate == estimate

    def test_a_path_that_can_no_longer_close_is_not_grown(self):
        # An induced path holds no cycle.  Each anchor's neighbors lie
        # next to it, so no vertex above the second can close, and each
        # branch is charged only for its root: the anchors' degrees (22)
        # plus the second vertices' degrees (21), whatever k is.
        path = Graph(12, [(i, i + 1) for i in range(11)])
        for k in range(4, 10):
            assert list_induced_cycles(path, k) == []
            assert _work_count(path, k) == 43

    def test_default_budget_handles_small_graphs(self):
        g = random_graph(20, 0.2, random.Random(3))
        list_induced_cycles(g, 5, budget=DEFAULT_WORK_BUDGET)
        list_induced_diamonds(g, budget=DEFAULT_WORK_BUDGET)


def _estimate(search, g: Graph, k: int, budget: int) -> int:
    with pytest.raises(WorkBudgetExceeded) as info:
        search(g, k, budget=budget)
    return info.value.estimate


class TestHasInducedCycle:
    def test_agrees_with_both_listing_routes_on_seeded_random_graphs(self):
        rng = random.Random(29)
        for _ in range(25):
            g = random_graph(rng.randint(6, 14), rng.choice([0.15, 0.3, 0.5]), rng)
            for k in range(3, 9):
                found = has_induced_cycle(g, k)
                assert found == bool(list_induced_cycles(g, k))
                assert found == bool(list_induced_cycles_naive(g, k))

    def test_family_instances_hold_their_cycle_iff_the_inputs_intersect(self):
        # Every pair at n = 2 (4-bit inputs), center-less as the
        # family predicates build them.
        inputs = ["".join(bits) for bits in product("01", repeat=4)]
        pairs = [InputPair(x=x, y=y) for x in inputs for y in inputs]
        for pair in pairs:
            expected = bits_intersect(pair.x, pair.y)
            for k in range(4, 8):
                g = build_cycle_family(2, k, pair).graph
                assert has_induced_cycle(g, k) == expected, (k, pair)
            g = build_long_cycle_family(2, 2, 0, pair, include_centers=False).graph
            assert has_induced_cycle(g, 16) == expected, pair

    def test_without_a_cycle_it_spends_the_listings_work(self):
        # A clique holds no induced 6-cycle, so both calls run the
        # whole search: same total work, same estimate at every budget.
        g = _complete_graph(12)
        assert not has_induced_cycle(g, 6, budget=858)
        for budget in (10, 400, 857):
            assert _estimate(has_induced_cycle, g, 6, budget) == _estimate(
                list_induced_cycles, g, 6, budget
            )

    def test_an_early_witness_passes_a_budget_the_listing_exceeds(self):
        # (k, W of the listing, W up to the first witness); below the
        # second figure the two calls cross the budget at the same step.
        g = random_graph(20, 0.3, random.Random(3))
        for k, full, first in [(3, 138, 7), (5, 780, 17), (7, 2243, 82)]:
            assert _work_count(g, k) == full
            assert _work_count(g, k, search=has_induced_cycle) == first
            assert has_induced_cycle(g, k, budget=first)
            with pytest.raises(WorkBudgetExceeded):
                list_induced_cycles(g, k, budget=first)
            for budget in (first // 2, first - 1):
                assert _estimate(has_induced_cycle, g, k, budget) == _estimate(
                    list_induced_cycles, g, k, budget
                )


class TestDistancesAndCuts:
    def test_diameter_of_a_cycle(self):
        assert diameter(_cycle_graph(6)) == 3

    def test_diameter_of_at_most_one_vertex_is_zero(self):
        assert diameter(Graph(0, [])) == diameter(Graph(1, [])) == 0

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


# Each call that breaks an input check, and the message it must raise.
BAD_INPUTS = {
    "negative vertex count": (lambda: Graph(-1, []), "vertex count must be nonnegative"),
    "negative power base": (lambda: frac_pow_floor(-1, Fraction(1, 2)), "need n >= 0"),
    "negative exponent": (lambda: frac_pow_floor(4, Fraction(-1, 2)), "exponent >= 0"),
    "naive cycle below three": (
        lambda: list_induced_cycles_naive(_cycle_graph(5), 2),
        "cycles need k >= 3",
    ),
    "density above one": (
        lambda: random_graph(4, 1.5, random.Random(0)),
        r"density must be in \[0, 1\], got 1.5",
    ),
}


@pytest.mark.parametrize("call, message", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_a_bad_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
