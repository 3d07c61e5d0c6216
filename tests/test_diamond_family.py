"""Tests for the random diamond family and its fixture invariants."""

from __future__ import annotations

import marshal
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from congestlab.bitstrings import (
    bits_intersect,
    ones,
    random_bits,
    random_nonintersecting_pair,
    singleton,
    zeros,
)
from congestlab.diamond_family import (
    build_diamond_family,
    build_diamond_fixture,
    diamond_cut_size,
    good_pair_ratio,
    has_two_two_diamond,
    list_two_two_diamonds,
)
from congestlab.families import InputPair
from congestlab.graphs import (
    WorkBudgetExceeded,
    is_induced_diamond,
    list_induced_diamonds,
)

PROPERTY_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCutSize:
    def test_closed_form(self):
        assert diamond_cut_size(4) == 12
        assert diamond_cut_size(16) == 80
        assert diamond_cut_size(64) == 576

    def test_non_square_size_is_rejected(self):
        with pytest.raises(ValueError):
            diamond_cut_size(5)


class TestFixtureStructure:
    def test_smallest_fixture_frozen_values(self):
        fx = build_diamond_fixture(4, 0)
        assert fx.graph.n == 12
        assert fx.graph.m == 12
        assert fx.good_pairs == ((0, 2), (0, 3), (1, 2), (1, 3))
        assert sorted(fx.astar) == [1, 3]
        assert fx.quadruples == ((1, 2, 5, 9), (3, 0, 4, 11))
        assert fx.bit_count == 2
        assert marshal.loads(fx.meta)["dropped_count"] == 0

    def test_good_pairs_have_exactly_one_common_neighbor(self):
        fx = build_diamond_fixture(16, 1)
        for u, v in fx.good_pairs:
            assert len(fx.graph.adj[u] & fx.graph.adj[v]) == 1

    def test_good_pairs_span_distinct_blocks(self):
        fx = build_diamond_fixture(16, 1)
        # Side A in rows of sqrt(16) = 4: the blocks.
        block_of = {v: i // 4 for i, v in enumerate(fx.blocks["a"])}
        for u, v in fx.good_pairs:
            assert block_of[u] != block_of[v]

    def test_quadruple_invariants(self):
        fx = build_diamond_fixture(16, 1)
        seen_b = set()
        for a1, a2, b1, b2 in fx.quadruples:
            assert a1 in fx.astar and a2 not in fx.astar
            assert fx.graph.adj[a1] & fx.graph.adj[a2] == {b1}
            assert fx.blocks["partner"][a1] == b2
            assert (b1, b2) not in seen_b
            seen_b.add((b1, b2))

    def test_fixture_is_deterministic_per_seed(self):
        assert build_diamond_fixture(16, 5) == build_diamond_fixture(16, 5)
        assert (
            build_diamond_fixture(16, 5).quadruples
            != build_diamond_fixture(16, 6).quadruples
        )

    def test_good_pair_ratio_stays_usable_at_small_sizes(self):
        for n in (16, 64):
            ratios = [good_pair_ratio(build_diamond_fixture(n, s)) for s in range(3)]
            assert sum(ratios) / len(ratios) >= 0.05


class TestBuiltInstances:
    def test_zero_inputs_reproduce_the_fixture_graph(self):
        fx = build_diamond_fixture(4, 0)
        inst = build_diamond_family(fx, InputPair(zeros(2), zeros(2)))
        assert inst.graph == fx.graph
        assert inst.cut_size == diamond_cut_size(4)

    def test_input_length_must_match_the_slot_count(self):
        fx = build_diamond_fixture(4, 0)
        with pytest.raises(ValueError):
            build_diamond_family(fx, InputPair("111", "000"))

    def test_shared_slot_places_the_diamond_at_that_quadruple(self):
        fx = build_diamond_fixture(4, 0)
        inst = build_diamond_family(fx, InputPair(singleton(2, 0), singleton(2, 0)))
        found = list_two_two_diamonds(inst)
        assert found == [tuple(sorted(fx.quadruples[0]))]
        assert is_induced_diamond(inst.graph, found[0])

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=20),
        xbits=st.integers(min_value=0, max_value=2**10 - 1),
        ybits=st.integers(min_value=0, max_value=2**10 - 1),
    )
    def test_presence_matches_intersection_for_sixteen_vertices(
        self, seed: int, xbits: int, ybits: int
    ):
        fx = build_diamond_fixture(16, seed)
        k = fx.bit_count
        x = format(xbits % 2**k, f"0{k}b") if k else ""
        y = format(ybits % 2**k, f"0{k}b") if k else ""
        inst = build_diamond_family(fx, InputPair(x, y))
        assert has_two_two_diamond(inst) == bits_intersect(x, y)

    @pytest.mark.parametrize("n", [16, 64])
    def test_the_predicate_agrees_with_the_listing(self, n: int):
        # It stops at the first 2+2 diamond, so it builds less than the
        # listing but must answer the listing's bool on every pair.
        rng = random.Random(n)
        fx = build_diamond_fixture(n, 1)
        k = fx.bit_count
        seen = set()
        for _ in range(6):
            x, y = random_bits(k, rng), random_bits(k, rng)
            for pair in (InputPair(x, y), InputPair(*random_nonintersecting_pair(k, rng))):
                inst = build_diamond_family(fx, pair)
                expected = bool(list_two_two_diamonds(inst))
                assert has_two_two_diamond(inst) == expected, pair
                seen.add(expected)
        assert seen == {True, False}

    def test_the_predicate_spends_the_search_prefix_up_to_its_witness(self):
        # Fixture n = 64, seed 1.  With every slot shared the quota search
        # counts 290 wing pairs and its first spine already holds a 2+2
        # diamond.  With x all ones and y empty it lists 98 diamonds, none
        # 2+2, so the predicate runs the whole search.
        fx = build_diamond_fixture(64, 1)
        k = fx.bit_count
        for x, y, full, first in [(ones(k), ones(k), 290, 1), (ones(k), zeros(k), 98, 98)]:
            inst = build_diamond_family(fx, InputPair(x, y))
            quota = (set(inst.side_a), 2)
            list_induced_diamonds(inst.graph, budget=full, quota=quota)
            with pytest.raises(WorkBudgetExceeded):
                list_induced_diamonds(inst.graph, budget=full - 1, quota=quota)
            assert has_two_two_diamond(inst, budget=first) == (first < full)
            with pytest.raises(WorkBudgetExceeded):
                has_two_two_diamond(inst, budget=first - 1)

    def test_lopsided_diamonds_are_excluded_from_the_predicate(self):
        # Two y-slots sharing b2 can close a diamond living 1+3 across
        # the cut; the balanced filter must not count it.
        fx = build_diamond_fixture(16, 1)
        by_b2: dict[int, list[int]] = {}
        for idx, (a1, a2, b1, b2) in enumerate(fx.quadruples):
            by_b2.setdefault(b2, []).append(idx)
        shared = [idxs for idxs in by_b2.values() if len(idxs) >= 2]
        assert shared, "fixture lacks a shared-partner slot pair"
        k = fx.bit_count
        y = "".join("1" if i in shared[0][:2] else "0" for i in range(k))
        inst = build_diamond_family(fx, InputPair(zeros(k), y))
        side_a = set(inst.side_a)
        all_diamonds = list_induced_diamonds(inst.graph)
        assert all_diamonds, "expected a lopsided diamond from the shared partner"
        assert all(sum(1 for v in d if v in side_a) != 2 for d in all_diamonds)
        assert not has_two_two_diamond(inst)
