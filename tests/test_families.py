"""Tests for the two-input graph families and their verification harness.

Frozen expectations in this file were computed first with the naive
induced-subgraph oracles and then pinned, so regressions in the builders
or in the pruned search surface as value mismatches here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from congestlab import bundles, families
from congestlab.bitstrings import (
    bits_intersect,
    ones,
    random_bits,
    random_nonintersecting_pair,
    singleton,
    zeros,
)
from congestlab.bundles import canonical_json_bytes, read_bundle, write_bundle
from congestlab.diamond_family import build_diamond_family, build_diamond_fixture
from congestlab.families import (
    FamilyInstance,
    InputPair,
    build_cycle_family,
    build_four_cycle_family,
    build_long_cycle_family,
    colex_subset,
    cycle_cut_size,
    long_cycle_alphabet,
    long_cycle_cut_size,
)
from congestlab.family_checks import (
    COUNTEREXAMPLE_CAP,
    FamilyHarness,
    check_block_counts,
    cycle_harness,
    diamond_harness,
    long_cycle_harness,
    verify_family_conditions,
)
from congestlab.graphs import (
    Graph,
    crossing_edges,
    diameter,
    is_induced_cycle,
    list_induced_cycles,
    list_induced_cycles_naive,
)

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_PAIR_BITS_N2 = st.text(alphabet="01", min_size=4, max_size=4)


def _pair(x: str, y: str) -> InputPair:
    return InputPair(x, y)


# Each builder call that breaks an input check, and the message it must raise.
BAD_PARAMETERS = {
    "cycle n below one": (lambda: build_cycle_family(0, 4, _pair("", "")), "need n >= 1"),
    "cycle pair length": (
        lambda: build_cycle_family(2, 5, _pair("000", "000")),
        "pair has 3 bits, family needs 4",
    ),
    "colex negative rank": (lambda: colex_subset(-1, 2), "must be nonnegative"),
    "alphabet ell below one": (lambda: long_cycle_alphabet(2, 0), "ell >= 1"),
    "long cycle m below zero": (
        lambda: build_long_cycle_family(2, 1, -1, _pair("0000", "0000")),
        "m >= 0",
    ),
    "diamond n not a square": (lambda: build_diamond_fixture(5, 0), "perfect square"),
    "diamond n below four": (lambda: build_diamond_fixture(1, 0), ">= 4"),
}


@pytest.mark.parametrize("call, message", BAD_PARAMETERS.values(), ids=BAD_PARAMETERS)
def test_a_bad_parameter_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestColexCodes:
    def test_first_two_subsets_in_colex_order(self):
        assert [colex_subset(r, 2) for r in range(4)] == [
            (0, 1),
            (0, 2),
            (1, 2),
            (0, 3),
        ]

    def test_first_three_subsets_in_colex_order(self):
        assert [colex_subset(r, 3) for r in range(4)] == [
            (0, 1, 2),
            (0, 1, 3),
            (0, 2, 3),
            (1, 2, 3),
        ]

    def test_subsets_follow_the_colex_order_of_sorted_combinations(self):
        # Colex order compares subsets from their largest element down.  Every
        # rank below comb(n, ell) names a subset of range(n).
        n = 14
        for ell in range(1, 6):
            colex = sorted(combinations(range(n), ell), key=lambda s: s[::-1])
            assert [colex_subset(r, ell) for r in range(len(colex))] == colex, ell

    def test_alphabet_size_is_exact_for_integer_roots(self):
        # ceil(ell * n**(1/ell)) without float error: 2 * 1000**(1/2)
        # is exactly 2 * 31.62..., so the ceiling is 64.
        assert long_cycle_alphabet(1000, 2) == 64
        assert long_cycle_alphabet(64, 2) == 16
        assert long_cycle_alphabet(8, 3) == 6
        assert long_cycle_alphabet(5, 1) == 5
        # Against the definition: the smallest r with r**ell >= ell**ell * n.
        for ell in range(1, 6):
            for n in range(1, 400):
                r = long_cycle_alphabet(n, ell)
                assert r**ell >= ell**ell * n > (r - 1) ** ell, (n, ell)

    def test_codes_are_distinct_subsets_of_the_alphabet(self):
        inst = build_long_cycle_family(20, 2, 0, _pair(zeros(400), zeros(400)))
        codes = [tuple(c) for c in inst.meta["codes"]]
        assert len(set(codes)) == 20
        for c in codes:
            assert len(c) == 2
            assert all(0 <= s < inst.meta["alphabet"] for s in c)

    def test_code_lookup_is_one_based(self):
        # Sub-block i is wired to code i - 1 of the colex order.
        inst = build_long_cycle_family(4, 2, 0, _pair(zeros(16), zeros(16)))
        assert inst.meta["codes"][0] == [0, 1]
        assert inst.meta["codes"][3] == [0, 3]
        a1_4 = [_id_by_label(inst, f"a1_4_{j}") for j in (1, 2)]
        ua = [_id_by_label(inst, f"ua_{t}") for t in (0, 3)]
        assert all(inst.graph.has_edge(u, v) for u, v in zip(a1_4, ua))


class TestFourCycleFamily:
    def test_vertex_and_cut_counts(self):
        inst = build_four_cycle_family(3, _pair(zeros(9), zeros(9)))
        assert inst.graph.n == 12
        assert inst.cut_size == cycle_cut_size(3) == 6

    def test_single_shared_slot_yields_exactly_one_four_cycle(self):
        # Shared 1 at block pair (3, 1): a1_3, a2_1, b1_3, b2_1,
        # which are vertex ids 2, 3, 8, 9.
        bit = singleton(9, 2)
        inst = build_four_cycle_family(3, _pair(bit, bit))
        assert list_induced_cycles_naive(inst.graph, 4) == [(2, 3, 8, 9)]

    def test_disjoint_inputs_yield_no_four_cycle(self):
        inst = build_four_cycle_family(2, _pair("1100", "0011"))
        assert list_induced_cycles_naive(inst.graph, 4) == []

    def test_harness_conditions_hold_exhaustively_for_two_blocks(self):
        report = verify_family_conditions(cycle_harness(2, 4), exhaustive=True)
        assert report.exhaustive
        assert report.pairs_checked == 256
        assert report.passed, report.conditions

    @PROPERTY_SETTINGS
    @given(x=_PAIR_BITS_N2, y=_PAIR_BITS_N2)
    def test_presence_matches_intersection_for_two_blocks(self, x: str, y: str):
        inst = build_four_cycle_family(2, _pair(x, y))
        found = bool(list_induced_cycles(inst.graph, 4))
        assert found == bits_intersect(x, y)

    @PROPERTY_SETTINGS
    @given(
        x=_PAIR_BITS_N2,
        y=_PAIR_BITS_N2,
        slot=st.integers(min_value=0, max_value=3),
    )
    def test_setting_a_shared_slot_always_creates_the_target(
        self, x: str, y: str, slot: int
    ):
        # Monotone flip: forcing one shared 1 makes the target appear,
        # whatever the remaining bits are.
        x2 = x[:slot] + "1" + x[slot + 1 :]
        y2 = y[:slot] + "1" + y[slot + 1 :]
        inst = build_four_cycle_family(2, _pair(x2, y2))
        assert list_induced_cycles(inst.graph, 4)


class TestSubdividedCycleFamily:
    def test_rejects_lengths_below_four(self):
        with pytest.raises(ValueError):
            build_cycle_family(2, 3, _pair(zeros(4), zeros(4)))

    def test_vertex_counts_follow_the_subdivision_rule(self):
        # k=5 with two blocks: 8 block vertices plus one internal
        # vertex on each of the two upper paths.
        inst = build_cycle_family(2, 5, _pair(zeros(4), zeros(4)))
        assert inst.graph.n == 10
        inst7 = build_cycle_family(2, 7, _pair(zeros(4), zeros(4)))
        assert inst7.graph.n == 8 + 2 * (2 + 1)

    def test_every_path_crosses_the_cut_once(self):
        for k in (5, 6, 7, 8):
            inst = build_cycle_family(2, k, _pair(zeros(4), zeros(4)))
            assert inst.cut_size == cycle_cut_size(2) == 4

    def test_shared_slot_yields_a_cycle_of_the_target_length(self):
        for k in (5, 6, 7, 8):
            inst = build_cycle_family(2, k, _pair("1000", "1000"))
            cycles = list_induced_cycles_naive(inst.graph, k)
            assert len(cycles) == 1, k

    def test_even_lengths_show_nothing_on_disjoint_inputs(self):
        for k in (6, 8):
            for x, y in (("1100", "0011"), ("0101", "0000"), ("1111", "0000")):
                inst = build_cycle_family(2, k, _pair(x, y))
                assert list_induced_cycles_naive(inst.graph, k) == [], (k, x, y)

    def test_odd_lengths_close_no_cycle_from_x_alone(self):
        # Without the a2 clique, two x-connectors from a1_2 and the b2
        # clique close a k-cycle with no shared input slot at odd k; the
        # clique chords it (see the length case analysis in the
        # build_cycle_family docstring).
        for k in (5, 7):
            inst = build_cycle_family(2, k, _pair("0101", "0000"))
            assert inst.graph.has_edge(*inst.blocks["a2"])
            assert list_induced_cycles_naive(inst.graph, k) == [], k

    def test_spec_free_probe_no_seven_cycle_for_this_disjoint_pair(self):
        inst = build_cycle_family(2, 7, _pair("1000", "0100"))
        assert list_induced_cycles_naive(inst.graph, 7) == []


class TestLongCycleFamily:
    def test_cut_size_closed_form(self):
        for n, ell in ((2, 1), (2, 2), (4, 2), (3, 3)):
            r = long_cycle_alphabet(n, ell)
            assert long_cycle_cut_size(n, ell) == 2 * r + 1
            assert long_cycle_cut_size(n, ell, include_centers=False) == 2 * r
            assert long_cycle_cut_size(n, ell, m=1) == 2 * r + 1

    def test_builder_checks_input_length(self):
        with pytest.raises(ValueError):
            build_long_cycle_family(2, 1, 0, _pair("000", "000"))

    def test_centered_unpadded_instances_have_diameter_three(self):
        for n, ell in ((2, 1), (2, 2), (4, 1), (4, 2)):
            inst = build_long_cycle_family(n, ell, 0, _pair(zeros(n * n), zeros(n * n)))
            assert diameter(inst.graph) == 3, (n, ell)

    def test_padding_internals_stay_off_the_centers(self):
        inst = build_long_cycle_family(2, 1, 3, _pair(zeros(4), zeros(4)))
        center_a, center_b = inst.blocks["centers"]
        pads = [v for v, lab in inst.labels.items() if lab.startswith(("upad", "lpad"))]
        assert pads
        for v in pads:
            assert not inst.graph.has_edge(v, center_a)
            assert not inst.graph.has_edge(v, center_b)

    def test_shared_slot_yields_target_length_cycle_without_centers(self):
        inst = build_long_cycle_family(2, 1, 0, _pair("0001", "0001"), include_centers=False)
        cycles = list_induced_cycles_naive(inst.graph, 8)
        assert len(cycles) == 1
        assert check_block_counts(inst, cycles[0])["passed"]

    def test_padding_stretches_the_target_for_even_m(self):
        inst = build_long_cycle_family(2, 1, 2, _pair("0001", "0001"), include_centers=False)
        cycles = list_induced_cycles_naive(inst.graph, 10)
        assert len(cycles) == 1
        assert inst.meta["target_length"] == 10

    def test_harness_conditions_hold_for_singleton_codes(self):
        report = verify_family_conditions(long_cycle_harness(2, 1), exhaustive=True)
        assert report.pairs_checked == 256
        assert report.passed, report.conditions

    def test_fixed_part_matches_the_subdivided_eight_cycle_family(self):
        # With singleton codes the code blocks play exactly the role of
        # the k=8 path internals; the two builders must produce the same
        # graph up to this renaming, including the side split.
        pair = _pair("0110", "1001")
        lc = build_long_cycle_family(2, 1, 0, pair, include_centers=False)
        sub = build_cycle_family(2, 8, pair)
        internals = sub.meta["path_internals"]
        mapping: dict[int, int] = {}
        for i in (1, 2):
            for mine, theirs in (
                (f"a1_{i}_1", f"a1_{i}"),
                (f"a2_{i}_1", f"a2_{i}"),
                (f"b1_{i}_1", f"b1_{i}"),
                (f"b2_{i}_1", f"b2_{i}"),
            ):
                mapping[_id_by_label(lc, mine)] = _id_by_label(sub, theirs)
        for c in range(2):
            mapping[_id_by_label(lc, f"ua_{c}")] = internals["a1b1"][c][0]
            mapping[_id_by_label(lc, f"ub_{c}")] = internals["a1b1"][c][1]
            mapping[_id_by_label(lc, f"la_{c}")] = internals["a2b2"][c][0]
            mapping[_id_by_label(lc, f"lb_{c}")] = internals["a2b2"][c][1]
        assert len(mapping) == lc.graph.n == sub.graph.n
        mapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in lc.graph.edges}
        assert mapped == set(sub.graph.edges)
        assert {mapping[v] for v in lc.side_a} == set(sub.side_a)

    def test_known_limitation_centers_break_the_singleton_code_target(self):
        # Pinned counterexample: with singleton codes the side-A center
        # joins two lower strands into an induced 8-cycle although the
        # inputs share nothing.  Predicate checks therefore run on
        # center-less builds; centered builds keep the diameter bound.
        inst = build_long_cycle_family(2, 1, 0, _pair("0000", "0001"), include_centers=True)
        cycles = list_induced_cycles(inst.graph, 8)
        labelled = [sorted(inst.labels[v] for v in c) for c in cycles]
        assert labelled == [
            ["b1_2_1", "b2_1_1", "b2_2_1", "center_a", "la_0", "lb_0", "ua_1", "ub_1"]
        ]
        bare = build_long_cycle_family(2, 1, 0, _pair("0000", "0001"), include_centers=False)
        assert list_induced_cycles(bare.graph, 8) == []

    def test_known_limitation_odd_padding_admits_off_design_cycles(self):
        # Pinned counterexample: odd m leaves the upper strands short by
        # one, so two y-connectors close a cycle of exactly the target
        # length 8 + m while the inputs are disjoint.  Even m keeps the
        # length off-target, hence ell = 1 iff checks cover even m only;
        # paired codes (ell = 2, m = 1) show no such cycle at n = 2.
        inst = build_long_cycle_family(2, 1, 1, _pair("0000", "0011"), include_centers=False)
        cycles = list_induced_cycles(inst.graph, 9)
        labelled = [sorted(inst.labels[v] for v in c) for c in cycles]
        assert labelled == [
            [
                "a1_1_1",
                "a1_2_1",
                "b1_1_1",
                "b1_2_1",
                "b2_2_1",
                "ua_0",
                "ua_1",
                "ub_0",
                "ub_1",
            ]
        ]

    def test_paired_codes_admit_no_chimera_cycles(self):
        # With complete a2/b1 joins and empty 0-bit slots, this disjoint
        # pair closes a 16-cycle stitching half-strands of two codes
        # together; the 0-bit joins and position-aware a2/b1 joins chord
        # it.  The audit must still flag the stitched vertex set.
        inst = build_long_cycle_family(2, 2, 0, _pair("0000", "0001"), include_centers=False)
        assert list_induced_cycles(inst.graph, 16) == []
        chimera = tuple(
            _id_by_label(inst, label)
            for label in (
                "a1_1_1", "a1_2_2", "a2_1_1", "a2_2_2",
                "b1_2_1", "b1_2_2", "b2_2_1", "b2_2_2",
                "la_0", "la_2", "lb_0", "lb_2", "ua_0", "ua_2", "ub_0", "ub_2",
            )
        )
        assert not is_induced_cycle(inst.graph, chimera)
        report = check_block_counts(inst, chimera)
        assert report["eight_blocks_exact"]
        assert report["input_blocks_within"]
        assert report["code_violations"] == [
            "a1: vertices outside sub-block 2 own the upper_a symbols",
            "a2: vertices outside sub-block 2 own the lower_a symbols",
        ]
        assert report["pairing_violations"] == [
            "sub-block pairing (2,2) does not point at a shared 1"
        ]
        assert not report["passed"]

    def test_paired_codes_stay_clean_on_disjoint_pairs_at_n3(self):
        rng = random.Random("paired-codes-n3")
        for _ in range(8):
            x, y = random_nonintersecting_pair(9, rng)
            inst = build_long_cycle_family(3, 2, 0, _pair(x, y), include_centers=False)
            assert list_induced_cycles(inst.graph, 16) == [], (x, y)


def _broken_harness() -> FamilyHarness:
    """A 4-bit family that breaks all four conditions: the vertex count
    follows x, side A's one internal edge follows y, side B's follows x,
    and the target is never found."""

    def build(pair: InputPair) -> FamilyInstance:
        n = 4 + pair.x.count("1")
        edges = [(1, 2)]
        if "1" in pair.y:
            edges.append((0, 1))
        if "1" in pair.x:
            edges.append((2, 3))
        g = Graph(n, edges)
        return FamilyInstance(
            family="broken", params={}, pair=pair, graph=g, side_a=(0, 1),
            labels={}, blocks={}, meta={},
        )

    return FamilyHarness(4, build, lambda inst: False)


class TestSampledVerification:
    """verify_family_conditions on its designed-plus-random battery."""

    def test_diamond_family_passes_on_sampled_pairs(self):
        harness = diamond_harness(build_diamond_fixture(16, 1))
        report = verify_family_conditions(harness, exhaustive=False)
        assert not report.exhaustive
        assert report.pairs_checked == 40
        assert report.intersecting_checked > 0 and report.disjoint_checked > 0
        assert report.passed, report.conditions

    def test_a_broken_family_fails_every_condition_up_to_the_cap(self):
        report = verify_family_conditions(_broken_harness(), exhaustive=False)
        assert not report.exhaustive and not report.passed
        assert report.pairs_checked == 40
        # Every intersecting pair misses its target, more than the cap.
        assert report.intersecting_checked > COUNTEREXAMPLE_CAP
        for name, condition in report.conditions.items():
            assert not condition["passed"], name
            assert len(condition["counterexamples"]) == COUNTEREXAMPLE_CAP, name

    def test_each_pair_is_built_once_plus_the_sampled_rebuilds(self):
        # The first pair's instance is the reference; nothing is built twice
        # for it.  A sampled battery rebuilds up to eight pairs against
        # fixed opposite inputs, two builds each.
        def counted(harness):
            builds = []

            def build(pair):
                builds.append(pair)
                return harness.build(pair)

            return dataclasses.replace(harness, build=build), builds

        harness, builds = counted(cycle_harness(2, 4))
        verify_family_conditions(harness)
        assert len(builds) == 256
        harness, builds = counted(_broken_harness())
        report = verify_family_conditions(harness, exhaustive=False)
        assert len(builds) == report.pairs_checked + 2 * min(8, report.pairs_checked)

    @pytest.mark.parametrize(("bits", "pairs"), [(0, 1), (1, 4), (2, 16), (3, 40)])
    def test_the_battery_stops_at_every_distinct_pair_of_a_small_family(self, bits, pairs):
        harness = dataclasses.replace(_broken_harness(), bit_count=bits)
        report = verify_family_conditions(harness, samples=40, exhaustive=False)
        assert report.pairs_checked == pairs

    def test_an_exhaustive_check_over_nine_bits_is_refused_before_any_build(self):
        builds = []
        harness = dataclasses.replace(_broken_harness(), bit_count=10, build=builds.append)
        rule = r"^an exhaustive check takes at most 9 bits \(4\^9 pairs\), this family has 10$"
        with pytest.raises(ValueError, match=rule):
            verify_family_conditions(harness, exhaustive=True)
        assert builds == []


# sha256 over every build of _builder_grid(): a changed vertex id,
# label, block, edge, side or meta entry of either builder shows here.
BUILDER_GRID_DIGEST = "a9c0ac37490e3db69046466af5a18a9889ca538301c01fa6f50d0213dd87fd4b"


def _builder_grid():
    """Seeded pairs for cycle n = 1..4, k = 4..9 and long-cycle
    n = 1..3, ell = 1..3, m = 0..3, with and without centers."""
    rng = random.Random(0)

    def pair(n: int) -> InputPair:
        return InputPair(random_bits(n * n, rng), random_bits(n * n, rng))

    for n, k in product(range(1, 5), range(4, 10)):
        yield build_cycle_family(n, k, pair(n))
    for n, ell, m in product(range(1, 4), range(1, 4), range(4)):
        for centers in (True, False):
            yield build_long_cycle_family(
                n, ell, m, pair(n), include_centers=centers
            )


def test_the_builders_are_pinned_byte_for_byte():
    digest = hashlib.sha256()
    for inst in _builder_grid():
        labels = {str(v): name for v, name in inst.labels.items()}
        fields = [inst.graph.to_text(), inst.side_a, labels, inst.blocks, inst.meta]
        digest.update(canonical_json_bytes([*fields, inst.params]))
    assert digest.hexdigest() == BUILDER_GRID_DIGEST


def _split_instances() -> list[FamilyInstance]:
    """A cycle, a centered long-cycle and a diamond instance."""
    fixture = build_diamond_fixture(16, 1)
    bits = fixture.bit_count
    return [
        build_cycle_family(2, 5, _pair("1001", "0101")),
        build_long_cycle_family(2, 2, 1, _pair("0110", "0100")),
        build_diamond_family(fixture, _pair(ones(bits), singleton(bits, 0))),
    ]


class TestInstanceSplit:
    @pytest.mark.parametrize("inst", _split_instances(), ids=lambda i: i.family)
    def test_side_b_and_the_cut_follow_from_side_a(self, inst):
        side_a = set(inst.side_a)
        assert inst.side_a == tuple(sorted(side_a))
        assert inst.side_b == tuple(v for v in range(inst.graph.n) if v not in side_a)
        assert inst.cut_edges == crossing_edges(inst.graph, side_a)
        assert inst.cut_size == len(inst.cut_edges)

    @pytest.mark.parametrize("side_a", [(1, 0), (0, 0, 1), (-1, 0), (2, 4)])
    def test_side_a_must_be_ascending_distinct_graph_vertices(self, side_a):
        with pytest.raises(ValueError, match="side_a"):
            FamilyInstance(
                family="t", params={}, pair=_pair("0", "0"), graph=Graph(4, []),
                side_a=side_a, labels={}, blocks={}, meta={},
            )

    @pytest.mark.parametrize("inst", _split_instances(), ids=lambda i: i.family)
    def test_a_bundle_round_trip_keeps_every_field(self, inst, tmp_path):
        back = read_bundle(write_bundle(inst, tmp_path / inst.family))
        for name in (
            "family", "params", "pair", "graph", "side_a", "side_b",
            "cut_edges", "labels", "blocks", "meta",
        ):
            assert getattr(back, name) == getattr(inst, name), name

    def test_reading_a_bundle_and_its_cut_computes_the_cut_once(
        self, tmp_path, monkeypatch
    ):
        inst = build_cycle_family(2, 5, _pair("1001", "0101"))
        write_bundle(inst, tmp_path)
        calls = []

        def counted(g, side_a):
            calls.append(side_a)
            return crossing_edges(g, side_a)

        for module in (bundles, families):
            monkeypatch.setattr(module, "crossing_edges", counted)
        assert read_bundle(tmp_path).cut_edges == inst.cut_edges
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "file_name, key", [("meta.json", "labels"), ("inputs.json", "x_hex")]
    )
    def test_a_missing_bundle_key_is_named_with_its_file(self, tmp_path, file_name, key):
        inst = build_cycle_family(2, 5, _pair("1001", "0101"))
        path = write_bundle(inst, tmp_path) / file_name
        stored = json.loads(path.read_text())
        del stored[key]
        path.write_text(json.dumps(stored))
        with pytest.raises(ValueError) as info:
            read_bundle(tmp_path)
        assert str(info.value) == f"missing key {key} in {path}"


class TestBlockCountAudit:
    def test_canonical_cycle_passes_all_clauses(self):
        inst = build_long_cycle_family(2, 2, 0, _pair("0001", "0001"), include_centers=False)
        cycles = list_induced_cycles(inst.graph, 16)
        assert len(cycles) == 1
        rep = check_block_counts(inst, cycles[0])
        assert rep["eight_blocks_exact"]
        assert rep["input_blocks_within"]
        assert all(v == 2 for v in rep["counts"].values())
        assert rep["code_violations"] == []
        assert rep["pairing_violations"] == []
        assert rep["passed"]

    def test_singleton_code_counts_are_all_one(self):
        inst = build_long_cycle_family(2, 1, 0, _pair("0001", "0001"), include_centers=False)
        cycles = list_induced_cycles(inst.graph, 8)
        assert len(cycles) == 1
        rep = check_block_counts(inst, cycles[0])
        assert all(v == 1 for v in rep["counts"].values())
        assert rep["code_violations"] == []

    # The slot-(1,1) target cycle of the singleton-code family at n = 2.
    CANONICAL = ("a1_1_1", "ua_0", "ub_0", "b1_1_1", "b2_1_1", "lb_0", "la_0", "a2_1_1")

    @staticmethod
    def _audit(labels, x="1000", y="1000", include_centers=False):
        inst = build_long_cycle_family(
            2, 1, 0, _pair(x, y), include_centers=include_centers
        )
        rep = check_block_counts(inst, tuple(_id_by_label(inst, lab) for lab in labels))
        assert rep["eight_blocks_exact"] and rep["code_violations"] == []
        assert not rep["passed"]
        return rep["pairing_violations"]

    def test_a_center_on_the_cycle_is_a_pairing_violation(self):
        (message,) = self._audit((*self.CANONICAL, "center_a"), include_centers=True)
        assert message.startswith("cycle touches centers")

    def test_upper_sub_blocks_that_disagree_are_a_pairing_violation(self):
        labels = [{"b1_1_1": "b1_2_1", "ub_0": "ub_1"}.get(v, v) for v in self.CANONICAL]
        assert self._audit(labels) == ["a1 and b1 sub-blocks disagree"]

    def test_lower_sub_blocks_that_disagree_are_a_pairing_violation(self):
        labels = [{"b2_1_1": "b2_2_1", "lb_0": "lb_1"}.get(v, v) for v in self.CANONICAL]
        assert self._audit(labels) == ["a2 and b2 sub-blocks disagree"]

    def test_a_pairing_off_the_shared_ones_is_a_pairing_violation(self):
        assert self._audit(self.CANONICAL, y="0000") == [
            "sub-block pairing (1,1) does not point at a shared 1"
        ]

    def test_code_symbols_that_match_no_code_are_a_code_violation(self):
        # The slot-(2,2) cycle of the paired-code family at n = 2 uses the
        # upper_a symbols {0, 2}; swapping ua_0 for ua_1 leaves {1, 2},
        # which is no sub-block's code (the codes are {0, 1} and {0, 2}).
        inst = build_long_cycle_family(2, 2, 0, _pair("0001", "0001"), include_centers=False)
        (cycle,) = list_induced_cycles(inst.graph, 16)
        ua_0, ua_1 = _id_by_label(inst, "ua_0"), _id_by_label(inst, "ua_1")
        rep = check_block_counts(inst, tuple(ua_1 if v == ua_0 else v for v in cycle))
        assert rep["eight_blocks_exact"] and rep["input_blocks_within"]
        assert rep["code_violations"] == ["upper_a: symbols [1, 2] match no sub-block code"]
        assert rep["pairing_violations"] == []
        assert not rep["passed"]

    def test_audit_rejects_padded_instances(self):
        inst = build_long_cycle_family(2, 1, 2, _pair("0001", "0001"), include_centers=False)
        cycles = list_induced_cycles_naive(inst.graph, 10)
        with pytest.raises(ValueError):
            check_block_counts(inst, cycles[0])

    def test_audit_rejects_other_families(self):
        inst = build_four_cycle_family(2, _pair("1000", "1000"))
        with pytest.raises(ValueError):
            check_block_counts(inst, (0, 2, 4, 6))


def _id_by_label(inst, label: str) -> int:
    matches = [v for v, name in inst.labels.items() if name == label]
    assert len(matches) == 1, label
    return matches[0]
