"""Tests for the synchronous bandwidth-limited message-passing simulator."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from congestlab.bitstrings import bits_intersect
from congestlab.congest import (
    NodeProgram,
    ProtocolViolation,
    RunStats,
    SimConfig,
    constant_program,
    cut_traffic_bound_check,
    default_bandwidth,
    encode_uint,
    flood_program,
    naive_four_cycle_program,
    run,
    silent_program,
    word_bits,
)
from congestlab.families import InputPair, build_four_cycle_family
from congestlab.graphs import Graph, crossing_edges, list_induced_cycles_naive, random_graph

PROPERTY_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestWords:
    def test_word_width_covers_all_ids(self):
        assert word_bits(2) == 1
        assert word_bits(8) == 3
        assert word_bits(9) == 4
        assert default_bandwidth(8) == 6
        # Against the definition: the fewest bits (at least 1) that
        # address ids 0..n-1.
        for n in range(1, 5000):
            w = word_bits(n)
            assert 2**w >= n and (w == 1 or 2 ** (w - 1) < n), n

    @PROPERTY_SETTINGS
    @given(n=st.integers(min_value=2, max_value=4096))
    def test_every_vertex_id_round_trips_at_word_width(self, n: int):
        w = word_bits(n)
        for v in (0, n // 2, n - 1):
            bits = encode_uint(v, w)
            assert len(bits) == w and int(bits, 2) == v

    def test_encode_rejects_values_too_wide(self):
        with pytest.raises(ValueError):
            encode_uint(8, 3)


class TestStockPrograms:
    def test_constant_one_decides_immediately_without_messages(self):
        stats = run(_cycle_graph(5), constant_program(1))
        assert stats.rounds_used == 1
        assert stats.decision == 1
        assert stats.message_count == 0

    def test_constant_zero_reaches_a_zero_decision(self):
        stats = run(_cycle_graph(5), constant_program(0))
        assert stats.decision == 0
        assert stats.node_outputs == (0,) * 5

    def test_silent_program_times_out_at_the_round_cap(self):
        stats = run(_cycle_graph(4), silent_program(), SimConfig(max_rounds=7))
        assert stats.timed_out
        assert stats.rounds_used == 7
        assert stats.decision is None

    @pytest.mark.parametrize(
        ("kwargs", "field"),
        [
            ({"max_rounds": 0}, "max_rounds"),
            ({"max_rounds": -3}, "max_rounds"),
            ({"bandwidth_bits": 0}, "bandwidth_bits"),
            ({"bandwidth_bits": -1}, "bandwidth_bits"),
        ],
    )
    def test_config_rejects_counts_below_one(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            SimConfig(**kwargs)

    def test_config_accepts_the_smallest_counts_and_the_default_bandwidth(self):
        assert SimConfig(max_rounds=1, bandwidth_bits=1).max_rounds == 1
        assert SimConfig(bandwidth_bits=None).bandwidth_bits is None

    def test_flood_timing_matches_send_then_deliver(self):
        # Messages sent in round r are read in round r + 1, so the
        # farthest node on an 8-cycle (distance 4) decides in round 4
        # and the run completes after 5 rounds.
        stats = run(_cycle_graph(8), flood_program(0))
        assert not stats.timed_out
        assert stats.rounds_used == 5
        assert stats.decision == 1

    def test_flood_on_a_path_takes_length_plus_one_rounds(self):
        stats = run(_path_graph(6), flood_program(0))
        assert stats.rounds_used == 6

    def test_staggered_decisions_end_the_run_after_the_last_one(self):
        # On a path, node v decides v % 2 in round v and sends nothing;
        # an isolated idle node decides in round 0.  Every node is
        # stepped every round until the last decision.
        steps: list[tuple[int, int]] = []

        def init(v, neighbors, n):
            return v

        def step(state, r, inbox):
            steps.append((state, r))
            decided = state == 6 or r >= state
            return state, [], (state % 2 if decided else None)

        g = Graph(7, [(i, i + 1) for i in range(5)])
        prog = NodeProgram(name="staggered", init=init, step=step)
        stats = run(g, prog)
        assert stats.rounds_used == 6
        assert not stats.timed_out
        assert stats.node_outputs == (0, 1, 0, 1, 0, 1, 0)
        assert stats.per_round_cut_bits == (0,) * 6
        assert steps == [(v, r) for r in range(6) for v in range(7)]

        capped = run(g, prog, SimConfig(max_rounds=4))
        assert capped.timed_out and capped.rounds_used == 4
        assert capped.node_outputs == (0, 1, 0, 1, None, None, 0)

    def test_a_program_woken_in_round_0_steps_only_the_nodes_with_mail_after_it(self):
        # The same path and isolated node.  In round 0 node 3 decides and
        # sends to 4, then to 2, and node 6 decides; a node that hears
        # from u decides v % 2 and relays away from u.  Mail reaches 4
        # before 2, yet 2 is stepped first: id order, not mail order.
        steps: list[tuple[int, int]] = []

        def init(v, neighbors, n):
            return v, neighbors

        def step(state, r, inbox):
            v, nbrs = state
            steps.append((v, r))
            if r == 0 and v in (3, 6):
                return state, ([(4, "1"), (2, "1")] if v == 3 else []), v % 2
            if not inbox:
                return state, [], None
            return state, [(u, "1") for u in nbrs if u not in inbox], v % 2

        g = Graph(7, [(i, i + 1) for i in range(5)])
        prog = NodeProgram(
            name="staggered", init=init, step=step, wakes=lambda v, neighbors, n: (0,)
        )
        stats = run(g, prog)
        assert stats.rounds_used == 4
        assert not stats.timed_out
        assert stats.node_outputs == (0, 1, 0, 1, 0, 1, 0)
        assert stats.per_round_cut_bits == (0,) * 4
        assert steps == [(v, 0) for v in range(7)] + [(2, 1), (4, 1), (1, 2), (5, 2), (0, 3)]

        steps.clear()
        capped = run(g, prog, SimConfig(max_rounds=2))
        assert capped.timed_out and capped.rounds_used == 2
        assert capped.node_outputs == (None, None, 0, 1, 0, None, 0)
        assert steps == [(v, 0) for v in range(7)] + [(2, 1), (4, 1)]

    def test_a_flood_that_dies_out_jumps_to_the_round_cap(self):
        # Nodes 0 and 1 trade the token over the cut edge in rounds 0 and
        # 1; round 2 brings 0 one last message, and then no mail is left.
        g = Graph(1000, [(0, 1)])
        cap = 10**5
        stats = run(g, flood_program(0), SimConfig(max_rounds=cap), cut=frozenset({(0, 1)}))
        assert stats.timed_out and stats.rounds_used == cap
        assert stats.node_outputs == (1, 1) + (None,) * 998
        assert stats.per_round_cut_bits == (1, 1) + (0,) * (cap - 2)
        assert stats.total_cut_bits == stats.message_count == 2

    def test_a_silent_run_steps_each_node_once_and_jumps_to_the_cap(self):
        steps = []
        silent = silent_program()

        def counted(state, r, inbox):
            steps.append(r)
            return silent.step(state, r, inbox)

        prog = dataclasses.replace(silent, step=counted)
        stats = run(Graph(1000, []), prog, cut=frozenset())
        assert stats.timed_out and stats.rounds_used == SimConfig().max_rounds
        assert stats.per_round_cut_bits == (0,) * SimConfig().max_rounds
        assert stats.decision is None
        assert steps == [0] * 1000


def _raises_violation(program: str, node: int, round_index: int):
    """Expect a fault whose message names the program, node and round."""
    where = rf"^program {program}: node {node} .* in round {round_index}$"
    return pytest.raises(ProtocolViolation, match=where)


class TestViolations:
    def test_oversized_message_is_rejected(self):
        def init(v, neighbors, n):
            return neighbors

        def step(state, r, inbox):
            return state, [(u, "0" * 50) for u in state], 0

        prog = NodeProgram(name="chatty", init=init, step=step)
        with _raises_violation("chatty", 0, 0):
            run(_cycle_graph(4), prog, SimConfig(bandwidth_bits=8))

    def test_sending_to_a_non_neighbor_is_rejected(self):
        def init(v, neighbors, n):
            return v

        def step(state, r, inbox):
            target = (state + 2) % 4
            return state, [(target, "1")], 0

        prog = NodeProgram(name="teleport", init=init, step=step)
        with _raises_violation("teleport", 0, 0):
            run(_cycle_graph(4), prog)

    def test_two_messages_over_one_edge_in_a_round_are_rejected(self):
        def init(v, neighbors, n):
            return neighbors

        def step(state, r, inbox):
            u = state[0]
            return state, [(u, "1"), (u, "0")], 0

        prog = NodeProgram(name="doubled", init=init, step=step)
        with _raises_violation("doubled", 0, 0):
            run(_cycle_graph(4), prog)

    def test_non_bit_payload_is_rejected(self):
        # Node 2 sends the bad payload in round 1, after a clean round 0.
        for payload in ("2", "0120", "01 ", " 01", b"01", 1, None):

            def init(v, neighbors, n):
                return (v, neighbors)

            def step(state, r, inbox):
                v, nbrs = state
                bits = payload if (v, r) == (2, 1) else "01"
                return state, [(nbrs[0], bits)], 0 if r else None

            prog = NodeProgram(name="nonbinary", init=init, step=step)
            with _raises_violation("nonbinary", 2, 1):
                run(_cycle_graph(4), prog)

    def test_empty_payload_is_a_message(self):
        def init(v, neighbors, n):
            return neighbors

        def step(state, r, inbox):
            return state, [(state[0], "")], 0

        stats = run(_cycle_graph(4), NodeProgram(name="empty", init=init, step=step))
        assert stats.message_count == 4
        assert stats.max_message_bits == 0
        assert stats.decision == 0

    @staticmethod
    def _one_outbox_program(outbox) -> NodeProgram:
        """Node 0 sends *outbox* in round 0; everyone decides 0 at once."""

        def init(v, neighbors, n):
            return v

        def step(state, r, inbox):
            return state, (outbox if (state, r) == (0, 0) else []), 0

        return NodeProgram(name="one-outbox", init=init, step=step)

    @pytest.mark.parametrize(
        ("outbox", "fault"),
        [
            ([(1, "0" * 9), (2, "1"), (1, "1")], "sent 9 bits > bandwidth 8"),
            ([(1, "1"), (1, "0" * 9), (2, "1")], "sent twice over edge to 1"),
            ([(1, "1"), (2, "x"), (0, "1")], "sent non-bitstring 'x'"),
            ([(2, "1"), (4, "2"), (2, "1")], "sent to non-neighbor 4"),
            ([(3, "1"), (1, "1"), (3, "0" * 9)], "sent twice over edge to 3"),
        ],
    )
    def test_the_first_faulty_message_in_send_order_is_reported(self, outbox, fault):
        prog = self._one_outbox_program(outbox)
        where = rf"^program one-outbox: node 0 {fault} in round 0$"
        with pytest.raises(ProtocolViolation, match=where):
            run(_complete_graph(4), prog, SimConfig(bandwidth_bits=8))

    @pytest.mark.parametrize(
        "outbox",
        [
            pytest.param([(1, "012"), (2, "012")], id="012"),
            pytest.param([(1, "0" * 9), (2, "0" * 9)], id="000000000"),
            pytest.param([(1, b"01"), (2, b"01")], id="01"),
            # Broadcasts, to all three neighbors of node 0.
            pytest.param("012", id="broadcast-012"),
            pytest.param("0" * 9, id="broadcast-000000000"),
        ],
    )
    def test_a_bad_payload_sent_to_two_neighbors_is_rejected(self, outbox):
        config = SimConfig(bandwidth_bits=8)
        prog = self._one_outbox_program(outbox)
        with _raises_violation("one-outbox", 0, 0) as raised:
            run(_complete_graph(4), prog, config)
        if isinstance(outbox, str):
            # The text is the one of the list with a pair per neighbor.
            listed = self._one_outbox_program([(u, outbox) for u in (1, 2, 3)])
            with pytest.raises(ProtocolViolation) as expected:
                run(_complete_graph(4), listed, config)
            assert str(raised.value) == str(expected.value)

    def test_an_empty_broadcast_sends_one_empty_message_per_neighbor(self):
        def init(v, neighbors, n):
            return {}

        def step(state, r, inbox):
            state.update(inbox)
            return state, ("" if r == 0 else []), (0 if r else None)

        prog = NodeProgram(name="hush", init=init, step=step, collect=dict)
        stats = run(_path_graph(3), prog)
        assert stats.message_count == 4
        assert stats.max_message_bits == 0
        assert stats.listings == {0: {1: ""}, 1: {0: "", 2: ""}, 2: {1: ""}}

    @pytest.mark.parametrize("payload", ["0101", "", "2", "1" * 9])
    def test_a_broadcast_from_an_isolated_node_sends_and_checks_nothing(self, payload):
        # Node 2 has no neighbors, so its broadcast is no message at all,
        # as an empty list would be; even a faulty payload is not looked at.
        def init(v, neighbors, n):
            return v

        def step(state, r, inbox):
            return state, (payload if state == 2 else []), 0

        prog = NodeProgram(name="alone", init=init, step=step)
        stats = run(Graph(3, [(0, 1)]), prog, SimConfig(bandwidth_bits=8))
        assert stats.message_count == 0
        assert stats.max_message_bits == 0
        assert stats.decision == 0

    def test_an_oversized_payload_after_a_shared_valid_one_is_rejected(self):
        shared = "0101"
        prog = self._one_outbox_program([(1, shared), (2, shared), (3, "1" * 9)])
        where = r"node 0 sent 9 bits > bandwidth 8 in round 0$"
        with pytest.raises(ProtocolViolation, match=where):
            run(_complete_graph(4), prog, SimConfig(bandwidth_bits=8))

    def test_max_message_bits_covers_a_mixed_length_outbox(self):
        long = "0101"
        prog = self._one_outbox_program([(1, long), (2, "0"), (3, long)])
        stats = run(_complete_graph(4), prog, SimConfig(bandwidth_bits=8))
        assert stats.message_count == 3
        assert stats.max_message_bits == 4
        prog = self._one_outbox_program([(1, ""), (2, "0"), (3, "101")])
        assert run(_complete_graph(4), prog).max_message_bits == 3

    def test_an_output_other_than_zero_or_one_is_rejected(self):
        def init(v, neighbors, n):
            return v

        def step(state, r, inbox):
            return state, [], 2 if (state, r) == (1, 2) else None

        prog = NodeProgram(name="ternary", init=init, step=step)
        with _raises_violation("ternary", 1, 2):
            run(_cycle_graph(4), prog, SimConfig(max_rounds=4))

    def test_flipping_a_final_output_is_rejected(self):
        # Node 0 flips its decision in round 1; node 1 stays undecided
        # so the run is still alive to observe the flip.
        def init(v, neighbors, n):
            return v

        def step(state, r, inbox):
            out = (r % 2) if state == 0 else None
            return state, [], out

        prog = NodeProgram(name="waffler", init=init, step=step)
        with _raises_violation("waffler", 0, 1):
            run(_cycle_graph(4), prog, SimConfig(max_rounds=4))


class TestDeterminism:
    @staticmethod
    def _noisy_program(seed: int) -> NodeProgram:
        """Each node draws three bits from its own stream, seeded from
        *seed* and its id, and sends one per round."""

        def init(v, neighbors, n):
            rng = random.Random(f"{seed}:{v}")
            return {"nbrs": neighbors, "bits": [str(rng.randint(0, 1)) for _ in range(3)]}

        def step(state, r, inbox):
            if r < 3:
                return state, [(u, state["bits"][r]) for u in state["nbrs"]], None
            return state, [], 0

        return NodeProgram(name="noisy", init=init, step=step)

    def test_same_seed_gives_identical_stats(self):
        g = random_graph(12, 0.3, random.Random(5))
        a = run(g, self._noisy_program(9), cut=g.edges)
        b = run(g, self._noisy_program(9), cut=g.edges)
        assert a == b

    def test_per_node_streams_differ_across_nodes(self):
        g = _cycle_graph(6)
        stats = run(g, self._noisy_program(0), cut=g.edges)
        payloads = {bits for _, _, _, bits in stats.cut_messages}
        assert payloads == {"0", "1"}
        assert stats.message_count == 6 * 2 * 3


class TestCutAccounting:
    def test_without_a_cut_no_traffic_is_charged(self):
        # No cut records nothing; an empty cut records no message.
        for cut, recorded in ((None, None), (frozenset(), ())):
            stats = run(_cycle_graph(8), flood_program(0), cut=cut)
            assert stats.total_cut_bits == 0
            assert stats.message_count > 0
            assert stats.cut_messages == recorded

    def test_cut_traffic_counts_only_marked_edges(self):
        g = _cycle_graph(8)
        cut = frozenset({(0, 1)})
        stats = run(g, flood_program(0), cut=cut)
        # Node 0 floods once over (0, 1); node 1 echoes back once.
        assert stats.total_cut_bits == 2
        assert stats.cut_messages == ((0, 0, 1, "1"), (1, 1, 0, "1"))

    def test_a_broadcast_is_accounted_as_the_list_of_its_pairs(self):
        # Each node sends two rounds of payloads to all its neighbors,
        # once as one string and once as a list in ascending order; the
        # graph has an isolated node and the cut crosses a half split.
        def program(as_string: bool) -> NodeProgram:
            def init(v, neighbors, n):
                return v, neighbors

            def step(state, r, inbox):
                v, nbrs = state
                if r == 2:
                    return state, [], 0
                bits = format(v + r, "b")
                return state, (bits if as_string else [(u, bits) for u in nbrs]), None

            return NodeProgram(name="shout", init=init, step=step)

        g = Graph(13, random_graph(12, 0.3, random.Random(3)).edges)
        cut = crossing_edges(g, range(6))
        broadcast, listed = (run(g, program(form), cut=cut) for form in (True, False))
        assert broadcast == listed
        assert broadcast.total_cut_bits > 0

    def test_a_cut_pair_counts_in_either_orientation_and_a_non_edge_is_refused(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        forward, backward = (run(g, flood_program(0), cut=frozenset({e})) for e in ((1, 2), (2, 1)))
        assert forward == backward
        assert forward.cut_messages == ((1, 1, 2, "1"), (2, 2, 1, "1"))
        assert forward.total_cut_bits == 2
        with pytest.raises(ValueError, match=r"not edges: \[\(0, 2\), \(0, 3\)\]$"):
            run(g, flood_program(0), cut=frozenset({(2, 1), (3, 0), (0, 2)}))

    def test_per_round_cut_bits_and_timed_out_are_views_of_the_log(self):
        # The cut log is stored once; the per-round list and the timeout
        # flag are derived from it and from the outputs.
        stored = [f.name for f in dataclasses.fields(RunStats)]
        assert stored == [
            "rounds_used",
            "node_outputs",
            "total_cut_bits",
            "message_count",
            "max_message_bits",
            "cut_messages",
            "listings",
        ]
        stats = run(_cycle_graph(6), flood_program(0), cut=frozenset({(0, 1), (2, 3)}))
        assert stats.per_round_cut_bits == (1, 1, 1, 1)
        assert not stats.timed_out
        capped = dataclasses.replace(stats, node_outputs=(1, None) + (1,) * 4)
        assert capped.timed_out and capped.decision is None

    def test_bound_check_reports_slack(self):
        g = _cycle_graph(8)
        stats = run(g, flood_program(0), cut=frozenset({(0, 1)}))
        report = cut_traffic_bound_check(stats, cut_size=1, bandwidth=default_bandwidth(8))
        assert report.ok
        assert report.bound_bits == stats.rounds_used * 2 * 1 * default_bandwidth(8)
        assert report.slack_bits == report.bound_bits - stats.total_cut_bits


class TestFourCycleDetection:
    def test_matches_the_oracle_on_random_graphs(self):
        rng = random.Random(2)
        for _ in range(12):
            g = random_graph(rng.randint(5, 12), rng.choice([0.2, 0.4]), rng)
            stats = run(g, naive_four_cycle_program())
            assert not stats.timed_out
            cycles = list_induced_cycles_naive(g, 4)
            assert stats.decision == (1 if cycles else 0)
            # Each node decides whether it lies on an induced 4-cycle.
            on_cycle = {v for c in cycles for v in c}
            assert stats.node_outputs == tuple(int(v in on_cycle) for v in range(g.n))

    def test_decides_within_n_rounds(self):
        g = random_graph(10, 0.3, random.Random(1))
        stats = run(g, naive_four_cycle_program())
        assert stats.rounds_used == g.n

    @PROPERTY_SETTINGS
    @given(
        x=st.text(alphabet="01", min_size=4, max_size=4),
        y=st.text(alphabet="01", min_size=4, max_size=4),
    )
    def test_matches_intersection_on_family_instances(self, x: str, y: str):
        inst = build_four_cycle_family(2, InputPair(x, y))
        stats = run(inst.graph, naive_four_cycle_program(), cut=inst.cut_edges)
        assert stats.decision == (1 if bits_intersect(x, y) else 0)
        check = cut_traffic_bound_check(
            stats, inst.cut_size, default_bandwidth(inst.graph.n)
        )
        assert check.ok
