"""The simulator against its naive twin (``reference_sim``).

Random programs on random graphs, each run as a plain program, as one
woken in round 0 alone and as one with a seeded wake schedule, must give
equal ``RunStats`` on every field, listings included, or fail with the
same ``ProtocolViolation`` text.  The stock programs are compared on
seeded graphs and on four-cycle family instances with their cuts.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_sim import reference_run

from congestlab.congest import (
    PROGRAMS,
    NodeProgram,
    ProtocolViolation,
    SimConfig,
    default_bandwidth,
    flood_program,
    naive_four_cycle_program,
    run,
)
from congestlab.families import InputPair, build_four_cycle_family
from congestlab.graphs import Graph, crossing_edges, random_graph

NON_BIT_PAYLOADS = (None, "2", "0 1", b"01", 1)


def _outcome(runner, g, program, config, cut):
    try:
        return runner(g, program, config, cut=cut)
    except ProtocolViolation as exc:
        return f"ProtocolViolation: {exc}"


def _round_zero(v, neighbors, n):
    return (0,)


def _seeded_wakes(seed: int):
    """Up to four wake rounds per node, drawn from its own stream; some
    repeat, and some fall outside the round range a run can reach."""

    def wakes(v, neighbors, n):
        rng = random.Random(f"{seed}:wakes:{v}")
        return [rng.randrange(-1, 14) for _ in range(rng.randint(0, 4))]

    return wakes


def _random_program(fault_rate: float, bandwidth: int, seed: int, wakes=None) -> NodeProgram:
    """Each node draws its moves from its own stream, seeded from *seed*
    and its id.  It logs its mail, decides, flips or stays silent, and
    sends nothing, a shared payload listed once per neighbour, the same
    payload as a string broadcast (possibly empty, and from isolated
    nodes too), or distinct payloads to neighbours in random order.
    With probability *fault_rate* a step flips its output or emits 2,
    and with that probability again one or two listed messages each
    break a rule, or the broadcast string is oversize or not bits.  Given
    a wake schedule, a node draws and acts only in its wake rounds or
    with mail, and otherwise repeats its last output."""

    def payload(rng):
        return "".join(rng.choice("01") for _ in range(rng.randint(0, bandwidth)))

    def faulty(rng, outbox, nbrs, n):
        kind = rng.randrange(4)
        if kind == 0:
            strangers = [u for u in range(n + 1) if u not in nbrs]
            return rng.choice(strangers), payload(rng)
        if kind == 1 and outbox:
            return rng.choice(outbox)[0], payload(rng)
        if kind == 2:
            return rng.choice(nbrs or (0,)), rng.choice(NON_BIT_PAYLOADS)
        return rng.choice(nbrs or (0,)), "1" * (bandwidth + 1 + rng.randrange(3))

    def init(v, neighbors, n):
        rng = random.Random(f"{seed}:{v}")
        awake = None if wakes is None else set(wakes(v, neighbors, n))
        return {
            "n": n,
            "nbrs": neighbors,
            "rng": rng,
            "awake": awake,
            "out": None,
            "said": None,
            "heard": [],
        }

    def step(state, r, inbox):
        if state["awake"] is not None and r not in state["awake"] and not inbox:
            return state, [], state["said"]
        rng, nbrs = state["rng"], state["nbrs"]
        state["heard"] += [(r, src, bits) for src, bits in inbox.items()]
        if state["out"] is None and rng.random() < 0.5:
            state["out"] = rng.randint(0, 1)
        out, said = state["out"], state["said"]
        if said is not None and rng.random() < fault_rate:
            out = rng.choice((1 - said, 2))
        elif rng.random() < 0.2:
            out = None
        state["said"] = said if out is None else out
        mode = rng.random()
        shared = payload(rng)
        if mode < 0.25:
            outbox = []
        elif mode < 0.45:
            outbox = [(u, shared) for u in nbrs]
        elif mode < 0.65:
            outbox = shared
        else:
            dsts = rng.sample(nbrs, rng.randint(0, len(nbrs)))
            outbox = [(u, shared if rng.random() < 0.3 else payload(rng)) for u in dsts]
        if rng.random() < fault_rate:
            if isinstance(outbox, str):
                outbox = rng.choice(("2", "0 1", "1" * (bandwidth + 1 + rng.randrange(3))))
            else:
                for _ in range(rng.randint(1, 2)):
                    bad = faulty(rng, outbox, nbrs, state["n"])
                    outbox.insert(rng.randint(0, len(outbox)), bad)
        return state, outbox, out

    def collect(state):
        return tuple(state["heard"]) or None

    return NodeProgram("random", init, step, collect, wakes=wakes)


def _four_cycle_instances(n: int, seed: int):
    """A seeded disjoint pair and a seeded intersecting pair at size n."""
    rng = random.Random(seed)
    x = "".join(rng.choice("01") for _ in range(n * n))
    disjoint = "".join(rng.choice("01") if b == "0" else "0" for b in x)
    return [build_four_cycle_family(n, InputPair(x, y)) for y in (disjoint, x)]


def stock_program_cases() -> list[tuple[int, Graph, frozenset]]:
    """(seed, graph, cut) cases for the stock programs: four seeded
    graphs cut in half, the c4 instances at n = 2 and 3, and the empty
    graph, where no node means no mail and no wake, so a run still ends
    in round 0."""
    cases = []
    for seed in range(4):
        g = random_graph(10 + seed, 0.15 + 0.05 * seed, random.Random(seed))
        cases.append((seed, g, crossing_edges(g, range(g.n // 2))))
    for n in (2, 3):
        for seed, inst in enumerate(_four_cycle_instances(n, n)):
            cases.append((seed, inst.graph, inst.cut_edges))
    cases.append((0, Graph(0, []), frozenset()))
    return cases


@st.composite
def _instances(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, edges)
    cut = draw(st.none() | st.frozensets(st.sampled_from(edges))) if edges else None
    config = SimConfig(
        bandwidth_bits=draw(st.none() | st.integers(min_value=1, max_value=6)),
        max_rounds=draw(st.integers(min_value=1, max_value=12)),
    )
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return g, cut, config, seed


class TestAgainstTheTwin:
    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(instance=_instances(), fault_rate=st.sampled_from((0.0, 0.02, 0.1, 0.3)))
    def test_random_programs_match_the_twin(self, instance, fault_rate):
        g, cut, config, seed = instance
        bandwidth = config.bandwidth_bits or default_bandwidth(g.n)
        for wakes in (None, _round_zero, _seeded_wakes(seed)):
            program = _random_program(fault_rate, bandwidth, seed, wakes)
            assert _outcome(run, g, program, config, cut) == _outcome(
                reference_run, g, program, config, cut
            )

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_stock_programs_match_the_twin(self, name):
        config = SimConfig(max_rounds=30)
        for seed, g, cut in stock_program_cases():
            program = flood_program(seed) if name == "flood" else PROGRAMS[name]()
            assert _outcome(run, g, program, config, cut) == _outcome(
                reference_run, g, program, config, cut
            )

    def test_a_program_acting_outside_its_schedule_is_caught_by_the_twin(self):
        # Each node wakes in round 0 alone, yet decides 1 in round 3
        # without mail.  The engine never steps it there, so it cannot
        # see the broken promise; the twin steps every round and does.
        def init(v, neighbors, n):
            return None

        def step(state, r, inbox):
            return state, [], (1 if r >= 3 else None)

        program = NodeProgram("sleepwalker", init, step, wakes=_round_zero)
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        config = SimConfig(max_rounds=10)
        ours = run(g, program, config)
        twin = reference_run(g, program, config)
        assert ours.timed_out and ours.decision is None
        assert not twin.timed_out and twin.rounds_used == 4 and twin.decision == 1
        assert _outcome(run, g, program, config, None) != _outcome(
            reference_run, g, program, config, None
        )

    def test_a_program_writing_to_its_inbox_is_caught_by_the_twin(self):
        # No mail exists in round 0, yet each node files itself in its
        # inbox.  The engine hands every mail-free node one shared empty
        # inbox, so node 1 sees node 0's entry and decides 1; the twin's
        # read-only view refuses the write.
        def init(v, neighbors, n):
            return v

        def step(v, r, inbox):
            heard = len(inbox)
            inbox[v] = "1"
            return v, [], int(heard > 0)

        program = NodeProgram("scribbler", init, step)
        g = Graph(2, [(0, 1)])
        assert run(g, program).node_outputs == (0, 1)
        with pytest.raises(TypeError):
            reference_run(g, program)


def test_four_cycle_program_steps_only_in_its_wake_rounds_and_on_mail():
    # A node streams in rounds 0..deg - 1 and decides in round V - 1; its
    # neighbor u's stream brings it mail in rounds 1..deg(u).  It must be
    # stepped in exactly those rounds, once each, not in all V.
    inst = _four_cycle_instances(5, 26)[0]
    g = inst.graph
    four_cycle = naive_four_cycle_program()
    stepped = []

    def init(v, neighbors, n):
        return v, four_cycle.init(v, neighbors, n)

    def step(state, r, inbox):
        v, inner = state
        stepped.append((v, r))
        inner, outbox, out = four_cycle.step(inner, r, inbox)
        return (v, inner), outbox, out

    counted = dataclasses.replace(four_cycle, init=init, step=step)
    stats = run(g, counted, cut=inst.cut_edges)
    assert stats == run(g, naive_four_cycle_program(), cut=inst.cut_edges)
    assert stats.rounds_used == g.n and stats.decision == 0
    expected = []
    for v in range(g.n):
        mail = {r + 1 for u in g.adj[v] for r in range(g.degree(u))}
        rounds = mail | set(range(g.degree(v))) | {g.n - 1}
        expected += [(v, r) for r in rounds]
    assert sorted(stepped) == sorted(expected)
