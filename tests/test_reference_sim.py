"""The simulator against its naive twin (``reference_sim``).

Random programs on random graphs, each run as a plain program and as a
reactive one, must give equal ``RunStats`` on every field, listings
included, or fail with the same ``ProtocolViolation`` text.  The stock
programs are compared on seeded graphs.
"""

from __future__ import annotations

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
    run,
)
from congestlab.graphs import Graph, crossing_edges, random_graph

NON_BIT_PAYLOADS = (None, "2", "0 1", b"01", 1)


def _outcome(runner, g, program, config, cut):
    try:
        return runner(g, program, config, cut=cut)
    except ProtocolViolation as exc:
        return f"ProtocolViolation: {exc}"


def _random_program(
    fault_rate: float, bandwidth: int, reactive: bool, seed: int
) -> NodeProgram:
    """Each node draws its moves from its own stream, seeded from *seed*
    and its id.  It logs its mail, decides, flips or stays silent, and
    sends nothing, a shared payload listed once per neighbour, the same
    payload as a string broadcast (possibly empty, and from isolated
    nodes too), or distinct payloads to neighbours in random order.
    With probability *fault_rate* a step flips its output or emits 2,
    and with that probability again one or two listed messages each
    break a rule, or the broadcast string is oversize or not bits.  The
    reactive form draws and acts only in round 0 or with mail, and
    otherwise repeats its last output."""

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
        return {"n": n, "nbrs": neighbors, "rng": rng, "out": None, "said": None, "heard": []}

    def step(state, r, inbox):
        if reactive and r and not inbox:
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

    return NodeProgram("random", init, step, collect, reactive=reactive)


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
        for reactive in (False, True):
            program = _random_program(fault_rate, bandwidth, reactive, seed)
            assert _outcome(run, g, program, config, cut) == _outcome(
                reference_run, g, program, config, cut
            )

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_stock_programs_match_the_twin(self, name):
        for seed in range(4):
            g = random_graph(10 + seed, 0.15 + 0.05 * seed, random.Random(seed))
            cut = crossing_edges(g, range(g.n // 2))
            program = PROGRAMS[name](str(seed) if name == "flood" else None)
            config = SimConfig(max_rounds=30)
            assert _outcome(run, g, program, config, cut) == _outcome(
                reference_run, g, program, config, cut
            )
