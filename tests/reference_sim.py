"""A naive twin of the simulator, written from the ``congest`` module
docstring: rounds in lockstep, mail sent in round r read in round r + 1,
each message checked on its own in send order, outputs final once set.
A string outbox is expanded to one (neighbor, string) pair per neighbor
in ascending order and then checked like any other.  A cut pair may
come in either orientation, and one that is not an edge is refused.
Given a cut, every message across it is recorded; without one, none is.
The twin keeps its own per-round cut tally and timed-out flag and
asserts that the ``RunStats`` views of its log equal them.

It steps every node in every round, wake schedule or not, so that a
run of ``congest`` can be compared with it field by field.  Each node
gets a read-only view of its inbox, so a program that writes to its
inbox raises here, as the engine's shared empty inbox requires.  It shares
no code with the engine beyond its public types and ``default_bandwidth``.
"""

from __future__ import annotations

from types import MappingProxyType

from congestlab.congest import ProtocolViolation, RunStats, SimConfig, default_bandwidth


def reference_run(g, program, config=SimConfig(), cut=None):
    n = g.n
    bandwidth = config.bandwidth_bits or default_bandwidth(n)
    cut_set = {(min(u, v), max(u, v)) for u, v in cut or ()}
    if cut_set - g.edges:
        raise ValueError(f"cut pairs that are not edges: {sorted(cut_set - g.edges)}")
    states = [program.init(v, tuple(sorted(g.adj[v])), n) for v in range(n)]
    outputs = [None] * n
    mail: dict[int, dict[int, str]] = {}
    per_round, cut_messages = [], []
    messages = longest = 0
    rounds_used, timed_out = config.max_rounds, True

    def fault(v, r, what):
        return ProtocolViolation(f"program {program.name}: node {v} {what} in round {r}")

    for r in range(config.max_rounds):
        inboxes, mail, bits_on_cut = mail, {}, 0
        for v in range(n):
            inbox = MappingProxyType(inboxes.get(v, {}))
            states[v], outbox, out = program.step(states[v], r, inbox)
            if out is not None:
                if out not in (0, 1):
                    raise fault(v, r, f"output {out!r} (want 0 or 1)")
                if outputs[v] is not None and outputs[v] != out:
                    raise fault(v, r, f"changed output {outputs[v]} -> {out}")
                outputs[v] = out
            if isinstance(outbox, str):
                outbox = [(dst, outbox) for dst in sorted(g.adj[v])]
            used = set()
            for dst, bits in outbox or ():
                if dst not in g.adj[v]:
                    raise fault(v, r, f"sent to non-neighbor {dst}")
                if dst in used:
                    raise fault(v, r, f"sent twice over edge to {dst}")
                if not isinstance(bits, str) or any(b not in "01" for b in bits):
                    raise fault(v, r, f"sent non-bitstring {bits!r}")
                if len(bits) > bandwidth:
                    raise fault(v, r, f"sent {len(bits)} bits > bandwidth {bandwidth}")
                used.add(dst)
                mail.setdefault(dst, {})[v] = bits
                messages += 1
                longest = max(longest, len(bits))
                if (min(v, dst), max(v, dst)) in cut_set:
                    bits_on_cut += len(bits)
                    cut_messages.append((r, v, dst, bits))
        per_round.append(bits_on_cut)
        if None not in outputs:
            rounds_used, timed_out = r + 1, False
            break

    listings = {}
    if program.collect is not None:
        results = {v: program.collect(state) for v, state in enumerate(states)}
        listings = {v: res for v, res in results.items() if res is not None}
    stats = RunStats(
        rounds_used=rounds_used,
        node_outputs=tuple(outputs),
        total_cut_bits=sum(per_round),
        message_count=messages,
        max_message_bits=longest,
        cut_messages=None if cut is None else tuple(cut_messages),
        listings=listings,
    )
    assert stats.per_round_cut_bits == tuple(per_round)
    assert stats.timed_out == timed_out
    return stats
