"""Synchronous message-passing simulator with per-edge bandwidth accounting.

The model: nodes run in lockstep rounds; per round each node may send
one message of at most ``bandwidth_bits`` bits (default two address
words) over each incident edge in each direction; a message sent in
round r is delivered at the start of round r + 1, never earlier.  A
node's output is a single decision bit, final once set; a run answers
Yes when at least one node outputs 1 and No when all output 0.

Programs are triples of pure callables over explicit state, so the
engine can enforce the model from outside: destinations must be
neighbors, one message per edge per direction per round, message
length capped, outputs immutable.  A node sends one payload on all its
edges as one bit string, a broadcast.  Each listed message is checked
in send order, and the first violation raises instead of being
silently clipped.  When a cut (an edge set) is supplied, the engine
counts and records every message sent across it round by round; that
account is what links simulated runs to two-party communication lower
bounds.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import filterfalse, repeat
from typing import Any, Callable, Iterable

from .graphs import Graph

__all__ = [
    "CutTrafficReport",
    "NodeProgram",
    "PROGRAMS",
    "ProtocolViolation",
    "RunStats",
    "SimConfig",
    "constant_program",
    "cut_traffic_bound_check",
    "default_bandwidth",
    "encode_uint",
    "flood_program",
    "naive_four_cycle_program",
    "run",
    "silent_program",
    "word_bits",
]


def word_bits(n: int) -> int:
    """Bits needed to address n vertices; at least 1."""
    return max(1, (n - 1).bit_length())


def default_bandwidth(n: int) -> int:
    """Two address words per message per round."""
    return 2 * word_bits(n)


def encode_uint(value: int, width: int) -> str:
    if value < 0 or value >= 2**width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b")


class ProtocolViolation(RuntimeError):
    """A program broke the model: bad destination, oversized or duplicate
    message, or a changed output.  The message names the program, the
    node and the round."""


@dataclass(frozen=True)
class SimConfig:
    """Run settings; ``bandwidth_bits=None`` means ``default_bandwidth(n)``."""

    bandwidth_bits: int | None = None
    max_rounds: int = 10_000

    def __post_init__(self) -> None:
        if self.bandwidth_bits is not None and self.bandwidth_bits < 1:
            raise ValueError(f"bandwidth_bits must be at least 1, got {self.bandwidth_bits}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be at least 1, got {self.max_rounds}")


@dataclass(frozen=True)
class NodeProgram:
    """Per-node behavior.

    ``init(v, neighbors, n)`` returns the node's initial state.  The
    engine adds no randomness: a program that draws builds its own
    stream in ``init``, from a seed its factory was given.
    ``step(state, round_index, inbox)`` returns (state, outbox, output)
    where inbox maps sender id to bit string, outbox is a list of
    (destination, bits) tuples, each destination an ``int`` neighbor id
    (not a ``bool`` or a float), or one bit string sent to every neighbor
    (``""`` is an empty message each, ``[]`` no message), and output is
    None while undecided, else the final 0/1.  A program reads its inbox
    and never writes it: every node without mail gets one shared empty
    inbox, and the naive twin in the tests hands out read-only views.
    ``collect(state)``, when set, extracts a per-node result (e.g. a
    listing) after the run.

    ``wakes(v, neighbors, n)``, when set, is called once per node and
    returns the rounds in which the node acts without mail: its wake
    schedule.  It declares that in any other round a node with an empty
    inbox would do nothing if stepped: same state, no messages, and the
    same output (None while undecided).  ``run`` then steps a node only
    in its wake rounds and in rounds that bring it mail.  The engine
    cannot check this contract; the naive twin in the tests can.  A
    program that reacts only to mail after round 0 declares ``(0,)``;
    ``None`` steps every node in every round.
    """

    name: str
    init: Callable[[int, tuple[int, ...], int], Any]
    step: Callable[[Any, int, dict[int, str]], tuple[Any, str | list[tuple[int, str]], Any]]
    collect: Callable[[Any], Any] | None = None
    wakes: Callable[[int, tuple[int, ...], int], Iterable[int]] | None = None


@dataclass(frozen=True)
class RunStats:
    """What a run observed; its cut traffic is logged once, in ``cut_messages``."""

    rounds_used: int
    node_outputs: tuple
    total_cut_bits: int
    message_count: int
    max_message_bits: int
    cut_messages: tuple | None = None
    listings: dict = field(default_factory=dict, repr=False)

    @property
    def timed_out(self) -> bool:
        """True iff the run hit the round cap with some node undecided."""
        return None in self.node_outputs

    @property
    def per_round_cut_bits(self) -> tuple[int, ...]:
        """Cut bits sent in each round, summed from ``cut_messages``."""
        bits = [0] * self.rounds_used
        for r, _src, _dst, payload in self.cut_messages or ():
            bits[r] += len(payload)
        return tuple(bits)

    @property
    def decision(self):
        """1 if some node output 1, 0 if all output 0, None if undecided."""
        return None if self.timed_out else int(1 in self.node_outputs)


def run(
    g: Graph,
    program: NodeProgram,
    config: SimConfig = SimConfig(),
    cut: frozenset[tuple[int, int]] | None = None,
) -> RunStats:
    """Execute *program* on every node of *g* until all decide or the
    round cap is hit (reported via timed_out, not an exception).

    A program without a wake schedule has every node stepped in every
    round.  One with a schedule has a node stepped in its wake rounds
    and in every round that brings it mail, and no node in a round with
    neither; such a round records 0 cut bits.  Either way nodes step in
    id order, whether or not they have decided.  When a round starts
    with no mail and no wake round is left while some node is
    undecided, no node can act again: the run jumps to the cap, as if
    it had stepped every idle round.  Each node's ``init`` and
    ``wakes`` receive its neighbors as a sorted tuple.  The engine
    draws nothing, so a run is a function of the graph, the program,
    the config and the cut.

    A non-empty outbox that is neither a string nor a list raises.  A
    list outbox is walked once, in send order: each item is checked for
    not being a (destination, bits) tuple, a destination that is not
    an ``int`` neighbor id (a list, ``True`` and ``1.0`` count as
    non-neighbors), a repeated edge, a non-bitstring and an oversize
    payload, in that order, and the first fault raises.  A broadcast
    (a string outbox) is checked once and raises what its first
    message would; it goes to the neighbors in ascending order, and a
    node without neighbors sends and checks nothing.  A cut is a set
    of edges of *g*, each in either orientation; a pair that is not an
    edge raises ValueError.  Given a cut, ``cut_messages`` lists each
    message across it as (round, sender, destination, bits) in send
    order, ``()`` for an empty cut, and is None without a cut.
    """
    n = g.n
    adj = g.adj
    step = program.step
    max_rounds = config.max_rounds
    bandwidth = config.bandwidth_bits or default_bandwidth(n)
    # Messages from v cross the cut to these neighbors, in ascending order.
    cut_neighbors: list[list[int]] = [[] for _ in range(n)]
    if cut is not None:
        cut_set = {(u, v) if u < v else (v, u) for u, v in cut}
        if not cut_set <= g.edges:
            raise ValueError(f"cut pairs that are not edges: {sorted(cut_set - g.edges)}")
        for u, v in sorted(cut_set):
            cut_neighbors[u].append(v)
            cut_neighbors[v].append(u)

    neighbors = [tuple(sorted(adj[v])) for v in range(n)]
    states = [program.init(v, neighbors[v], n) for v in range(n)]
    schedule = None
    if program.wakes is not None:
        schedule = defaultdict(list)
        for v in range(n):
            for r in set(program.wakes(v, neighbors[v], n)):
                if r < max_rounds:
                    schedule[r].append(v)
        wake_rounds = sorted(schedule) + [max_rounds]
    outputs: list = [None] * n
    undecided = n
    # Programs never write to their inbox, so every node without mail
    # gets this one.
    no_mail: dict[int, str] = {}
    inbox_next: defaultdict[int, dict[int, str]] = defaultdict(dict)
    cut_messages: list[tuple[int, int, int, str]] = []
    message_count = 0
    max_message_bits = 0
    rounds_used = max_rounds

    def violation(v: int, r: int, what: str) -> ProtocolViolation:
        return ProtocolViolation(f"program {program.name}: node {v} {what} in round {r}")

    r = 0
    while r < max_rounds:
        # A plain dict for the per-node lookups: get() on a defaultdict
        # is markedly slower, and most rounds step many idle nodes.
        inboxes = dict(inbox_next)
        inbox_next = defaultdict(dict)
        if schedule is None:
            stepped = range(n)
        else:
            due = schedule.get(r)
            if inboxes:
                # Id order, not mail order: it fixes each inbox's sender
                # order and the order of cut_messages.
                stepped = sorted(inboxes.keys() | due) if due else sorted(inboxes)
            elif due:
                stepped = due
            elif undecided:
                # Nobody acts before the next wake round, or the cap.
                r = wake_rounds[bisect_right(wake_rounds, r)]
                continue
            else:
                stepped = ()
        for v in stepped:
            state, outbox, out = step(states[v], r, inboxes.get(v, no_mail))
            states[v] = state
            if out is not None:
                if out not in (0, 1):
                    raise violation(v, r, f"output {out!r} (want 0 or 1)")
                if outputs[v] is None:
                    undecided -= 1
                elif outputs[v] != out:
                    raise violation(v, r, f"changed output {outputs[v]} -> {out}")
                outputs[v] = out
            if outbox.__class__ is str:
                dsts = neighbors[v]
                if not dsts:
                    continue
                if outbox.strip("01"):
                    raise violation(v, r, f"sent non-bitstring {outbox!r}")
                if len(outbox) > bandwidth:
                    raise violation(v, r, f"sent {len(outbox)} bits > bandwidth {bandwidth}")
                if len(outbox) > max_message_bits:
                    max_message_bits = len(outbox)
                for dst in dsts:
                    inbox_next[dst][v] = outbox
                message_count += len(dsts)
                for dst in cut_neighbors[v]:
                    cut_messages.append((r, v, dst, outbox))
            elif outbox:
                if outbox.__class__ is not list:
                    raise violation(v, r, f"sent outbox {outbox!r} (want a bit string or a list)")
                nbrs = adj[v]
                crossing = cut_neighbors[v]
                for item in outbox:
                    if item.__class__ is not tuple or len(item) != 2:
                        raise violation(v, r, f"listed {item!r} (want a (destination, bits) tuple)")
                    dst, bits = item
                    if dst.__class__ is not int or dst not in nbrs:
                        raise violation(v, r, f"sent to non-neighbor {dst!r}")
                    # v steps once a round: mail from v here reuses the edge.
                    box = inbox_next[dst]
                    if v in box:
                        raise violation(v, r, f"sent twice over edge to {dst}")
                    if not isinstance(bits, str) or bits.strip("01"):
                        raise violation(v, r, f"sent non-bitstring {bits!r}")
                    if len(bits) > bandwidth:
                        raise violation(v, r, f"sent {len(bits)} bits > bandwidth {bandwidth}")
                    if len(bits) > max_message_bits:
                        max_message_bits = len(bits)
                    box[v] = bits
                    if crossing and dst in crossing:
                        cut_messages.append((r, v, dst, bits))
                message_count += len(outbox)
        if not undecided:
            rounds_used = r + 1
            break
        r += 1

    return RunStats(
        rounds_used=rounds_used,
        node_outputs=tuple(outputs),
        total_cut_bits=sum(len(m[3]) for m in cut_messages),
        message_count=message_count,
        max_message_bits=max_message_bits,
        cut_messages=tuple(cut_messages) if cut is not None else None,
        listings=(
            {
                v: res
                for v in range(n)
                if (res := program.collect(states[v])) is not None
            }
            if program.collect is not None
            else {}
        ),
    )


# ---------------------------------------------------------------------------
# Stock programs.
# ---------------------------------------------------------------------------


def naive_four_cycle_program() -> NodeProgram:
    """Linear-round induced-4-cycle detection by neighborhood exchange.

    Each node streams its sorted neighbor list, one address per round
    (a presence flag plus one word, within bandwidth), in rounds 0 to
    deg - 1.  By round n - 1 every node has heard the full neighborhood
    of each neighbor and checks locally for u, u2 in N(v) non-adjacent
    with a common neighbor t outside N(v) and distinct from v; {v, u,
    t, u2} is then an induced 4-cycle, and every induced 4-cycle is
    seen this way by each of its vertices.  Decides in round n - 1, so
    n rounds in total.

    A node acts without mail only while it streams and when it decides,
    so it wakes in rounds 0 to deg - 1 and in round n - 1.  It keeps
    each neighbor's stream as received and reads it once, when it
    decides, so that no message costs more than a list append.  The
    address codes are ``_address_codes(n)``, one read-only table per n;
    everything else a node holds comes from its own (v, neighbors, n)
    and its mail.
    """

    def init(v, neighbors, n):
        codes = _address_codes(n)
        stream = [codes[u] for u in neighbors]
        return v, codes, stream, {u: [] for u in neighbors}

    def step(state, r, inbox):
        v, codes, stream, heard = state
        for src, bits in inbox.items():
            heard[src].append(bits)
        outbox = stream[r] if r < len(stream) else []
        output = _closes_four_cycle(codes[v], stream, heard) if r >= len(codes) - 1 else None
        return state, outbox, output

    return NodeProgram(
        name="detect-four-cycle",
        init=init,
        step=step,
        wakes=lambda v, neighbors, n: (*range(len(neighbors)), n - 1),
    )


@lru_cache(maxsize=8)
def _address_codes(n: int) -> tuple[str, ...]:
    """"1" + u's address word, for every vertex u of an n-vertex graph."""
    w = word_bits(n)
    return tuple("1" + encode_uint(u, w) for u in range(n))


def _closes_four_cycle(own: str, stream: list[str], heard: dict[int, list[str]]) -> int:
    """1 iff two non-adjacent neighbors share a neighbor outside N(v)
    and other than v, where *stream* holds N(v)'s codes in neighbor
    order, *own* is v's code and *heard* each neighbor's codes, in the
    same order.  Sets of neighbors are int bitmasks over their
    positions in *stream*.  Each outside vertex t gathers the neighbors
    adjacent to it, and a 4-cycle closes at t iff they are not a
    clique: some member misses another.
    """
    if len(stream) < 2:
        return 0
    position = {bits: 1 << i for i, bits in enumerate(stream)}
    near = {**position, own: 0}.__contains__
    zeros = repeat(0)
    misses = {}
    sharers: dict[str, list[int]] = {}
    for bit, got in zip(position.values(), heard.values()):
        misses[bit] = ~(sum(map(position.get, got, zeros)) | bit)
        for t in filterfalse(near, got):
            if t in sharers:
                sharers[t].append(bit)
            else:
                sharers[t] = [bit]
    for group in sharers.values():
        if len(group) > 1 and any(map(sum(group).__and__, map(misses.__getitem__, group))):
            return 1
    return 0


def flood_program(source: int = 0) -> NodeProgram:
    """Token flood from one source; nodes decide 1 on first contact.

    On a connected graph the run takes one round more than the source's
    eccentricity, which makes this a timing probe for the delivery rule.
    After round 0 a node acts only on mail, so it wakes in round 0
    alone, and a flood that cannot reach every node jumps to the round
    cap once it dies out.
    """

    def init(v, neighbors, n):
        return {"informed": v == source, "sent": False}

    def step(state, r, inbox):
        if inbox:
            state["informed"] = True
        outbox = []
        if state["informed"] and not state["sent"]:
            outbox = "1"
            state["sent"] = True
        return state, outbox, 1 if state["informed"] else None

    return NodeProgram(name="flood", init=init, step=step, wakes=lambda v, neighbors, n: (0,))


def constant_program(bit: int) -> NodeProgram:
    """Every node outputs *bit* immediately; no messages."""

    def init(v, neighbors, n):
        return None

    def step(state, r, inbox):
        return state, [], bit

    return NodeProgram(name=f"constant-{bit}", init=init, step=step)


def silent_program() -> NodeProgram:
    """Never decides; exists to exercise the round cap.  It wakes in
    round 0 alone, so its runs jump to the cap after round 0."""

    def init(v, neighbors, n):
        return None

    def step(state, r, inbox):
        return state, [], None

    return NodeProgram(name="silent", init=init, step=step, wakes=lambda v, neighbors, n: (0,))


PROGRAMS: dict[str, Callable[[], NodeProgram]] = {
    "detect-four-cycle": naive_four_cycle_program,
    "flood": flood_program,
    "constant-one": lambda: constant_program(1),
    "constant-zero": lambda: constant_program(0),
    "silent": silent_program,
}


@dataclass(frozen=True)
class CutTrafficReport:
    ok: bool
    measured_bits: int
    bound_bits: int
    slack_bits: int


def cut_traffic_bound_check(
    stats: RunStats, cut_size: int, bandwidth: int
) -> CutTrafficReport:
    """Compare measured cut traffic with the model ceiling: each round
    moves at most bandwidth bits per cut edge per direction."""
    bound = stats.rounds_used * 2 * cut_size * bandwidth
    return CutTrafficReport(
        ok=stats.total_cut_bits <= bound,
        measured_bits=stats.total_cut_bits,
        bound_bits=bound,
        slack_bits=bound - stats.total_cut_bits,
    )
