"""Split replay: a two-sided run re-executed as two parties.

The lower bounds charge a simulated run's cut traffic to two-party
communication: Alice simulates side A's nodes, Bob side B's, and they
exchange only the messages that cross the cut.  ``congest_reduction``
runs the joint simulation alone, and its ``consistent`` flag checks
only the answer.  A factory's closure is shared by every node, so a
program can pass that check while no party could have run its side
alone.  This replay executes the split.

Each party builds a fresh program from the factory and reruns ``run``
on its own side's internal edges plus the cut, with the same n and
vertex ids and the default bandwidth, for the joint run's
``rounds_used`` rounds.  Its own
nodes run the program.  Every far-side vertex is a ghost: in each round
it sends exactly the joint run's ``cut_messages`` from it, in their
joint order, and in the last round it outputs its joint output.  A
ghost wakes in round 0, in the rounds it sends and in the last round;
if the program has no wake schedule, every node is stepped every round.
The replay raises at the first own node, by round and then id, whose
output, ``collect`` result or sent cut messages (round, destination,
bits) differ from the joint run, naming the program, the node and the
round.

The parties also learn each cut message's round and edge, which a
``congest_reduction`` transcript does not carry; the replay reads them
from ``cut_messages`` and charges nothing for them.

The replay sees a leak only when it moves an output, a listing or a cut
message.  ``guarded_run`` checks the cause instead, on any run: it
deep-copies every closure cell of the program's ``init``, ``step``,
``collect`` and ``wakes``, and of each function those cells hold,
before ``run``, and raises ``ClosureWrite`` if one compares unequal
after it.  It cannot see a node that only reads what its factory
closed over.

Both use the engine only through ``run``, ``NodeProgram`` and
``SimConfig``, and the graph only through ``Graph``: nothing private to
``congest``.  The guard adds only ``copy``, from the standard library.
"""

from __future__ import annotations

import copy
from collections import defaultdict
from itertools import zip_longest

from congestlab.congest import NodeProgram, SimConfig, run
from congestlab.graphs import Graph


class SplitReplayMismatch(AssertionError):
    """An own node of a party did not reproduce the joint run."""


class ClosureWrite(AssertionError):
    """A node changed an object its program's factory closed over."""


def split_replay(inst, make_program, joint) -> None:
    """Replay *joint*, the run of ``make_program()`` on *inst* with its
    cut, once per side; raise ``SplitReplayMismatch`` on a difference."""
    for side in (inst.side_a, inst.side_b):
        _replay_party(inst, frozenset(side), make_program(), joint)


def _replay_party(inst, own, program, joint) -> None:
    last = joint.rounds_used - 1
    ghost_sends = defaultdict(list)
    ghost_rounds = defaultdict(lambda: {0, last})
    joint_sent = defaultdict(list)
    for r, src, dst, bits in joint.cut_messages:
        if src in own:
            joint_sent[src].append((r, dst, bits))
        else:
            ghost_sends[src, r].append((dst, bits))
            ghost_rounds[src].add(r)
    decided = {}

    def init(v, neighbors, n):
        return (v, program.init(v, neighbors, n)) if v in own else (v, None)

    def step(state, r, inbox):
        v, inner = state
        if v not in own:
            return state, ghost_sends.get((v, r), []), joint.node_outputs[v] if r == last else None
        inner, outbox, out = program.step(inner, r, inbox)
        if out is not None:
            decided.setdefault(v, r)
        return (v, inner), outbox, out

    def collect(state):
        v, inner = state
        return program.collect(inner) if v in own else None

    def wakes(v, neighbors, n):
        return program.wakes(v, neighbors, n) if v in own else ghost_rounds[v]

    party = NodeProgram(
        program.name,
        init,
        step,
        collect if program.collect is not None else None,
        wakes if program.wakes is not None else None,
    )
    g = inst.graph
    stats = run(
        Graph(g.n, [(u, v) for u, v in g.edges if u in own or v in own]),
        party,
        SimConfig(max_rounds=joint.rounds_used),
        cut=inst.cut_edges,
    )
    sent = defaultdict(list)
    for r, src, dst, bits in stats.cut_messages:
        if src in own:
            sent[src].append((r, dst, bits))

    faults = []
    for v in sorted(own):
        ours, theirs = stats.node_outputs[v], joint.node_outputs[v]
        if ours != theirs:
            faults.append((decided.get(v, last), v, f"output {ours} where the joint run has {theirs}"))
        ours, theirs = stats.listings.get(v), joint.listings.get(v)
        if ours != theirs:
            faults.append((last, v, f"collected {ours!r} where the joint run has {theirs!r}"))
        if sent[v] != joint_sent[v]:
            ours, theirs = next(p for p in zip_longest(sent[v], joint_sent[v]) if p[0] != p[1])
            r = min(m[0] for m in (ours, theirs) if m is not None)
            faults.append((r, v, f"sent {ours} across the cut where the joint run sent {theirs}"))
    if faults:
        r, v, what = min(faults)
        raise SplitReplayMismatch(f"program {program.name}: node {v} {what} in round {r}")


def guarded_run(g, program, *args, **kwargs):
    """``run(g, program, ...)``, raising ``ClosureWrite`` that names the
    program and the variable if the run changed a closure-held object."""
    cells = _closure_cells(program)
    before = [_snapshot(cell.cell_contents) for _, cell in cells]
    stats = run(g, program, *args, **kwargs)
    for (name, cell), old in zip(cells, before):
        if not _same(old, cell.cell_contents):
            raise ClosureWrite(f"program {program.name}: a node wrote {name!r} in its closure")
    return stats


def _closure_cells(program):
    """(variable, cell) for each closure cell of the program's callables
    and of every function a cell holds, each cell once, breadth first."""
    seen = set()
    cells = []
    todo = [program.init, program.step, program.collect, program.wakes]
    for fn in todo:
        closure = getattr(fn, "__closure__", None)
        if not closure:
            continue
        for name, cell in zip(fn.__code__.co_freevars, closure):
            if id(cell) not in seen:
                seen.add(id(cell))
                cells.append((name, cell))
                todo.append(cell.cell_contents)
    return cells


def _snapshot(x):
    """A deep copy of *x*.  Dicts, lists and sets, the bulk of a phase
    program's closure, are walked here at about three times the speed of
    ``copy.deepcopy``, which copies everything else; dict keys are kept
    as they are."""
    kind = type(x)
    if kind is dict:
        return {k: _snapshot(v) for k, v in x.items()}
    if kind is list or kind is set:
        return kind(map(_snapshot, x))
    return copy.deepcopy(x)


def _same(a, b) -> bool:
    """Deep equality that compares an object without its own ``__eq__``
    (a ``Graph``, say) attribute by attribute.  Such an object equals
    only itself, so ``a == b`` decides at once wherever none is held."""
    if a is b or a == b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a).__eq__ is object.__eq__:
        names = [*getattr(a, "__dict__", ()), *getattr(type(a), "__slots__", ())]
        return all(_same(getattr(a, k), getattr(b, k)) for k in names)
    return False
