"""Two-party listing protocols over a vertex partition, with transcripts.

One party owns side A of a vertex split, the other side B; both see
the cut edges, the vertex count, and nothing else about the far side.
The protocols here exchange structured edge batches, then each party
lists its share of the target subgraphs from its own view plus the
decoded bits alone.  Listers are module-level pure functions of
(view, received edges) so tests can substitute a counterfeit far side
and confirm nothing else leaks in.

Payloads are real encoded bit strings.  Per-message framing (a kind
tag and a count word) is accounted separately from payload so bound
checks compare like with like.

The reduction entry point reruns a simulated distributed algorithm on
a two-sided instance and recasts its cut traffic as such a transcript:
if the algorithm decides the target predicate, the transcript decides
set intersection, with exactly the measured cut bits plus one answer
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .bitstrings import bits_intersect
from .congest import (
    NodeProgram,
    RunStats,
    encode_uint,
    run,
    word_bits,
)
from .families import FamilyInstance
from .graphs import (
    DEFAULT_WORK_BUDGET,
    Graph,
    ceil_sqrt,
    crossing_edges,
    induced_edges,
    list_induced_cycles,
    list_induced_diamonds,
)

__all__ = [
    "ListingResult",
    "Message",
    "PartyView",
    "ReductionResult",
    "Transcript",
    "congest_reduction",
    "cycle_listing_protocol",
    "diamond_listing_protocol",
    "make_views",
]

FRAME_KIND_BITS = 2


@dataclass(frozen=True)
class PartyView:
    """Everything one party can see: its side, its internal edges, the cut."""

    side: str
    n: int
    own_vertices: frozenset[int]
    internal_edges: frozenset[tuple[int, int]]
    cut_edges: frozenset[tuple[int, int]]

    @cached_property
    def cut_adjacency(self) -> dict[int, frozenset[int]]:
        """Every cut endpoint, on either side, mapped to its cut neighbors."""
        adj: dict[int, set[int]] = {}
        for a, b in self.cut_edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        return {v: frozenset(nb) for v, nb in adj.items()}


def make_views(g: Graph, side_a) -> tuple[PartyView, PartyView]:
    sa = frozenset(side_a)
    sb = frozenset(range(g.n)) - sa
    cut = crossing_edges(g, sa)
    return (
        PartyView("a", g.n, sa, induced_edges(g, sa), cut),
        PartyView("b", g.n, sb, induced_edges(g, sb), cut),
    )


@dataclass(frozen=True)
class Message:
    direction: str  # "a->b" or "b->a"
    kind: str
    bits: str


@dataclass
class Transcript:
    word_bits: int
    messages: list[Message] = field(default_factory=list)

    def add(self, direction: str, kind: str, bits: str) -> None:
        if direction not in ("a->b", "b->a"):
            raise ValueError(f"bad direction {direction!r}")
        self.messages.append(Message(direction, kind, bits))

    def payload_bits(self, direction: str | None = None, kind: str | None = None) -> int:
        return sum(
            len(m.bits)
            for m in self.messages
            if (direction is None or m.direction == direction)
            and (kind is None or m.kind == kind)
        )

    def framing_bits(self) -> int:
        return (FRAME_KIND_BITS + 2 * self.word_bits) * len(self.messages)


def encode_edge_list(edges, w: int) -> str:
    return "".join(encode_uint(u, w) + encode_uint(v, w) for u, v in sorted(edges))


def decode_edge_list(bits: str, w: int) -> frozenset[tuple[int, int]]:
    if len(bits) % (2 * w) != 0:
        raise ValueError("edge list bits not a multiple of two words")
    out = set()
    for i in range(0, len(bits), 2 * w):
        u = int(bits[i : i + w], 2)
        v = int(bits[i + w : i + 2 * w], 2)
        out.add((u, v) if u < v else (v, u))
    return frozenset(out)


def encode_vertex_list(vertices, w: int) -> str:
    return "".join(encode_uint(v, w) for v in sorted(vertices))


def decode_vertex_list(bits: str, w: int) -> frozenset[int]:
    if len(bits) % w != 0:
        raise ValueError("vertex list bits not a multiple of the word size")
    return frozenset(int(bits[i : i + w], 2) for i in range(0, len(bits), w))


@dataclass(frozen=True)
class ListingResult:
    """Either listing protocol's result: both shares, the transcript, its bound."""

    a_list: tuple[tuple[int, ...], ...]
    b_list: tuple[tuple[int, ...], ...]
    transcript: Transcript
    bound_bits: int

    @property
    def within_bound(self) -> bool:
        return self.transcript.payload_bits() <= self.bound_bits

    @property
    def all_listed(self) -> tuple[tuple[int, ...], ...]:
        """The sorted side lists merged; each protocol's ownership rule
        makes them disjoint."""
        return tuple(sorted(self.a_list + self.b_list))


# ---------------------------------------------------------------------------
# Short induced cycles (3 <= k <= 7): one structured batch each way.
# ---------------------------------------------------------------------------


def _edges_near_cut(view: PartyView) -> frozenset[tuple[int, int]]:
    touching = view.cut_adjacency  # an internal edge meets only own endpoints
    return frozenset(
        e for e in view.internal_edges if e[0] in touching or e[1] in touching
    )


def _list_cycles_side(
    view: PartyView,
    received: frozenset[tuple[int, int]],
    k: int,
    budget: int,
) -> tuple[tuple[int, ...], ...]:
    """List induced k-cycles this party is responsible for.

    Side A takes candidates with at least ceil(k/2) own vertices, side
    B those with a strict majority, so every cycle is listed exactly
    once.  With k <= 7 a majority-side candidate carries at most one
    far-side vertex that touches no cut edge, and the received batch
    pins every remaining pair status, presence and absence alike.

    The knowledge graph holds the own side, the cut and the received
    batch.  The search's quota on own vertices grows only the paths
    that can still become a cycle this party owns, so the cycles the
    other party lists are never enumerated here.
    """
    known = Graph(view.n, view.internal_edges | view.cut_edges | received)
    need = math.ceil(k / 2) if view.side == "a" else k // 2 + 1
    return tuple(
        list_induced_cycles(known, k, budget=budget, quota=(view.own_vertices, need))
    )


def cycle_listing_protocol(
    g: Graph, side_a, k: int, budget: int = DEFAULT_WORK_BUDGET
) -> ListingResult:
    """Joint induced k-cycle listing, 3 <= k <= 7.

    Each party ships its internal edges that touch a cut endpoint; with
    an empty cut nothing is sent and listing is purely local.  Payload
    is at most 4 * w * n * |cut| bits in total.
    """
    if not 3 <= k <= 7:
        raise ValueError("cycle protocol supports 3 <= k <= 7")
    view_a, view_b = make_views(g, side_a)
    w = word_bits(g.n)
    transcript = Transcript(word_bits=w)
    if view_a.cut_edges:
        batch_b = _edges_near_cut(view_b)
        transcript.add("b->a", "internal-near-cut", encode_edge_list(batch_b, w))
        batch_a = _edges_near_cut(view_a)
        transcript.add("a->b", "internal-near-cut", encode_edge_list(batch_a, w))
        received_a = decode_edge_list(transcript.messages[0].bits, w)
        received_b = decode_edge_list(transcript.messages[1].bits, w)
    else:
        received_a = received_b = frozenset()
    return ListingResult(
        a_list=_list_cycles_side(view_a, received_a, k, budget),
        b_list=_list_cycles_side(view_b, received_b, k, budget),
        transcript=transcript,
        bound_bits=4 * w * g.n * len(view_a.cut_edges),
    )


# ---------------------------------------------------------------------------
# Induced diamonds: degree-split protocol with sublinear payload per cut edge.
# ---------------------------------------------------------------------------


def _heavy_vertices(view: PartyView) -> frozenset[int]:
    """Own-side vertices whose cut degree beats internal degree / sqrt(n).

    Integer-exact comparison: n * cut_deg^2 > internal_deg^2.  A vertex
    with no cut edge is never heavy.
    """
    internal = dict.fromkeys(view.own_vertices, 0)
    for u, v in view.internal_edges:
        internal[u] += 1
        internal[v] += 1
    return frozenset(
        v
        for v, nb in view.cut_adjacency.items()
        if v in view.own_vertices and view.n * len(nb) ** 2 > internal[v] ** 2
    )


def _list_diamonds_side(
    view: PartyView,
    received: frozenset[tuple[int, int]],
    heavy: frozenset[int],
    budget: int,
) -> tuple[tuple[int, ...], ...]:
    """List the induced diamonds this party is responsible for.

    A party owns every diamond with at least three own vertices, and a
    balanced (2 + 2) diamond goes to side A when neither of its A
    vertices is in *heavy* (side A's heavy vertices, which side B
    decodes), to side B otherwise, so every diamond is listed exactly
    once.  The knowledge graph holds the own side, the cut and the
    received batch, and its listing takes a quota of two own vertices,
    so a diamond with at most one is never built.  The graph has only
    true edges, so an owned diamond is one of the graph, and none is
    missed, when the knowledge graph pins every pair status among its
    vertices, absence included:

    - with three or more own vertices, every pair touches this side;
    - in a balanced diamond of side A at most one of the six pairs is
      missing, so some A vertex sees both far vertices across the cut;
      that vertex is light, so the far pair lies inside its window and
      its status arrived in the window batch;
    - in a balanced diamond of side B the A pair touches a heavy
      vertex, and the heavy batch carries every internal edge of it.
    """
    known = Graph(view.n, view.internal_edges | view.cut_edges | received)
    return tuple(
        d
        for d in list_induced_diamonds(
            known, budget=budget, quota=(view.own_vertices, 2)
        )
        if len(view.own_vertices.intersection(d)) > 2
        or heavy.isdisjoint(d) == (view.side == "a")
    )


def diamond_listing_protocol(
    g: Graph, side_a, budget: int = DEFAULT_WORK_BUDGET
) -> ListingResult:
    """Joint induced diamond listing with payload <= 12 * w * sqrt(n) * |cut|.

    A vertex of side A is heavy when its cut degree exceeds its internal
    degree divided by sqrt(n).  Side A ships the heavy ids and every
    internal edge touching a heavy vertex; side B ships, for each light
    cut endpoint of A, the internal pair statuses inside that vertex's
    cut neighborhood (as one deduplicated edge batch).  On every cut the
    payload is at most 4 * w * ceil(sqrt(n)) * |cut|:

    - a heavy vertex has internal degree below sqrt(n) times its cut
      degree, so the heavy batch has fewer than sqrt(n) * |cut| edges,
      under 2 * w * sqrt(n) * |cut| bits;
    - a light vertex has internal degree below n, so its cut degree c
      is below sqrt(n) and its window has fewer than c * sqrt(n) / 2
      pairs; all windows come to under w * sqrt(n) * |cut| bits;
    - the heavy ids take at most w * |cut| bits.

    Each party then lists as the cycle parties do: one knowledge graph
    (own side, cut, received batch), one listing, and its own share.  A
    diamond with three or more vertices on one side belongs to that
    side, and a 2 + 2 diamond to side A when both its A vertices are
    light, to side B otherwise.
    """
    view_a, view_b = make_views(g, side_a)
    w = word_bits(g.n)
    transcript = Transcript(word_bits=w)
    heavy = _heavy_vertices(view_a)
    if view_a.cut_edges:
        transcript.add("a->b", "heavy-ids", encode_vertex_list(heavy, w))
        heavy_edges = frozenset(
            e for e in view_a.internal_edges if e[0] in heavy or e[1] in heavy
        )
        transcript.add("a->b", "internal-near-heavy", encode_edge_list(heavy_edges, w))
        recv_heavy = decode_vertex_list(transcript.messages[0].bits, w)
        # Side B derives the light windows from shared knowledge alone:
        # far-side cut endpoints minus the received heavy ids.
        far = view_b.cut_adjacency.keys() - view_b.own_vertices
        windows = {
            e
            for v in far - recv_heavy
            for e in combinations(sorted(view_b.cut_adjacency[v]), 2)
            if e in view_b.internal_edges
        }
        transcript.add("b->a", "light-windows", encode_edge_list(windows, w))
        recv_heavy_edges = decode_edge_list(transcript.messages[1].bits, w)
        recv_windows = decode_edge_list(transcript.messages[2].bits, w)
    else:
        recv_heavy = recv_heavy_edges = recv_windows = frozenset()

    return ListingResult(
        a_list=_list_diamonds_side(view_a, recv_windows, heavy, budget),
        b_list=_list_diamonds_side(view_b, recv_heavy_edges, recv_heavy, budget),
        transcript=transcript,
        bound_bits=12 * w * ceil_sqrt(g.n) * len(view_a.cut_edges),
    )


# ---------------------------------------------------------------------------
# Simulated-run-to-transcript reduction and the ceiling it implies.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionResult:
    disjointness_answer: int
    oracle_answer: int
    consistent: bool
    stats: RunStats
    transcript: Transcript


def congest_reduction(inst: FamilyInstance, program: NodeProgram) -> ReductionResult:
    """Run *program* on a two-sided instance and express the run as a
    two-party protocol for set disjointness.

    Every simulated message crossing the cut becomes a transcript
    message with its exact payload, plus a single 1-bit answer at the
    end; the parties could have produced the same transcript by each
    simulating their own side.  The program answers "target present";
    the family makes that equivalent to "inputs intersect", so the
    transcript decides disjointness: answer 1 means disjoint.
    """
    stats = run(inst.graph, program, cut=inst.cut_edges)
    if stats.decision is None:
        raise RuntimeError(f"program {program.name} did not decide within the cap")
    side_a = set(inst.side_a)
    transcript = Transcript(word_bits=word_bits(inst.graph.n))
    for _, src, _dst, bits in stats.cut_messages:
        transcript.add("a->b" if src in side_a else "b->a", "sim", bits)
    transcript.add("b->a", "answer", str(stats.decision))
    if (sim_bits := transcript.payload_bits(kind="sim")) != stats.total_cut_bits:
        raise RuntimeError(
            f"{inst.family} family {inst.params}: transcript carries {sim_bits} "
            f"bits, the run moved {stats.total_cut_bits} cut bits"
        )
    disj = 0 if stats.decision == 1 else 1
    oracle = 0 if bits_intersect(inst.pair.x, inst.pair.y) else 1
    return ReductionResult(
        disjointness_answer=disj,
        oracle_answer=oracle,
        consistent=disj == oracle,
        stats=stats,
        transcript=transcript,
    )

