"""Two-input graph families whose target cycle encodes set intersection.

Each builder takes a pair of bit strings (x, y) and produces a graph
split into two vertex sides.  The vertex set, the side split, and the
cut between the sides never depend on the inputs; edges internal to
side A depend only on x, edges internal to side B only on y.  The
families are engineered so that the graph contains an induced cycle of
the target length exactly when x and y share a 1.  These are the
instances that make distributed cycle detection pay for the cut: any
correct run must move enough information across it to decide
intersection.

Three builders live here.  ``build_four_cycle_family`` targets the
4-cycle with a cut of 2n matching edges.  ``build_cycle_family``
targets any length k >= 4 by subdividing those matchings.
``build_long_cycle_family`` targets long cycles while keeping the cut
small: side-internal block indices are encoded as fixed-size subsets
of a shared symbol alphabet, and only the alphabet (not the block
count) crosses the cut.

A family is an input-independent fixture, built once per parameter set
(each builder memoizes its 8 most recent), plus one slot of input edges
per bit.  An instance is the fixture's graph plus the edges its bits
select, with labels, blocks and meta of its own.
"""

from __future__ import annotations

import marshal
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product

from .bitstrings import validate_bits
from .graphs import Graph, crossing_edges, frac_pow_ceil

__all__ = [
    "FamilyInstance",
    "InputPair",
    "LONG_CYCLE_CODE_BLOCKS",
    "build_cycle_family",
    "build_four_cycle_family",
    "build_long_cycle_family",
    "colex_subset",
    "cycle_cut_size",
    "long_cycle_alphabet",
    "long_cycle_cut_size",
]


@dataclass(frozen=True)
class InputPair:
    """The two equal-length bit strings that drive a family instance."""

    x: str
    y: str

    def __post_init__(self) -> None:
        validate_bits(self.x)
        validate_bits(self.y, length=len(self.x))

    @property
    def length(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class FamilyInstance:
    """A built two-sided graph plus the bookkeeping the harness needs.

    ``side_a`` lists side A's vertices in ascending order; ``side_b``
    is every other vertex, and ``cut_edges`` the edges between the two,
    both derived once on first use.  Internal edges of side A are a
    function of x alone, side B of y alone, and the builders check the
    cut against the family's closed form.  ``labels`` names every vertex
    for debugging and bundle output; ``blocks`` groups vertex ids by
    structural role; ``meta`` carries family-specific structure (code
    assignments, path internals, quadruples) and is JSON-serializable.
    """

    family: str
    params: dict
    pair: InputPair
    graph: Graph
    side_a: tuple[int, ...]
    labels: dict[int, str] = field(repr=False)
    blocks: dict[str, tuple[int, ...]] = field(repr=False)
    meta: dict = field(repr=False)

    def __post_init__(self) -> None:
        a = self.side_a
        ascending = all(u < v for u, v in zip(a, a[1:]))
        if a and not (ascending and 0 <= a[0] and a[-1] < self.graph.n):
            raise ValueError("side_a must be ascending, distinct graph vertices")

    @cached_property
    def side_b(self) -> tuple[int, ...]:
        side_a = set(self.side_a)
        return tuple(v for v in self.graph.vertices() if v not in side_a)

    @cached_property
    def cut_edges(self) -> frozenset[tuple[int, int]]:
        return crossing_edges(self.graph, self.side_a)

    @property
    def cut_size(self) -> int:
        return len(self.cut_edges)


@dataclass(frozen=True)
class _Fixture:
    """A family's input-independent part at one parameter set.  ``slots``
    holds, for x and then y, the edges each bit adds as a 0 and as a 1,
    in bit order; ``meta`` is marshalled, so each instance loads its own."""

    graph: Graph
    side_a: tuple[int, ...]
    labels: dict[int, str] = field(repr=False)
    blocks: dict[str, tuple[int, ...]] = field(repr=False)
    meta: bytes = field(repr=False)
    slots: tuple[tuple[tuple[tuple[tuple[int, int], ...], ...], ...], ...] = field(repr=False)


def _instance(
    family: str, params: dict, fixture: _Fixture, pair: InputPair, cut_size: int
) -> FamilyInstance:
    """The fixture's graph plus the slot edges the bits of *pair* select,
    once the cut of that graph matches the family's closed form."""
    extra: list[tuple[int, int]] = []
    for bits, (on_zero, on_one) in zip((pair.x, pair.y), fixture.slots):
        for bit, zero, one in zip(bits, on_zero, on_one):
            extra += one if bit == "1" else zero
    inst = FamilyInstance(
        family=family, params=params, pair=pair, graph=fixture.graph.with_edges(extra),
        side_a=fixture.side_a, labels=dict(fixture.labels), blocks=dict(fixture.blocks),
        meta=marshal.loads(fixture.meta),
    )
    if inst.cut_size != cut_size:
        raise RuntimeError(
            f"{family} family {params}: cut has {inst.cut_size} edges, "
            f"closed form gives {cut_size}"
        )
    return inst


# ---------------------------------------------------------------------------
# Cycle family: four blocks of n, matchings across the cut, cliques on the
# outer blocks (and on a2 at odd k), one candidate connector edge per input
# bit on each side.
# ---------------------------------------------------------------------------


def cycle_cut_size(n: int) -> int:
    """Cut size of the (subdivided) cycle family: two matchings of n."""
    return 2 * n


def build_four_cycle_family(n: int, pair: InputPair) -> FamilyInstance:
    """Target: induced 4-cycle present iff x and y intersect.

    Layout: blocks a1, a2 on side A and b1, b2 on side B, each of size
    n.  a1 and b2 are cliques, a2 and b1 independent sets.  Matchings
    (a1_i, b1_i) and (a2_i, b2_i) form the cut.  Bit (i, j) of x adds
    the connector (a1_i, a2_j); the same bit of y adds (b1_i, b2_j).
    A shared 1 at (i, j) closes a1_i - a2_j - b2_j - b1_i into an
    induced 4-cycle; the cliques and matchings admit no other one.
    """
    return build_cycle_family(n, 4, pair)


def build_cycle_family(n: int, k: int, pair: InputPair) -> FamilyInstance:
    """Target: induced k-cycle present iff x and y intersect, any k >= 4.

    For k > 4 the two matchings of the 4-cycle layout are subdivided:
    each (a1_i, b1_i) edge becomes an upper path with ceil((k-4)/2)
    internal vertices, each (a2_i, b2_i) edge a lower path with
    t = floor((k-4)/2).  Internal vertices nearer the A end belong to
    side A, so every path still crosses the cut exactly once and the
    cut stays at 2n edges.  A shared 1 at (i, j) closes
    a1_i - a2_j - lower path j - b2_j - b1_i - upper path i, of length k.

    At odd k the upper paths are one vertex longer than the lower
    ones, and a2 is made a clique as well (at even k it stays
    independent, so even k is the plain subdivision).  Without that
    clique, one a1_i with x-connectors to a2_j and a2_j' closes
    a1_i - lower path j - b2 clique edge - lower path j' - a1_i, of
    length 2t + 5 = k, from x alone.  An induced cycle that crosses
    the cut runs through an even number of whole paths; with the
    clique, at odd k:

    - two lower paths, closed by an a2 and a b2 clique edge: k - 1;
    - two upper paths, closed by an a1 clique edge on side A and by
      y-connectors through one or two b2 vertices on side B: k + 2
      or k + 3;
    - one upper path i and one lower path j, closed on side A by an
      x-connector plus at most one a1 and one a2 clique step, and on
      side B by a y-connector plus at most one b2 clique step:
      k + 0..3, and exactly k only when both sides close with the
      bare connector of slot (i, j), so x_ij = y_ij = 1;
    - four or more paths: at least 4t + 8 > k.

    A cycle inside side A lies in the union of two cliques joined by
    connectors, so it has at most 4 vertices; inside side B (the b2
    clique and the independent b1) it can only be a triangle.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 4:
        raise ValueError("this family needs k >= 4")
    if pair.length != n * n:
        raise ValueError(f"pair has {pair.length} bits, family needs {n * n}")
    params = {"n": n, "k": k}
    return _instance("cycle", params, _cycle_fixture(n, k), pair, cycle_cut_size(n))


@lru_cache(maxsize=8)
def _cycle_fixture(n: int, k: int) -> _Fixture:
    blocks = {
        name: tuple(range(q * n, (q + 1) * n))
        for q, name in enumerate(("a1", "a2", "b1", "b2"))
    }
    a1, a2, b1, b2 = blocks.values()
    labels = {
        v: f"{name}_{i}"
        for name, ids in blocks.items()
        for i, v in enumerate(ids, start=1)
    }
    edges: list[tuple[int, int]] = []
    side_a = [*a1, *a2]
    # Path "a1b1" i runs a1_i - internals - b1_i, "a2b2" i likewise.
    path_internals: dict[str, list[list[int]]] = {}
    for kind, t in (("a1b1", math.ceil((k - 4) / 2)), ("a2b2", (k - 4) // 2)):
        ends = zip(blocks[kind[:2]], blocks[kind[2:]])
        path_internals[kind] = [
            _cut_path(u, v, t, f"{kind}_{i}", labels, side_a, edges)
            for i, (u, v) in enumerate(ends, start=1)
        ]

    # a1 and b2 are cliques, and a2 too at odd k.
    for name in ("a1", "b2", "a2") if k % 2 else ("a1", "b2"):
        edges.extend(combinations(blocks[name], 2))
    return _Fixture(
        graph=Graph(len(labels), edges),
        side_a=tuple(sorted(side_a)),
        labels=labels,
        blocks=blocks,
        meta=marshal.dumps({"target_length": k, "path_internals": path_internals}),
        # Bit (i, j) of x adds the connector (a1_i, a2_j), of y (b1_i, b2_j);
        # bits run j-major, as pair_index numbers them.
        slots=tuple(
            (((),) * n * n, tuple(((u[i], w[j]),) for j in range(n) for i in range(n)))
            for u, w in ((a1, a2), (b1, b2))
        ),
    )


def _cut_path(
    u: int,
    v: int,
    count: int,
    tag: str,
    labels: dict[int, str],
    side_a: list[int],
    edges: list[tuple[int, int]],
) -> list[int]:
    """Subdivide the cut edge from u on side A to v on side B.

    The *count* new vertices take the next free ids (every vertex so far
    is labelled, so they start at len(labels)) and are labelled
    tag_1..tag_count from u on.  The first ceil(count/2) join side A, so
    the path still crosses the cut once.  Returns the new ids in order.
    """
    ids = list(range(len(labels), len(labels) + count))
    for s, w in enumerate(ids, start=1):
        labels[w] = f"{tag}_{s}"
    side_a.extend(ids[: (count + 1) // 2])
    chain = [u, *ids, v]
    edges.extend(zip(chain, chain[1:]))
    return ids


# ---------------------------------------------------------------------------
# Long-cycle family: block indices are encoded as fixed-size subsets of a
# small symbol alphabet, so the cut scales with the alphabet, not with n.
# ---------------------------------------------------------------------------


def colex_subset(rank: int, ell: int) -> tuple[int, ...]:
    """The ell-subset of the nonnegative integers at *rank* in colex order.

    Colex compares subsets by largest element first.  Unranking is the
    standard greedy walk: the largest element is the biggest c with
    comb(c, ell) <= rank, and the remainder recurses.
    """
    if ell < 0 or rank < 0:
        raise ValueError("rank and ell must be nonnegative")
    out: list[int] = []
    r = rank
    for i in range(ell, 0, -1):
        c = i - 1
        while math.comb(c + 1, i) <= r:
            c += 1
        out.append(c)
        r -= math.comb(c, i)
    return tuple(reversed(out))


# Each input block of the long-cycle family and the code block it wires to.
LONG_CYCLE_CODE_BLOCKS = {
    "a1": "upper_a",
    "a2": "lower_a",
    "b1": "upper_b",
    "b2": "lower_b",
}


def long_cycle_alphabet(n: int, ell: int) -> int:
    """Smallest symbol count r with r**ell >= ell**ell * n.

    Computed in exact integer arithmetic; a float root here can
    misround at perfect powers.
    """
    if n < 1 or ell < 1:
        raise ValueError("need n >= 1 and ell >= 1")
    return frac_pow_ceil(ell**ell * n, Fraction(1, ell))


def long_cycle_cut_size(
    n: int, ell: int, m: int = 0, include_centers: bool = True
) -> int:
    """Cut size of the long-cycle family: two code matchings plus the
    center edge when centers are built.  Padding subdivides matching
    edges without adding crossings, so m does not appear in the count."""
    return 2 * long_cycle_alphabet(n, ell) + (1 if include_centers else 0)


def build_long_cycle_family(
    n: int, ell: int, m: int, pair: InputPair, include_centers: bool = True
) -> FamilyInstance:
    """Target: induced cycle of length ell * (8 + m) iff x and y intersect.

    Layout: blocks a1, a2, b1, b2 each hold n sub-blocks of ell
    vertices.  Sub-block i is wired to the code vertices of its
    ell-subset code: vertex j of the sub-block attaches to the j-th
    smallest symbol.  a1 and b1 sub-blocks use the upper code blocks,
    a2 and b2 the lower ones, and upper/lower code blocks are matched
    across the cut symbol by symbol.  Distinct sub-blocks of a1 and of
    b2 are completely joined; distinct sub-blocks of a2 and of b1 are
    joined only between vertices at different positions (so not at
    all when ell = 1).

    Bit (i, j) of x glues a1 sub-block i to a2 sub-block j with a
    rotated matching, (a1_{i,t+1}, a2_{j,t}) wrapping around; bit
    (i, j) of y glues b1 sub-block i to b2 sub-block j straight.  The
    rotation chains the ell strands through all code vertices of both
    sub-block codes into a single cycle of length 8*ell.  For
    ell >= 2 a 0 bit completely joins the two sub-blocks instead, so
    an induced cycle longer than 4 can hold two or more vertices of
    both only where the bit is 1.  (At ell = 1 such a join would
    itself be a connector, and a 0 bit adds nothing.)

    Paired codes need both the 0-bit joins and the position-aware
    a2/b1 joins.  With a2 and b1 completely joined and 0 bits left
    empty, join edges pair two upper or two lower symbols at exactly
    the length of a connector strand, and induced target cycles
    stitched from two codes appear on nearly every disjoint pair;
    either change alone still admits them (the 0-bit joins alone
    from n = 3 on).  The wiring is checked, not proved: the iff
    predicate holds on every input pair at n = 2 for ell = 1, 2, 3
    and on every disjoint pair at n = 3 for ell = 2.

    With include_centers, two center vertices (one per side, joined to
    everything on their side and to each other) pin the diameter at 3.
    Centers leave the target predicate intact only for ell >= 2; at
    ell = 1 they create stray induced 8-cycles on some disjoint pairs,
    so predicate checks should build without them.  When m > 0 every
    upper code matching edge is subdivided with floor(m/2) internal
    vertices and every lower one with ceil(m/2), stretching each of
    the ell strands by m.  The cut is two code matchings, plus the
    center edge when present, regardless of m.
    """
    if n < 1 or ell < 1 or m < 0:
        raise ValueError("need n >= 1, ell >= 1, m >= 0")
    if pair.length != n * n:
        raise ValueError(f"pair has {pair.length} bits, family needs {n * n}")
    params = {"n": n, "ell": ell, "m": m, "centers": include_centers}
    fixture = _long_cycle_fixture(n, ell, m, include_centers)
    cut_size = long_cycle_cut_size(n, ell, m, include_centers)
    return _instance("longcycle", params, fixture, pair, cut_size)


@lru_cache(maxsize=8)
def _long_cycle_fixture(n: int, ell: int, m: int, include_centers: bool) -> _Fixture:
    # Sub-block i gets the colex-rank-(i-1) ell-subset of the alphabet.
    # Colex order puts the largest symbol last, so the last code fits in
    # range(r) exactly when comb(r, ell) >= n.
    r = long_cycle_alphabet(n, ell)
    codes = [colex_subset(i, ell) for i in range(n)]
    if codes[-1][-1] >= r:
        raise RuntimeError(
            f"longcycle family (n={n}, ell={ell}): code {codes[-1]} needs "
            f"{codes[-1][-1] + 1} symbols, alphabet has {r}"
        )

    # Ids run through the input blocks a1, a2, b1, b2 (n sub-blocks of
    # ell each), then the code blocks (one id per symbol), labelled by
    # the first and last letters of their names: ua, la, ub, lb.
    width = n * ell
    blocks = {
        name: tuple(range(q * width, (q + 1) * width))
        for q, name in enumerate(LONG_CYCLE_CODE_BLOCKS)
    }
    blocks |= {
        code_block: tuple(range(4 * width + q * r, 4 * width + (q + 1) * r))
        for q, code_block in enumerate(LONG_CYCLE_CODE_BLOCKS.values())
    }
    subblocks = {
        name: [list(blocks[name][s : s + ell]) for s in range(0, width, ell)]
        for name in LONG_CYCLE_CODE_BLOCKS
    }

    labels: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    for name, code_block in LONG_CYCLE_CODE_BLOCKS.items():
        subs, code = subblocks[name], blocks[code_block]
        for i, sub in enumerate(subs, start=1):
            labels.update((v, f"{name}_{i}_{j}") for j, v in enumerate(sub, start=1))
        tag = code_block[0] + code_block[-1]
        labels.update((v, f"{tag}_{t}") for t, v in enumerate(code))
        # a1 and b2 sub-blocks are completely joined, a2 and b1 ones only
        # between vertices at different positions.
        full = name in ("a1", "b2")
        for sub, sub2 in combinations(subs, 2):
            straight = set(zip(sub, sub2))
            edges.extend(e for e in product(sub, sub2) if full or e not in straight)
        # Vertex j of sub-block i attaches to the j-th symbol of code i.
        for sub, sigma in zip(subs, codes):
            edges.extend((v, code[t]) for v, t in zip(sub, sigma))

    # Bit (i, j) glues upper sub-block i to lower sub-block j, rotated by
    # one position on side A and straight on side B; a 0 bit joins them
    # completely when ell >= 2.
    slots = []
    for upper, lower, rot in (("a1", "a2", 1), ("b1", "b2", 0)):
        zero, one = [], []
        for j, i in product(range(n), repeat=2):  # bit order, as in pair_index
            sub, sub2 = subblocks[upper][i], subblocks[lower][j]
            zero.append(tuple(product(sub, sub2)) if ell >= 2 else ())
            one.append(tuple((u, sub2[(p - rot) % ell]) for p, u in enumerate(sub)))
        slots.append((tuple(zero), tuple(one)))

    side_a = [*blocks["a1"], *blocks["a2"], *blocks["upper_a"], *blocks["lower_a"]]
    centers: tuple[int, ...] = ()
    if include_centers:
        # Centers attach to everything on their own side before padding
        # is appended, so padding internals stay off the centers.
        centers = center_a, center_b = len(labels), len(labels) + 1
        labels.update({center_a: "center_a", center_b: "center_b"})
        on_a = set(side_a)
        edges.extend((center_a if v in on_a else center_b, v) for v in range(center_a))
        edges.append(centers)
        side_a.append(center_a)
    blocks["centers"] = centers

    for kind, count in (("upper", m // 2), ("lower", (m + 1) // 2)):
        ends = zip(blocks[f"{kind}_a"], blocks[f"{kind}_b"])
        for t, (u, v) in enumerate(ends):
            _cut_path(u, v, count, f"{kind[0]}pad_{t}", labels, side_a, edges)

    return _Fixture(
        graph=Graph(len(labels), edges),
        side_a=tuple(sorted(side_a)),
        labels=labels,
        blocks=blocks,
        meta=marshal.dumps(
            {
                "target_length": ell * (8 + m),
                "alphabet": r,
                "codes": [list(c) for c in codes],
                "subblocks": subblocks,
            }
        ),
        slots=tuple(slots),
    )
