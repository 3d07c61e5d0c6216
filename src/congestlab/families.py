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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .bitstrings import pair_index, validate_bits
from .graphs import Graph, crossing_edges, frac_pow_ceil

__all__ = [
    "FamilyInstance",
    "InputPair",
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

    t_upper = math.ceil((k - 4) / 2)
    t_lower = (k - 4) // 2

    blocks = {
        name: tuple(range(q * n, (q + 1) * n))
        for q, name in enumerate(("a1", "a2", "b1", "b2"))
    }
    a1, a2, b1, b2 = blocks.values()
    labels = {}
    for i in range(1, n + 1):
        for name, ids in blocks.items():
            labels[ids[i - 1]] = f"{name}_{i}"

    # Path "a1b1" i runs a1_i - internals - b1_i, "a2b2" i likewise; the
    # first ceil(t/2) internals of each path sit on side A.
    edges: list[tuple[int, int]] = []
    side_a = [*a1, *a2]
    path_internals: dict[str, list[list[int]]] = {}
    next_id = 4 * n
    for kind, t in (("a1b1", t_upper), ("a2b2", t_lower)):
        path_internals[kind] = []
        for i in range(n):
            ids = list(range(next_id, next_id + t))
            next_id += t
            path_internals[kind].append(ids)
            for s, v in enumerate(ids, start=1):
                labels[v] = f"{kind}_{i + 1}_{s}"
            side_a.extend(ids[: math.ceil(t / 2)])
            chain = [blocks[kind[:2]][i], *ids, blocks[kind[2:]][i]]
            edges.extend(zip(chain, chain[1:]))

    for i in range(n):
        for j in range(i + 1, n):
            edges.append((a1[i], a1[j]))
            edges.append((b2[i], b2[j]))
            if k % 2:
                edges.append((a2[i], a2[j]))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if pair.x[pair_index(i, j, n)] == "1":
                edges.append((a1[i - 1], a2[j - 1]))
            if pair.y[pair_index(i, j, n)] == "1":
                edges.append((b1[i - 1], b2[j - 1]))

    inst = FamilyInstance(
        family="cycle",
        params={"n": n, "k": k},
        pair=pair,
        graph=Graph(next_id, edges),
        side_a=tuple(sorted(side_a)),
        labels=labels,
        blocks=blocks,
        meta={"target_length": k, "path_internals": path_internals},
    )
    assert inst.cut_size == cycle_cut_size(n)
    return inst


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

    # Sub-block i gets the colex-rank-(i-1) ell-subset of the alphabet.
    # Colex order puts the largest symbol last, so the last code fits in
    # range(r) exactly when comb(r, ell) >= n.
    r = long_cycle_alphabet(n, ell)
    codes = [colex_subset(i, ell) for i in range(n)]
    assert codes[-1][-1] < r

    def sub_block(base: int, i: int) -> list[int]:
        return [base + (i - 1) * ell + (j - 1) for j in range(1, ell + 1)]

    base_a1, base_a2 = 0, n * ell
    base_b1, base_b2 = 2 * n * ell, 3 * n * ell
    base_ua = 4 * n * ell
    base_la = base_ua + r
    base_ub = base_la + r
    base_lb = base_ub + r
    centers: tuple[int, ...] = ()
    if include_centers:
        centers = (base_lb + r, base_lb + r + 1)

    labels: dict[int, str] = {}
    for i in range(1, n + 1):
        for j in range(1, ell + 1):
            labels[sub_block(base_a1, i)[j - 1]] = f"a1_{i}_{j}"
            labels[sub_block(base_a2, i)[j - 1]] = f"a2_{i}_{j}"
            labels[sub_block(base_b1, i)[j - 1]] = f"b1_{i}_{j}"
            labels[sub_block(base_b2, i)[j - 1]] = f"b2_{i}_{j}"
    for t in range(r):
        labels[base_ua + t] = f"ua_{t}"
        labels[base_la + t] = f"la_{t}"
        labels[base_ub + t] = f"ub_{t}"
        labels[base_lb + t] = f"lb_{t}"
    if include_centers:
        labels[centers[0]] = "center_a"
        labels[centers[1]] = "center_b"

    edges: list[tuple[int, int]] = []

    def join_distinct_sub_blocks(base: int, cross_only: bool = False) -> None:
        for i in range(1, n + 1):
            for i2 in range(i + 1, n + 1):
                for p, u in enumerate(sub_block(base, i)):
                    for p2, v in enumerate(sub_block(base, i2)):
                        if not (cross_only and p == p2):
                            edges.append((u, v))

    join_distinct_sub_blocks(base_a1)
    join_distinct_sub_blocks(base_b2)
    join_distinct_sub_blocks(base_a2, cross_only=True)
    join_distinct_sub_blocks(base_b1, cross_only=True)

    for i, sigma in enumerate(codes, start=1):
        for j in range(1, ell + 1):
            t = sigma[j - 1]
            edges.append((sub_block(base_a1, i)[j - 1], base_ua + t))
            edges.append((sub_block(base_a2, i)[j - 1], base_la + t))
            edges.append((sub_block(base_b1, i)[j - 1], base_ub + t))
            edges.append((sub_block(base_b2, i)[j - 1], base_lb + t))

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            blk_a1 = sub_block(base_a1, i)
            blk_a2 = sub_block(base_a2, j)
            if pair.x[pair_index(i, j, n)] == "1":
                for t in range(1, ell):
                    edges.append((blk_a1[t], blk_a2[t - 1]))
                edges.append((blk_a1[0], blk_a2[ell - 1]))
            elif ell >= 2:
                edges.extend((u, v) for u in blk_a1 for v in blk_a2)
            blk_b1 = sub_block(base_b1, i)
            blk_b2 = sub_block(base_b2, j)
            if pair.y[pair_index(i, j, n)] == "1":
                for t in range(ell):
                    edges.append((blk_b1[t], blk_b2[t]))
            elif ell >= 2:
                edges.extend((u, v) for u in blk_b1 for v in blk_b2)

    side_a = [*range(base_a1, base_b1), *range(base_ua, base_ub)]

    if include_centers:
        # Centers attach to everything on their own side before padding
        # is appended, so padding internals stay off the centers.
        center_a, center_b = centers
        on_a = set(side_a)
        for v in range(base_lb + r):
            edges.append((center_a if v in on_a else center_b, v))
        edges.append((center_a, center_b))
        side_a.append(center_a)

    pad_upper = m // 2
    pad_lower = (m + 1) // 2
    next_id = base_lb + r + len(centers)

    def matched_pair_chain(u: int, v: int, count: int, tag: str, t: int) -> None:
        nonlocal next_id
        ids = list(range(next_id, next_id + count))
        next_id += count
        for s, w in enumerate(ids, start=1):
            labels[w] = f"{tag}_{t}_{s}"
        side_a.extend(ids[: math.ceil(count / 2)])
        chain = [u, *ids, v]
        edges.extend(zip(chain, chain[1:]))

    for t in range(r):
        matched_pair_chain(base_ua + t, base_ub + t, pad_upper, "upad", t)
    for t in range(r):
        matched_pair_chain(base_la + t, base_lb + t, pad_lower, "lpad", t)

    inst = FamilyInstance(
        family="longcycle",
        params={"n": n, "ell": ell, "m": m, "centers": include_centers},
        pair=pair,
        graph=Graph(next_id, edges),
        side_a=tuple(sorted(side_a)),
        labels=labels,
        blocks={
            "a1": tuple(range(base_a1, base_a2)),
            "a2": tuple(range(base_a2, base_b1)),
            "b1": tuple(range(base_b1, base_b2)),
            "b2": tuple(range(base_b2, base_ua)),
            "upper_a": tuple(range(base_ua, base_la)),
            "lower_a": tuple(range(base_la, base_ub)),
            "upper_b": tuple(range(base_ub, base_lb)),
            "lower_b": tuple(range(base_lb, base_lb + r)),
            "centers": centers,
        },
        meta={
            "target_length": ell * (8 + m),
            "alphabet": r,
            "codes": [list(c) for c in codes],
            "subblocks": {
                "a1": [sub_block(base_a1, i) for i in range(1, n + 1)],
                "a2": [sub_block(base_a2, i) for i in range(1, n + 1)],
                "b1": [sub_block(base_b1, i) for i in range(1, n + 1)],
                "b2": [sub_block(base_b2, i) for i in range(1, n + 1)],
            },
        },
    )
    assert inst.cut_size == long_cycle_cut_size(n, ell, m, include_centers)
    return inst
