"""Immutable graphs and brute-force induced-subgraph oracles.

Vertices are 0..n-1.  Edges are unordered pairs stored as (u, v) with
u < v.  The enumeration oracles come in two deliberately independent
routes: a naive route that scans vertex subsets, and a pruned route
that walks the graph.  Tests require the two routes to agree exactly;
everything downstream (family predicates, protocol listings, the
distributed listing algorithm) is validated against these oracles.

All enumeration entry points accept a work budget.  The naive routes
refuse up front when the subset count alone exceeds the budget; the
pruned routes count search-tree expansions and abort mid-flight.

The exact integer rules that thresholds share (floor and ceiling of
n^(p/q), ceiling of sqrt(n)) live here too, so floats never decide one.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from itertools import combinations
from typing import Iterable

DEFAULT_WORK_BUDGET = 10**9

__all__ = [
    "DEFAULT_WORK_BUDGET",
    "Graph",
    "WorkBudgetExceeded",
    "ceil_sqrt",
    "connected_components",
    "crossing_edges",
    "diameter",
    "frac_pow_ceil",
    "frac_pow_floor",
    "has_induced_cycle",
    "induced_edge_count",
    "induced_edges",
    "is_induced_cycle",
    "is_induced_diamond",
    "list_induced_cycles",
    "list_induced_cycles_naive",
    "list_induced_diamonds",
    "list_induced_diamonds_naive",
    "norm_edge",
    "random_graph",
]


class WorkBudgetExceeded(RuntimeError):
    """Raised when an enumeration would exceed its work budget."""

    def __init__(self, message: str, estimate: int, budget: int):
        super().__init__(f"{message} (estimate {estimate} > budget {budget})")
        self.estimate = estimate
        self.budget = budget


def norm_edge(u: int, v: int) -> tuple[int, int]:
    """The pair {u, v} as stored: smaller endpoint first."""
    return (u, v) if u < v else (v, u)


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError(
            "pass fractional exponents as Fraction (or str/int); floats would "
            "make threshold comparisons inexact"
        )
    return Fraction(x)


def frac_pow_floor(n: int, exponent: Fraction) -> int:
    """floor(n ** exponent), computed in exact integer arithmetic."""
    exponent = _as_fraction(exponent)
    if n < 0 or exponent < 0:
        raise ValueError("need n >= 0 and exponent >= 0")
    if n == 0:
        return 0
    p, q = exponent.numerator, exponent.denominator
    target = n**p
    lo, hi = 0, n ** ((p + q - 1) // q) + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**q <= target:
            lo = mid
        else:
            hi = mid - 1
    return lo


def frac_pow_ceil(n: int, exponent: Fraction) -> int:
    exponent = _as_fraction(exponent)
    f = frac_pow_floor(n, exponent)
    p, q = exponent.numerator, exponent.denominator
    return f if n == 0 or f**q == n**p else f + 1


def ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


class Graph:
    """Undirected simple graph with precomputed adjacency sets."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            u, v = norm_edge(u, v)
            if not (0 <= u and v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            normalized.add((u, v))
        self.n = n
        self.edges: frozenset[tuple[int, int]] = frozenset(normalized)
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in normalized:
            adj[u].add(v)
            adj[v].add(u)
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return (u, v) in self.edges if u < v else (v, u) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def to_text(self) -> str:
        """Canonical text form: 'n m' header, then one 'u v' line per edge.

        Edges are written with u < v and sorted, so equal graphs produce
        byte-identical text.
        """
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in sorted(self.edges))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        """Parse the text form; edge order and endpoint order are not required."""
        rows = [line.split() for line in text.splitlines() if line.strip()]
        if not rows:
            raise ValueError("empty graph text")
        if len(rows[0]) != 2:
            raise ValueError(f"bad header line: {rows[0]!r}")
        n, m = int(rows[0][0]), int(rows[0][1])
        if len(rows) - 1 != m:
            raise ValueError(f"header claims {m} edges, found {len(rows) - 1}")
        edges = []
        for row in rows[1:]:
            if len(row) != 2:
                raise ValueError(f"bad edge line: {row!r}")
            edges.append((int(row[0]), int(row[1])))
        g = cls(n, edges)
        if g.m != m:
            raise ValueError(f"duplicate edges: header claims {m}, got {g.m}")
        return g


def induced_edges(g: Graph, vs: Iterable[int]) -> frozenset[tuple[int, int]]:
    """Edges of g with both endpoints in vs."""
    s = set(vs)
    return frozenset(
        (u, v) for u in s for v in g.adj[u] if v in s and u < v
    )


def induced_edge_count(g: Graph, vs: Iterable[int]) -> int:
    return len(induced_edges(g, vs))


def is_induced_cycle(g: Graph, vs: Iterable[int]) -> bool:
    """True when vs induces a single chordless cycle (so |vs| >= 3).

    Every induced degree 2 forces a disjoint union of cycles (so exactly
    |vs| induced edges); connectivity then forces a single one.
    """
    s = frozenset(vs)
    k = len(s)
    if k < 3:
        return False
    if any(len(g.adj[v] & s) != 2 for v in s):
        return False
    start = next(iter(s))
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in g.adj[u] & s:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == k


def is_induced_diamond(g: Graph, vs: Iterable[int]) -> bool:
    """True when vs induces a diamond: 4 vertices carrying 5 of the 6 pairs."""
    s = frozenset(vs)
    return len(s) == 4 and induced_edge_count(g, s) == 5


def _check_naive_budget(n: int, k: int, budget: int) -> None:
    count = math.comb(n, k)
    if count > budget:
        raise WorkBudgetExceeded(
            f"naive scan over {k}-subsets of {n} vertices", count, budget
        )


def list_induced_cycles_naive(
    g: Graph, k: int, budget: int = DEFAULT_WORK_BUDGET
) -> list[tuple[int, ...]]:
    """Subset-scan route: test every k-subset against the definition.

    The test is ``is_induced_cycle`` on bitmasks: bit w of ``masks[v]``
    is set when w is a neighbor of v, and a subset is one int.  Every
    vertex must have exactly two neighbors in the subset (checked
    vertex by vertex, stopping at the first miss), and a breadth-first
    sweep over the subset's masks must reach all of it.
    """
    if k < 3:
        raise ValueError("cycles need k >= 3")
    _check_naive_budget(g.n, k, budget)
    masks = [sum(1 << w for w in nb) for nb in g.adj]
    bits = [1 << v for v in range(g.n)]
    out = []
    for vs in combinations(range(g.n), k):
        s = sum(map(bits.__getitem__, vs))
        for v in vs:
            if (masks[v] & s).bit_count() != 2:
                break
        else:
            seen = frontier = bits[vs[0]]
            while frontier:
                reached = 0
                while frontier:
                    low = frontier & -frontier
                    reached |= masks[low.bit_length() - 1]
                    frontier ^= low
                frontier = reached & s & ~seen
                seen |= frontier
            if seen == s:
                out.append(vs)
    return out


def list_induced_cycles(
    g: Graph,
    k: int,
    budget: int = DEFAULT_WORK_BUDGET,
    *,
    quota: tuple[Iterable[int], int] | None = None,
) -> list[tuple[int, ...]]:
    """Pruned route: grow induced paths from each anchor vertex.

    A cycle is reported once, anchored at its minimum vertex, with the
    tie between the two traversal directions broken by requiring the
    second path vertex to be smaller than the closing vertex.  Returned
    tuples are the sorted vertex sets, in sorted order.  The search is
    shared with ``has_induced_cycle``, which stops at the first cycle.

    The search runs on int bitmasks: bit w of ``masks[v]`` is set when
    w is a neighbor of v, and the vertices a path may no longer touch
    form one int.  Each step's candidates are then a few ANDs over
    whole neighborhoods, walked from the lowest set bit up.  The last
    path vertex is closed in the loop that finds it, with no call of its
    own; the work it adds and the budget test it makes are the same.

    ``quota=(vertices, need)`` lists only the cycles with at least
    *need* of their vertices in *vertices*.  Each path carries the
    number of outside vertices it may still take, starting at
    ``k - need``; once that reaches 0, its extensions and closing
    vertices are drawn from *vertices* alone, so paths that cannot meet
    the quota are never grown.  ``quota=None`` lists every cycle.

    The work count is one unit per neighbor inspected: an anchor's
    degree, the endpoint's degree per path extension, and the
    endpoint's common neighbors with the anchor per closing step.
    Under a quota it covers only the anchors and paths the quota lets
    the search visit (a path with no outside room left inspects only
    its neighbors in *vertices*), so it never exceeds the count without
    the quota.  A quota call, such as a ``cycle_listing_protocol`` side
    lister's, may therefore finish under a budget the full listing
    exceeds.  Each step adds its units at once; the count only grows,
    so a call finishes exactly when its total is within *budget*.
    """
    out: list[tuple[int, ...]] = []
    _induced_cycle_search(g, k, budget, quota, out.append)
    return sorted(out)


class _Witness(Exception):
    """Stops a shared search at the first witness it finds."""


def _stop(cycle: tuple[int, ...]) -> None:
    raise _Witness


def has_induced_cycle(g: Graph, k: int, budget: int = DEFAULT_WORK_BUDGET) -> bool:
    """True when *g* holds an induced k-cycle; stops at the first one found.

    Runs the search of ``list_induced_cycles`` until it finds a cycle.
    Its work is exactly the listing's up to and including the step that
    finds that first witness, and it raises ``WorkBudgetExceeded`` only
    if that prefix exceeds *budget*, so it may return True under a
    budget the full listing exceeds.  On a graph with no induced k-cycle
    its work, and the estimate of any exception, are the listing's.
    """
    try:
        _induced_cycle_search(g, k, budget, None, _stop)
    except _Witness:
        return True
    return False


def _induced_cycle_search(
    g: Graph, k: int, budget: int, quota: tuple[Iterable[int], int] | None, emit
) -> None:
    """The search ``list_induced_cycles`` documents; passes each cycle to emit."""
    if k < 3:
        raise ValueError("cycles need k >= 3")
    work = 0
    masks = [sum(1 << w for w in nb) for nb in g.adj]
    # own: the quota's vertex mask; spare: how many vertices off it a
    # cycle may hold.  Without a quota every vertex counts as own and
    # the room never runs out, so no candidate is masked.
    if quota is None:
        own, spare = -1, k
    else:
        vertices, need = quota
        own, spare = sum(1 << v for v in set(vertices)), k - need

    def extend(path: list[int], banned: int, room: int) -> None:
        # banned holds the path plus the neighborhoods of every path
        # vertex except the anchor and the current endpoint; anchor
        # adjacency is forbidden while growing and required when closing.
        # room is how many more vertices off own the path may take.
        nonlocal work
        last = masks[path[-1]]
        if not room:
            last &= own
        if len(path) == k - 1:
            closers = last & anchor
            work += closers.bit_count()
            if work > budget:
                raise WorkBudgetExceeded("pruned cycle search", work, budget)
            closers &= above_second & ~banned
            while closers:
                low = closers & -closers
                emit((*path, low.bit_length() - 1))
                closers ^= low
            return
        work += last.bit_count()
        if work > budget:
            raise WorkBudgetExceeded("pruned cycle search", work, budget)
        grow = last & allowed & ~banned
        # Every candidate is a neighbor of the endpoint, so banning the
        # endpoint's neighborhood also bans the vertex being appended.
        # With no room left every later vertex is own, so banning only
        # the endpoint's own neighbors is enough.
        banned |= last
        if len(path) == k - 2:
            # Each candidate is the last path vertex: run its closing
            # step here, as a call to extend would, without the call.
            closable = above_second & ~banned
            tight = room < 2  # only then can a candidate use the room up
            while grow:
                low = grow & -grow
                c = low.bit_length() - 1
                closers = masks[c] & anchor
                if tight and not (room if low & own else room - 1):
                    closers &= own
                work += closers.bit_count()
                if work > budget:
                    raise WorkBudgetExceeded("pruned cycle search", work, budget)
                closers &= closable
                while closers:
                    x = closers & -closers
                    found = path + [c, x.bit_length() - 1]
                    found.sort()
                    emit(tuple(found))
                    closers ^= x
                grow ^= low
            return
        while grow:
            low = grow & -grow
            path.append(low.bit_length() - 1)
            extend(path, banned, room if low & own else room - 1)
            path.pop()
            grow ^= low

    for s in range(g.n):
        room = spare if (own >> s) & 1 else spare - 1
        if room < 0:
            continue
        anchor = masks[s]
        work += anchor.bit_count()
        if work > budget:
            raise WorkBudgetExceeded("pruned cycle search", work, budget)
        # -(2 << x) has every bit above x set.  Path vertices after the
        # second lie above s and off its neighborhood.  At k = 3 the first
        # call to extend closes s < v1 < x, already sorted; at k >= 4 the
        # call that finds the last path vertex closes it.
        allowed = -(2 << s) & ~anchor
        second_vertices = anchor & -(2 << s)
        if not room:
            second_vertices &= own
        while second_vertices:
            low = second_vertices & -second_vertices
            v1 = low.bit_length() - 1
            above_second = -(2 << v1)
            extend([s, v1], (1 << s) | low, room if low & own else room - 1)
            second_vertices ^= low


def list_induced_diamonds_naive(
    g: Graph, budget: int = DEFAULT_WORK_BUDGET
) -> list[tuple[int, ...]]:
    """Subset-scan route: test every 4-subset for exactly five induced edges."""
    _check_naive_budget(g.n, 4, budget)
    return [
        vs for vs in combinations(range(g.n), 4) if induced_edge_count(g, vs) == 5
    ]


def list_induced_diamonds(
    g: Graph,
    budget: int = DEFAULT_WORK_BUDGET,
    *,
    quota: tuple[Iterable[int], int] | None = None,
) -> list[tuple[int, ...]]:
    """Pruned route, keyed on the spine.

    A diamond has a unique edge joining its two degree-3 vertices (the
    spine); the other two vertices, its wings, are common neighbors of
    the spine that are mutually non-adjacent.  Scanning spines therefore
    reports each diamond exactly once.  Returned tuples are the sorted
    vertex sets, in sorted order.

    The search runs on int bitmasks, as the cycle search does: for a
    spine a < b the wings are ``common = masks[a] & masks[b]``, and each
    wing c pairs with the far wings ``common & ~masks[c]`` above it.

    ``quota=(vertices, need)`` lists only the diamonds with at least
    *need* of their vertices in *vertices*.  A spine still needs *need*
    minus its own count of those vertices from its wings: at 2 its
    wings are drawn from *vertices* alone, at 1 a wing outside them
    pairs only with far wings inside, and above 2 the spine is skipped.
    ``quota=None`` lists every diamond.

    The work count is one unit per wing pair inspected, added once per
    spine: C(t, 2) for t wings, or, when a spine needs one more vertex,
    the pairs with at least one wing in *vertices*.  So a quota call
    never counts more than the full listing, and one whose quota no
    spine can meet counts nothing.  When the count passes *budget* the
    search raises with estimate ``budget + 1``, the count at the first
    unit past it.
    """
    out: list[tuple[int, ...]] = []
    _induced_diamond_search(g, budget, quota, out.append)
    out.sort()
    return out


def _induced_diamond_search(
    g: Graph, budget: int, quota: tuple[Iterable[int], int] | None, emit
) -> None:
    """The search ``list_induced_diamonds`` documents; passes each diamond
    to emit, spine by spine, after adding the spine's work."""
    masks = [sum(1 << w for w in nb) for nb in g.adj]
    # Without a quota no vertex counts as own and need is 0, so no
    # spine needs a wing and no wing is masked.
    vertices, need = ((), 0) if quota is None else quota
    own_set = frozenset(vertices)
    own = sum(1 << v for v in own_set)
    work = 0
    # Spine order moves neither the listing, sorted at the end, nor the
    # budget test, which compares the count with the budget at each
    # spine and reports the first unit past it.
    for a, b in g.edges:
        left = need - (a in own_set) - (b in own_set)
        if left > 2:
            continue
        common = masks[a] & masks[b]
        if left == 2:
            common &= own
        t = common.bit_count()
        if t < 2:
            continue
        pairs = t * (t - 1) // 2
        if left == 1:
            off = t - (common & own).bit_count()
            pairs -= off * (off - 1) // 2
        work += pairs
        if work > budget:
            raise WorkBudgetExceeded("pruned diamond search", budget + 1, budget)
        wings = common
        while wings:
            low_c = wings & -wings
            wings ^= low_c
            c = low_c.bit_length() - 1
            far = wings & ~masks[c]
            if left == 1 and not low_c & own:
                far &= own
            while far:
                low_d = far & -far
                far ^= low_d
                d = low_d.bit_length() - 1
                # Merge the sorted pairs a < b and c < d.
                if c < a:
                    if d < a:
                        emit((c, d, a, b))
                    elif d < b:
                        emit((c, a, d, b))
                    else:
                        emit((c, a, b, d))
                elif c < b:
                    emit((a, c, d, b) if d < b else (a, c, b, d))
                else:
                    emit((a, b, c, d))


def crossing_edges(g: Graph, side: Iterable[int]) -> frozenset[tuple[int, int]]:
    """Edges with exactly one endpoint in *side*."""
    s = set(side)
    return frozenset(e for e in g.edges if (e[0] in s) != (e[1] in s))


def random_graph(n: int, density: float, rng: random.Random) -> Graph:
    """Each of the n*(n-1)/2 pairs is an edge independently with
    probability *density*; pair order is fixed so a seeded rng gives a
    reproducible graph."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    ]
    return Graph(n, edges)


def connected_components(
    g: Graph, within: Iterable[int] | None = None
) -> list[frozenset[int]]:
    """Components of the subgraph induced on *within* (whole graph if None).

    Returned sorted by minimum member, so the order is deterministic.
    """
    allowed = set(g.vertices()) if within is None else set(within)
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for start in sorted(allowed):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if w in allowed and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    return comps


def _bfs_ecc(g: Graph, src: int) -> tuple[int, int]:
    """(eccentricity, reached count) from src."""
    dist = {src: 0}
    queue = deque([src])
    ecc = 0
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                ecc = max(ecc, dist[w])
                queue.append(w)
    return ecc, len(dist)


def diameter(g: Graph) -> float:
    """Max shortest-path distance; math.inf when disconnected, 0 when n <= 1."""
    if g.n <= 1:
        return 0
    best = 0
    for v in g.vertices():
        ecc, reached = _bfs_ecc(g, v)
        if reached != g.n:
            return math.inf
        best = max(best, ecc)
    return best
