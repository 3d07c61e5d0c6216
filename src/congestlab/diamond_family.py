"""Two-input family whose target is an induced diamond split 2+2 across the cut.

The fixture is an input-independent random scaffold: side A holds n
vertices in sqrt(n) blocks, side B holds a same-shaped mirror plus a
second block of n vertices matched one-to-one with A.  Every pair of
(A block, B block) is joined by a random bijection, so the cut has
n^{3/2} + n edges while each vertex keeps degree about sqrt(n).

A cross-block pair (a, a') with exactly one common neighbor is "good".
Each good pair with exactly one endpoint in a sampled half A* of A
becomes a candidate slot: a 1-bit of x adds the A-internal edge
(a1, a2) where a1 is the A*-member, and a 1-bit of y adds the B-internal
edge (b1, b2) where b1 is the pair's unique common neighbor and b2 is
a1's matched partner.  Slots whose (b1, b2) repeats an earlier slot are
dropped.  Under these conventions the graph contains an induced diamond
with exactly two vertices on each side precisely when x and y share a 1,
for every seed:

* The shared slot k gives the diamond {a1, a2, b1, b2} with spine
  (a1, b1) and missing pair (a2, b2).
* No other 2+2 diamond can appear.  Five edges on a 2+2 split need at
  least one of the two internal pairs.  Four cut edges plus one
  internal is impossible: an x-edge pair is good (one common neighbor,
  not two), and a y-edge needs a partner vertex, which has a unique
  A-neighbor.  Three cut edges plus both internal pairs force the
  x-slot and y-slot to coincide: the x-pair's unique common neighbor
  pins b1, the partner structure pins b2 to one endpoint, and the
  A*-membership plus the (b1, b2) dedup rule out every mismatched
  combination.

Note diamonds with a 3+1 split do arise from y alone (two slots sharing
a1 share b2), which is why the family's predicate counts only the
balanced ones.
"""

from __future__ import annotations

import marshal
import math
import random
from dataclasses import dataclass

from .families import FamilyInstance, InputPair, _Fixture, _instance
from .graphs import (
    DEFAULT_WORK_BUDGET,
    Graph,
    _induced_diamond_search,
    _Witness,
    list_induced_diamonds,
)

__all__ = [
    "DiamondFixture",
    "build_diamond_family",
    "build_diamond_fixture",
    "diamond_cut_size",
    "good_pair_ratio",
    "has_two_two_diamond",
    "list_two_two_diamonds",
]


@dataclass(frozen=True)
class DiamondFixture(_Fixture):
    """Input-independent scaffold for the diamond family.

    ``graph`` carries only the fixture edges (block bijections and the
    A-to-partner matching); ``blocks`` holds ``a`` (side A), ``b`` and
    ``partner``.  ``quadruples`` holds the kept slots as (a1, a2, b1, b2)
    vertex ids, sorted, one per input bit: a 1 at bit k of x adds (a1, a2)
    of slot k, of y its (b1, b2).
    """

    n: int
    seed: int
    good_pairs: tuple[tuple[int, int], ...]
    astar: frozenset[int]
    quadruples: tuple[tuple[int, int, int, int], ...]

    @property
    def bit_count(self) -> int:
        return len(self.quadruples)


def diamond_cut_size(n: int) -> int:
    """Block bijections plus the matching: n^{3/2} + n edges."""
    r = math.isqrt(n)
    if r * r != n:
        raise ValueError("n must be a perfect square")
    return r * n + n


def build_diamond_fixture(n: int, seed: int) -> DiamondFixture:
    """Sample the scaffold and derive the candidate slots.

    Deterministic in (n, seed): block bijections are drawn in block
    order, then the half A* is drawn, from a single seeded generator.
    """
    r = math.isqrt(n)
    if r * r != n or n < 4:
        raise ValueError("n must be a perfect square >= 4")
    rng = random.Random(seed)

    a = list(range(0, n))
    b = list(range(n, 2 * n))
    partner = list(range(2 * n, 3 * n))
    a_blocks = tuple(tuple(a[i * r : (i + 1) * r]) for i in range(r))
    b_blocks = tuple(tuple(b[i * r : (i + 1) * r]) for i in range(r))

    labels: dict[int, str] = {}
    for i in range(r):
        for j in range(r):
            labels[a_blocks[i][j]] = f"a_{i + 1}_{j + 1}"
            labels[b_blocks[i][j]] = f"b_{i + 1}_{j + 1}"
    for t in range(n):
        labels[partner[t]] = f"p_{t + 1}"

    edges: list[tuple[int, int]] = []
    for t in range(n):
        edges.append((a[t], partner[t]))
    for i in range(r):
        for j in range(r):
            perm = list(range(r))
            rng.shuffle(perm)
            for t in range(r):
                edges.append((a_blocks[i][t], b_blocks[j][perm[t]]))
    g = Graph(3 * n, edges)

    good: list[tuple[int, int]] = []
    for i in range(r):
        for i2 in range(i + 1, r):
            for u in a_blocks[i]:
                nu = g.adj[u]
                for v in a_blocks[i2]:
                    if len(nu & g.adj[v]) == 1:
                        good.append((u, v) if u < v else (v, u))
    good.sort()

    astar = frozenset(rng.sample(range(n), n // 2))

    quadruples: list[tuple[int, int, int, int]] = []
    dropped: list[tuple[int, int, int, int]] = []
    seen_b_pairs: set[tuple[int, int]] = set()
    for u, v in good:
        if (u in astar) == (v in astar):
            continue
        a1, a2 = (u, v) if u in astar else (v, u)
        (b1,) = g.adj[u] & g.adj[v]
        b2 = partner[a1]
        quad = (a1, a2, b1, b2)
        if (b1, b2) in seen_b_pairs:
            dropped.append(quad)
            continue
        seen_b_pairs.add((b1, b2))
        quadruples.append(quad)
    quadruples.sort()

    meta = {
        "quadruples": [list(q) for q in quadruples],
        "astar": sorted(astar),
        "good_pair_count": len(good),
        "dropped_count": len(dropped),
    }
    empty = ((),) * len(quadruples)
    return DiamondFixture(
        graph=g,
        side_a=tuple(a),
        labels=labels,
        blocks={"a": tuple(a), "b": tuple(b), "partner": tuple(partner)},
        meta=marshal.dumps(meta),
        slots=tuple((empty, tuple((q[i : i + 2],) for q in quadruples)) for i in (0, 2)),
        n=n,
        seed=seed,
        good_pairs=tuple(good),
        astar=astar,
        quadruples=tuple(quadruples),
    )


def good_pair_ratio(fixture: DiamondFixture) -> float:
    """Good pairs per n^2.  Concentrates near (1 - 1/sqrt(n))^{sqrt(n) - 1}
    times the cross-block pair fraction, so it stays bounded away from 0."""
    return len(fixture.good_pairs) / fixture.n**2


def build_diamond_family(fixture: DiamondFixture, pair: InputPair) -> FamilyInstance:
    """Add the input-driven edges to the fixture and package the instance."""
    if pair.length != fixture.bit_count:
        raise ValueError(
            f"pair has {pair.length} bits, fixture has {fixture.bit_count} slots"
        )
    params = {"n": fixture.n, "seed": fixture.seed}
    return _instance("diamond", params, fixture, pair, diamond_cut_size(fixture.n))


def list_two_two_diamonds(inst: FamilyInstance) -> list[tuple[int, ...]]:
    """Induced diamonds with exactly two vertices on each side."""
    side_a = set(inst.side_a)
    return [
        d
        for d in list_induced_diamonds(inst.graph, quota=(side_a, 2))
        if len(side_a.intersection(d)) == 2
    ]


def has_two_two_diamond(
    inst: FamilyInstance, budget: int = DEFAULT_WORK_BUDGET
) -> bool:
    """True when ``list_two_two_diamonds`` would list a diamond; stops at
    the first one.

    Runs that listing's spine search until a spine yields a diamond with
    exactly two vertices on each side.  Its work is the listing's prefix
    up to and including that spine, and it raises ``WorkBudgetExceeded``
    only if that prefix exceeds *budget*, so it may return True under a
    budget the whole search exceeds.  Without such a diamond its work,
    and the estimate of any exception, are the whole search's.
    """
    side_a = set(inst.side_a)

    def stop(d: tuple[int, ...]) -> None:
        if len(side_a.intersection(d)) == 2:
            raise _Witness

    try:
        _induced_diamond_search(inst.graph, budget, (side_a, 2), stop)
    except _Witness:
        return True
    return False
