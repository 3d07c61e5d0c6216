"""Distributed induced-diamond listing over a degree-peeling decomposition.

The graph is split once: vertices are repeatedly peeled while their
residual degree is below a threshold d_min ~ n^delta / c; the edges a
vertex still has when peeled become its assigned sparse edges, and the
components of the surviving graph become clusters.  Two facts drive
everything downstream.  First, an edge is either internal to one
cluster (member edges) or has a peeled endpoint (sparse edges); there
are no member-to-member edges between different clusters, because such
an edge would have survived peeling and merged the components.  Second,
a vertex assigned edges at peel time holds fewer than d_min of them,
so broadcasting assigned sets is cheap.  The same pass fixes epsilon:
every non-member is classified heavy or light for each cluster it
touches, once, and every phase below reads that one classification.

Listing runs in three phases, each executed on the bandwidth-accounted
simulator where communication actually happens:

* Sparse phase: every node announces its cluster flag and streams its
  assigned sparse edges to its neighbors.  After that exchange each
  node knows every sparse edge incident to itself or to a neighbor,
  which is enough to list, exactly, the diamonds whose five edges are
  all sparse: a wing certifies its own non-edge, a spine vertex
  certifies the non-edge between two of its neighbors unless they are
  co-members of one cluster, in which case both wings succeed instead.

* Heavy phase: a non-member with more than n^epsilon neighbors inside a
  cluster is heavy for it.  Each heavy vertex splits its full neighbor
  list into one chunk per cluster neighbor and streams the chunks in;
  the cluster then has full knowledge of each heavy neighborhood plus
  its members' incident edges, and lists, exactly, the diamonds with a
  member edge and a heavy vertex.  Moving the gathered data inside the
  cluster is not executed; it is charged at the textbook gather cost
  per engaged cluster and reported as such.

* Light phase: non-members with between 1 and n^epsilon neighbors in a
  cluster stream those neighbor lists, then query one cluster endpoint
  per pair of their own cluster neighbors for the pair's status (at
  most n^epsilon - 1 queried pairs per edge, by the light bound, with
  one answer bit each).  A vertex seeing two cluster neighbors lists
  the diamonds whose missing pair is light-to-cluster; a member lists
  those whose missing pair joins two of its light neighbors, using the
  sparse broadcasts to certify that absence.  Diamonds with three or
  more vertices in one cluster are reconciled centrally from member
  knowledge alone (every pair of such a diamond touches a member); no
  messages are charged for that step since the member data already
  sits inside the cluster.

Each phase builds its decoder tables before the run, from the
decomposition, over exactly the strings its nodes can send.  A table
maps a string to the value its bits encode, so a lookup tells a node
nothing its mail did not carry.  Nodes only read what their factory
closed over, so one node affects another through its mail alone.

The three phase outputs are provably disjoint and their union is the
full induced-diamond set; coverage_tags computes the expected phase of
each diamond of a listing so tests can assert the partition exactly.

All thresholds of the form n^(p/q) are compared in exact integer
arithmetic; floats never decide a classification.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Container, Iterable
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations

from .bundles import canonical_json_bytes
from .congest import (
    NodeProgram,
    RunStats,
    SimConfig,
    encode_uint,
    run,
    word_bits,
)
from .graphs import (
    DEFAULT_WORK_BUDGET,
    Graph,
    _as_fraction,
    ceil_sqrt,
    connected_components,
    frac_pow_ceil,
    frac_pow_floor,
    induced_edges,
    list_induced_diamonds,
    norm_edge,
)

__all__ = [
    "Cluster",
    "Decomposition",
    "DiamondRunStats",
    "coverage_tags",
    "decompose_by_peeling",
    "list_induced_diamonds_congest",
    "min_peel_degree",
    "run_heavy_phase",
    "run_light_phase",
    "run_sparse_phase",
]

DEFAULT_DELTA = Fraction(5, 6)
DEFAULT_EPSILON = Fraction(1, 2)
DEFAULT_MIN_DEGREE_CONSTANT = 4


def min_peel_degree(n: int, delta: Fraction, constant: int) -> int:
    """max(2, min(n + 1, ceil(n^delta / constant))), exactly.

    The n + 1 cap (no vertex has that many neighbors) only bites for
    delta > 1, where it keeps d_min at "peel everything".
    """
    if constant < 1:
        raise ValueError(f"min degree constant must be positive, got {constant}")
    ceil_pow = frac_pow_ceil(n, delta)
    return max(2, min(n + 1, (ceil_pow + constant - 1) // constant))


@dataclass
class Cluster:
    index: int
    leader: int
    members: frozenset[int]
    edges: frozenset[tuple[int, int]]


@dataclass
class Decomposition:
    """One peel: ``es_assigned`` maps each peeled vertex, in peel order, to
    its edges; ``cluster_index`` maps each vertex to its cluster's index
    (None if peeled), whose ``leader`` is the member's leader; ``heavy``
    and ``light`` map a cluster index to non-members, each with its sorted
    member neighbors."""

    n: int
    delta: Fraction
    epsilon: Fraction
    d_min: int
    light_max: int
    es_assigned: dict[int, tuple[tuple[int, int], ...]]
    clusters: tuple[Cluster, ...]
    cluster_index: dict[int, int | None]
    heavy: dict[int, dict[int, list[int]]]
    light: dict[int, dict[int, list[int]]]

    def es_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(e for edges in self.es_assigned.values() for e in edges)

    def em_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(e for c in self.clusters for e in c.edges)

    def es_cap(self) -> int:
        """Per-vertex assigned-edge cap: n^delta * log2(n), rounded up."""
        return frac_pow_ceil(self.n, self.delta) * word_bits(self.n)

    def validate(self, g: Graph) -> list[str]:
        """Structural invariants; returns human-readable violations."""
        out: list[str] = []
        es = self.es_edges()
        em = self.em_edges()
        if es & em:
            out.append(f"{len(es & em)} edges are both sparse and member")
        if es | em != g.edges:
            out.append("sparse+member edges do not cover the graph")
        assigned_total = sum(len(v) for v in self.es_assigned.values())
        if assigned_total != len(es):
            out.append("an edge is assigned to more than one vertex")
        cap = self.es_cap()
        for v, edges in self.es_assigned.items():
            if len(edges) >= self.d_min:
                out.append(f"vertex {v} was assigned {len(edges)} >= d_min edges")
            if len(edges) > cap:
                out.append(f"vertex {v} exceeds the assigned-edge cap")
        seen: set[int] = set()
        for c in self.clusters:
            if c.members & seen:
                out.append(f"cluster {c.index} overlaps another cluster")
            seen |= c.members
            if c.leader != min(c.members):
                out.append(f"cluster {c.index} leader is not the minimum member")
            for v in c.members:
                deg_in = len(g.adj[v] & c.members)
                if deg_in < self.d_min:
                    out.append(
                        f"member {v} has in-cluster degree {deg_in} < {self.d_min}"
                    )
        # The cross-cluster rule needs two different cluster indices.
        if len(set(self.cluster_index.values()) - {None}) > 1:
            for u, v in g.edges:
                cu, cv = self.cluster_index.get(u), self.cluster_index.get(v)
                if cu is not None and cv is not None and cu != cv:
                    out.append(f"edge ({u},{v}) joins two different clusters")
        if self.es_assigned.keys() != {
            v for v in range(self.n) if self.cluster_index.get(v) is None
        }:
            out.append("peel order disagrees with cluster membership")
        return out


def decompose_by_peeling(
    g: Graph,
    delta: Fraction = DEFAULT_DELTA,
    min_degree_constant: int = DEFAULT_MIN_DEGREE_CONSTANT,
    epsilon: Fraction = DEFAULT_EPSILON,
) -> Decomposition:
    """Peel low-degree vertices, keep surviving components as clusters,
    and split each cluster's non-member neighbors into heavy and light.

    Deterministic: among peelable vertices the smallest id goes first.
    A peeled vertex is assigned the edges it still had, so every edge
    with a peeled endpoint is assigned exactly once (to the endpoint
    peeled earlier) and edges between survivors stay member edges.

    Peelable ids sit in a min-heap.  A vertex is pushed once, when its
    residual degree first drops below d_min; degrees only fall, so it
    stays peelable until popped.  Each edge is removed once and each
    vertex pushed and popped at most once: O((n + m) log n) in all.

    A non-member is heavy for a cluster with more than light_max =
    floor(n^epsilon) member neighbors and light with 1..light_max.

    delta and epsilon must lie in [0, 2] and have a common denominator
    (that of the heavy phase's n^(2 - delta - epsilon)) of at most 1000,
    checked before any power: at delta 1 every vertex already peels, at
    epsilon 1 none is heavy, and the exact powers raise candidates to the
    denominator's power (one n^(1/q) at n = 3000 takes 0.003 s at q = 10^3
    and 4.8 s at q = 10^5).
    """
    delta = _as_fraction(delta)
    epsilon = _as_fraction(epsilon)
    for name, value in (("delta", delta), ("epsilon", epsilon)):
        if not 0 <= value <= 2:
            raise ValueError(f"{name} must be in [0, 2], got {value}")
        if value.denominator > 1000:
            raise ValueError(f"{name} must have a denominator of at most 1000, got {value}")
    if math.lcm(delta.denominator, epsilon.denominator) > 1000:
        raise ValueError(
            "delta and epsilon must have a common denominator of at most 1000, "
            f"got {delta} and {epsilon}"
        )
    d_min = min_peel_degree(g.n, delta, min_degree_constant)
    adj = [set(nbrs) for nbrs in g.adj]
    # Built in increasing id order, so it is already a valid heap.
    peelable = [v for v in range(g.n) if len(adj[v]) < d_min]
    # Filled in peel order; its keys are the peeled vertices.
    es_assigned: dict[int, tuple[tuple[int, int], ...]] = {}
    while peelable:
        v = heappop(peelable)
        edges = tuple(sorted((v, u) if v < u else (u, v) for u in adj[v]))
        es_assigned[v] = edges
        for u in adj[v]:
            adj_u = adj[u]
            adj_u.discard(v)
            if len(adj_u) == d_min - 1:
                heappush(peelable, u)
    survivors = (v for v in range(g.n) if v not in es_assigned)
    clusters = [
        Cluster(index=idx, leader=min(comp), members=comp, edges=induced_edges(g, comp))
        for idx, comp in enumerate(connected_components(g, within=survivors))
    ]
    cluster_index: dict[int, int | None] = {v: None for v in range(g.n)}
    for c in clusters:
        for v in c.members:
            cluster_index[v] = c.index
    light_max = frac_pow_floor(g.n, epsilon)
    heavy: dict[int, dict[int, list[int]]] = {c.index: {} for c in clusters}
    light: dict[int, dict[int, list[int]]] = {c.index: {} for c in clusters}
    # Without clusters no vertex is heavy or light.
    for v in range(g.n) if clusters else ():
        # v's neighbors inside clusters other than v's own, by cluster;
        # each list is sorted once, so it holds them in ascending order.
        by_cluster: dict[int, list[int]] = {}
        for u in g.adj[v]:
            cu = cluster_index[u]
            if cu is not None and cu != cluster_index[v]:
                by_cluster.setdefault(cu, []).append(u)
        for ci, members in by_cluster.items():
            members.sort()
            (heavy if len(members) > light_max else light)[ci][v] = members
    return Decomposition(
        n=g.n,
        delta=delta,
        epsilon=epsilon,
        d_min=d_min,
        light_max=light_max,
        es_assigned=es_assigned,
        clusters=tuple(clusters),
        cluster_index=cluster_index,
        heavy=heavy,
        light=light,
    )


def _member_incident_edges(
    g: Graph, members: frozenset[int], avoid: Container[int] = frozenset()
) -> set[tuple[int, int]]:
    """Edges with an endpoint in *members* and none in *avoid*."""
    return {norm_edge(v, u) for v in members for u in g.adj[v] if u not in avoid}


def _run_phase(g: Graph, program: NodeProgram, rounds: int) -> RunStats:
    """Run one phase program within its round schedule, or raise."""
    stats = run(g, program, SimConfig(max_rounds=rounds))
    if stats.timed_out:
        raise RuntimeError(f"{program.name} exceeded its round schedule")
    return stats


def _found(stats: RunStats) -> set[tuple[int, ...]]:
    """The union of the diamonds each node of a phase run found."""
    return {d for res in stats.listings.values() for d in res["found"]}


def _id_tables(sent: Iterable[int], w: int) -> tuple[dict[int, str], dict[str, int]]:
    """A run's read-only w-bit id codec over the ids it can send:
    ``codes[u]`` is u's string and ``ids[bits]`` decodes it."""
    codes = {u: encode_uint(u, w) for u in sent}
    return codes, {bits: u for u, bits in codes.items()}


# ---------------------------------------------------------------------------
# Sparse phase.
# ---------------------------------------------------------------------------


def _sparse_finds(
    v: int,
    es_adj: dict[int, set[int]],
    nbr_leader: dict[int, int | None],
) -> set[tuple[int, ...]]:
    """Diamonds certifiable at v from sparse-edge knowledge alone.

    Wing rule: v takes the wing seat, the spine is a sparse-adjacent
    pair, the far wing is any common sparse neighbor of the spine that
    v can swear is not its own neighbor.  Spine rule: v takes a spine
    seat; the non-edge between the candidate wings (both real neighbors
    of v) is certified unless they sit in one cluster, a case the wing
    rule of both wings handles instead.

    ``es_adj`` maps v and each of its neighbors, its only keys, to their
    sparse neighbors over the edges v knows.  The spine partners of v and
    the candidate wings are intersections of those sets, a pair is known
    adjacent when one endpoint's set holds the other, and a far wing is
    certified when it is not a key.
    """
    found: set[tuple[int, ...]] = set()
    es_nb = es_adj[v]
    known = es_adj.keys()
    for a in es_nb:
        a_nb = es_adj[a]
        if es_nb.isdisjoint(a_nb):
            continue
        common = es_nb & a_nb
        for c in common:
            c_nb = es_adj[c]
            # Wing rule: spine (a, c), far wing d.
            if c > a:
                for d in (a_nb & c_nb) - known:
                    found.add(tuple(sorted((v, a, c, d))))
            # Spine rule: spine (v, a), wings c < d not known to be adjacent.
            lc = nbr_leader.get(c)
            for d in common - c_nb:
                if d > c and (lc is None or lc != nbr_leader.get(d)):
                    found.add(tuple(sorted((v, a, c, d))))
    return found


def _cluster_flag_payload(dec: Decomposition, v: int, count: int, w: int) -> str:
    """v's round-0 flag: "1" + its cluster's leader, or "0" + *count*."""
    ci = dec.cluster_index[v]
    if ci is not None:
        return "1" + encode_uint(dec.clusters[ci].leader, w)
    return "0" + encode_uint(count, w)


def run_sparse_phase(
    g: Graph,
    dec: Decomposition,
) -> tuple[set[tuple[int, ...]], RunStats]:
    """Execute the sparse broadcast and listing on the simulator.

    Returns the union of per-node finds (exactly the diamonds whose
    five edges are all sparse) and the run statistics.  Per-node
    collected state doubles as warm-start knowledge for the light
    phase.

    Node v sends ``streams[v][r]`` in round r: its flag, then its
    assigned edges.
    """
    w = word_bits(g.n)
    edge_format = f"0{2 * w}b"
    # One pass formats every stream and files the decoders: a flag decodes
    # to (leader or None, assigned edge count; a member has none), an edge to (a, b).
    streams: list[list[str]] = []
    flags: dict[str, tuple[int | None, int]] = {}
    edges: dict[str, tuple[int, int]] = {}
    for v in range(g.n):
        own = dec.es_assigned.get(v, ())
        stream = [_cluster_flag_payload(dec, v, len(own), w)]
        ci = dec.cluster_index[v]
        flags[stream[0]] = (None if ci is None else dec.clusters[ci].leader, len(own))
        for e in own:
            bits = format(e[0] << w | e[1], edge_format)
            edges[bits] = e
            stream.append(bits)
        streams.append(stream)

    def init(v, neighbors, n_):
        es_adj = {u: set() for u in neighbors}
        partners = set()
        for a, b in dec.es_assigned.get(v, ()):
            x = b if a == v else a
            partners.add(x)
            es_adj[x].add(v)
        es_adj[v] = partners
        # v, its stream, neighbor leaders, sparse adjacency, decide round, finds.
        return [v, streams[v], {}, es_adj, None, set()]

    def step(state, r, inbox):
        if r == 1:
            # A node decides once its neighbors' longest stream is in.
            nbr_leader = state[2]
            longest = 0
            for src, bits in inbox.items():
                nbr_leader[src], length = flags[bits]
                if length > longest:
                    longest = length
            state[4] = 1 + longest
        elif inbox:
            # A vertex is assigned only its own edges, so each streamed edge
            # has the sender as an endpoint; the far one x is a key if in N[v].
            es_adj = state[3]
            for src, bits in inbox.items():
                a, b = edges[bits]
                x = b if a == src else a
                es_adj[src].add(x)
                if x in es_adj:
                    es_adj[x].add(src)
        stream = state[1]
        outbox = stream[r] if r < len(stream) else []
        if r == state[4]:
            found = state[5] = _sparse_finds(state[0], state[3], state[2])
            return state, outbox, 1 if found else 0
        return state, outbox, None

    def collect(state):
        return {"found": tuple(sorted(state[5])), "es_adj": state[3]}

    program = NodeProgram(name="diamond-sparse", init=init, step=step, collect=collect)
    stats = _run_phase(g, program, max(dec.d_min + 3, 4))
    return _found(stats), stats


# ---------------------------------------------------------------------------
# Heavy phase.
# ---------------------------------------------------------------------------


def run_heavy_phase(
    g: Graph,
    dec: Decomposition,
    budget: int = DEFAULT_WORK_BUDGET,
) -> tuple[set[tuple[int, ...]], RunStats | None, dict]:
    """Stream heavy neighbor lists into clusters, then list per cluster.

    The chunk delivery is executed on the simulator; the intra-cluster
    gathering and the listing itself are charged at
    ceil(n^(2 - delta - epsilon)) + ceil(sqrt(n)) * ceil(n^(2 - 2 delta))
    rounds per engaged cluster and computed centrally from exactly the
    delivered data plus member-incident edges.  The central listing
    builds only the diamonds with a vertex heavy for the cluster (a
    quota of one on the cluster's heavy set) and keeps those with a
    member edge: a diamond of heavy vertices alone meets the quota, so
    the member-edge test still decides.

    Returns (diamonds, run stats or None when no vertex is heavy,
    accounting dict).
    """
    n = g.n
    w = word_bits(n)
    engaged = [c for c in dec.clusters if dec.heavy[c.index]]
    accounting: dict = {
        "engaged_clusters": len(engaged),
        "charged_rounds_max": 0,
        "charged_rounds_sum": 0,
        "gathered_entries_max": 0,
        "gathered_entries_cap": 0,
    }
    if not engaged:
        return set(), None, accounting

    # Chunk plans: each heavy vertex splits its sorted neighbor list into
    # one chunk per member neighbor, in member order.  A heavy vertex
    # learns its member neighbors in the round-0 flag exchange.
    plans: dict[int, dict[int, tuple[int, ...]]] = {}
    max_chunk = 0
    for hs in dec.heavy.values():
        for h, members in hs.items():
            nbrs = tuple(sorted(g.adj[h]))
            chunk = math.ceil(len(nbrs) / len(members))
            max_chunk = max(max_chunk, chunk)
            plan = plans.setdefault(h, {})
            for t, m in enumerate(members):
                plan[m] = nbrs[t * chunk : (t + 1) * chunk]
    schedule_end = 2 + max_chunk
    # Chunks hold the neighbors of heavy vertices, the only ids sent.
    codes, ids = _id_tables((u for h in plans for u in g.adj[h]), w)

    def init(v, neighbors, n_):
        # Round 0 sends the flag, round r entry r - 1 of each chunk.
        chunks = sorted(plans[v].items()) if v in plans else []
        stream = [_cluster_flag_payload(dec, v, 0, w)]
        for idx in range(max((len(chunk) for _, chunk in chunks), default=0)):
            stream.append([(m, codes[chunk[idx]]) for m, chunk in chunks if idx < len(chunk)])
        # Its stream, then the received fragments by sender.
        return [stream, {}]

    def step(state, r, inbox):
        # Round-1 mail is the flags, charged but not stored.
        if r >= 2 and inbox:
            fragments = state[1]
            for src, bits in inbox.items():
                fragments.setdefault(src, []).append(ids[bits])
        stream = state[0]
        outbox = stream[r] if r < len(stream) else []
        return state, outbox, 0 if r == schedule_end else None

    def collect(state):
        return {"fragments": {u: tuple(got) for u, got in state[1].items()}}

    program = NodeProgram(name="diamond-heavy", init=init, step=step, collect=collect)
    stats = _run_phase(g, program, schedule_end + 2)

    exp_gather = max(Fraction(0), 2 - dec.delta - dec.epsilon)
    exp_route = max(Fraction(0), 2 - 2 * dec.delta)
    charged_one = frac_pow_ceil(n, exp_gather) + ceil_sqrt(n) * frac_pow_ceil(
        n, exp_route
    )

    # Reassemble each heavy neighborhood from its cluster's fragments (only
    # its heavy vertices send any); completeness is by construction, asserted.
    found: set[tuple[int, ...]] = set()
    gathered_max = 0
    for c in engaged:
        assembled: dict[int, set[int]] = {h: set() for h in dec.heavy[c.index]}
        for m in c.members:
            res = stats.listings[m]
            received = 0
            for src, ids in res["fragments"].items():
                received += len(ids)
                assembled[src].update(ids)
            gathered_max = max(gathered_max, received)
        for h, ids in assembled.items():
            if ids != set(g.adj[h]):
                raise AssertionError(f"heavy neighborhood of {h} arrived incomplete")
        knowledge = _member_incident_edges(g, c.members)
        knowledge |= {norm_edge(h, x) for h, ids in assembled.items() for x in ids}
        kg = Graph(n, knowledge)
        cluster_heavy = dec.heavy[c.index].keys()
        for d in list_induced_diamonds(kg, budget=budget, quota=(cluster_heavy, 1)):
            if not any(e in c.edges for e in combinations(d, 2)):
                continue
            # Every pair of such a candidate touches a member or a heavy
            # vertex, so all six statuses are exact and the diamond real.
            found.add(d)
    accounting["charged_rounds_max"] = charged_one
    accounting["charged_rounds_sum"] = charged_one * len(engaged)
    # Per-member capacity: each heavy neighbor contributes chunks of at
    # most ceil(deg/n^eps) entries, so one member gathers under n^(2-eps).
    accounting["gathered_entries_max"] = gathered_max
    accounting["gathered_entries_cap"] = frac_pow_ceil(n, Fraction(2) - dec.epsilon)
    return found, stats, accounting


# ---------------------------------------------------------------------------
# Light phase.
# ---------------------------------------------------------------------------


def run_light_phase(
    g: Graph,
    dec: Decomposition,
    *,
    warm: dict,
    budget: int = DEFAULT_WORK_BUDGET,
) -> tuple[set[tuple[int, ...]], RunStats, dict]:
    """Stream light neighbor lists, query pair statuses, list the rest.

    ``warm`` is required: the per-node listings of a sparse-phase run on
    the same graph and decomposition, whose sparse knowledge certifies
    the member rule's absences.  Reconciliation of diamonds with >= 3
    vertices in one cluster and no vertex heavy for it happens centrally
    and is charged zero messages.  It lists the member-incident edges
    that avoid the cluster's heavy vertices, with a quota of three
    members, so it builds exactly the diamonds it keeps.

    The schedule is central, from the decomposition's exact maxima.  A
    node v broadcasts its entry count (round 0), then entries[v], its
    member neighbors in every cluster it is light for (rounds 1..lb-1).
    It sends each member c1 it queries a query count (round lb), then
    queries[v][c1], the other member neighbors of c1's cluster (rounds
    lb+1..lb+lc-1).  c1 answers one presence bit per id, in arrival
    order and 2w-bit slices (rounds lb+lc..), and all decide together.
    The counts are charged but not stored, as the schedule fixes them;
    an answer whose length is not its query's raises.

    Returns (diamonds, stats of the executed segments, accounting).
    """
    n = g.n
    w = word_bits(n)
    # Only vertices light for some cluster have entries or queries.
    entries: dict[int, list[int]] = {}
    queries: dict[int, dict[int, list[int]]] = {}
    for light in dec.light.values():
        for u, members in light.items():
            entries.setdefault(u, []).extend(members)
            for c1 in members:
                qs = [c2 for c2 in members if c2 != c1]
                if qs:
                    queries.setdefault(u, {})[c1] = qs

    lb = 1 + max((len(e) for e in entries.values()), default=0)
    max_qlen = max(
        (len(qs) for qmap in queries.values() for qs in qmap.values()), default=0
    )
    lc = 1 + max_qlen
    chunk_bits = 2 * w
    ld = math.ceil(max_qlen / chunk_bits)
    decide_round = lb + lc + ld
    # Entries and queries name cluster members, the only ids sent.
    codes, ids = _id_tables((u for c in dec.clusters for u in c.members), w)

    def init(v, neighbors, n_):
        # Rounds 0..lb+lc-1: entry count, entries, silence, query counts, queries.
        mine = sorted(entries.get(v, ()))
        asks = sorted(queries[v].items()) if v in queries else []
        stream = [encode_uint(len(mine), w), *map(codes.__getitem__, mine)]
        stream += [[]] * (lb - len(stream))
        stream.append([(c1, encode_uint(len(qs), w)) for c1, qs in asks])
        for idx in range(max_qlen):
            stream.append([(c1, codes[qs[idx]]) for c1, qs in asks if idx < len(qs)])
        # v, stream, queries, sparse adjacency, received entries, replies,
        # answer bits, finds.
        return [v, stream, asks, warm[v]["es_adj"], {}, {}, {}, set()]

    def step(state, r, inbox):
        # Round-1 mail is the entry counts, charged but not stored.
        if r >= 2 and inbox:
            if r <= lb:
                recv_entries = state[4]
                for src, bits in inbox.items():
                    recv_entries.setdefault(src, set()).add(ids[bits])
            elif lb + 2 <= r <= lb + lc:
                replies = state[5]
                nbrs = g.adj[state[0]]
                for src, bits in inbox.items():
                    bit = "1" if ids[bits] in nbrs else "0"
                    replies[src] = replies.get(src, "") + bit
            elif r > lb + lc:
                answer_bits = state[6]
                for src, bits in inbox.items():
                    answer_bits[src] = answer_bits.get(src, "") + bits
        stream = state[1]
        outbox: str | list[tuple[int, str]] = []
        if r < len(stream):
            outbox = stream[r]
        elif state[5]:
            lo = (r - lb - lc) * chunk_bits
            for src, reply in sorted(state[5].items()):
                piece = reply[lo : lo + chunk_bits]
                if piece:
                    outbox.append((src, piece))
        if r == decide_round:
            found = state[7] = _light_finds(state)
            return state, outbox, 1 if found else 0
        return state, outbox, None

    def _light_finds(state) -> set[tuple[int, ...]]:
        v, _, queries_v, es_adj, recv_entries, _, answer_bits, _ = state
        found: set[tuple[int, ...]] = set()
        # Double-cluster-neighbor rule: v spans the pair (c1, c2), the
        # single-cluster-neighbor u supplies the missing-pair absence.
        for c1, qs in queries_v:
            answer = answer_bits.get(c1, "")
            present = [c2 for c2, bit in zip(qs, answer, strict=True) if bit == "1"]
            for u, eset in recv_entries.items():
                if c1 in eset:
                    for c2 in present:
                        if c2 not in eset:
                            found.add(tuple(sorted((v, u, c1, c2))))
        # Member rule: v is a cluster vertex joining two of its light
        # neighbors whose mutual absence the sparse knowledge certifies.
        ci = dec.cluster_index[v]
        if ci is not None:
            members = dec.clusters[ci].members
            lights = sorted(u for u, eset in recv_entries.items() if v in eset)
            for u1, u2 in combinations(lights, 2):
                if u2 in es_adj[u1]:
                    continue
                for c2 in recv_entries[u1] & recv_entries[u2] & g.adj[v] & members:
                    found.add(tuple(sorted((u1, u2, v, c2))))
        return found

    def collect(state):
        return {"found": tuple(sorted(state[7]))}

    program = NodeProgram(name="diamond-light", init=init, step=step, collect=collect)
    stats = _run_phase(g, program, decide_round + 2)
    found = _found(stats)
    l1_l2_count = len(found)

    # Reconciliation: diamonds with >= 3 vertices in one cluster have all
    # six pairs member-incident, so member knowledge already inside the
    # cluster decides them; zero messages charged.  Those with a heavy
    # vertex belong to the heavy phase; without its edges a heavy vertex
    # is isolated here, so no listed diamond holds one.
    reconcile: set[tuple[int, ...]] = set()
    for c in dec.clusters:
        kg = Graph(n, _member_incident_edges(g, c.members, avoid=dec.heavy[c.index]))
        reconcile.update(
            list_induced_diamonds(kg, budget=budget, quota=(c.members, 3))
        )
    found |= reconcile

    accounting = {
        "executed_rounds": stats.rounds_used,
        "query_len_max": max_qlen,
        "query_len_cap": max(0, dec.light_max - 1),
        "pair_rule_found": l1_l2_count,
        "reconcile_found": len(reconcile),
    }
    return found, stats, accounting


# ---------------------------------------------------------------------------
# Orchestration and coverage.
# ---------------------------------------------------------------------------


@dataclass
class DiamondRunStats:
    n: int
    m: int
    delta: str
    epsilon: str
    min_degree_constant: int
    d_min: int
    light_max: int
    es_cap: int
    cluster_count: int
    cluster_sizes: tuple[int, ...]
    outsider_count: int
    sparse_rounds: int
    sparse_messages: int
    sparse_found: int
    heavy_executed_rounds: int
    heavy_messages: int
    heavy_found: int
    heavy_engaged_clusters: int
    heavy_charged_rounds_max: int
    heavy_charged_rounds_sum: int
    gathered_entries_max: int
    gathered_entries_cap: int
    light_executed_rounds: int
    light_messages: int
    light_pair_rule_found: int
    light_reconcile_found: int
    light_found: int
    query_len_max: int
    query_len_cap: int
    total_found: int
    coverage_counts: dict | None = None

    def to_json_bytes(self) -> bytes:
        return canonical_json_bytes(self.__dict__)


def list_induced_diamonds_congest(
    g: Graph,
    delta: Fraction = DEFAULT_DELTA,
    epsilon: Fraction = DEFAULT_EPSILON,
    min_degree_constant: int = DEFAULT_MIN_DEGREE_CONSTANT,
    budget: int = DEFAULT_WORK_BUDGET,
    with_coverage: bool = False,
) -> tuple[tuple[tuple[int, ...], ...], DiamondRunStats]:
    """Full distributed listing: decompose, run the three phases, union.

    The returned listing is sorted and duplicate-free; the stats report
    executed rounds and messages per phase, the charged gather cost,
    and the observed caps.  With with_coverage=True the stats also
    count expected phases over the phase outputs themselves.
    """
    dec = decompose_by_peeling(g, delta, min_degree_constant, epsilon)
    problems = dec.validate(g)
    if problems:
        raise AssertionError("; ".join(problems))

    sparse_found, sparse_stats = run_sparse_phase(g, dec)
    heavy_found, heavy_stats, heavy_acct = run_heavy_phase(g, dec, budget=budget)
    light_found, light_stats, light_acct = run_light_phase(
        g, dec, warm=sparse_stats.listings, budget=budget
    )
    all_found = sorted(sparse_found | heavy_found | light_found)

    coverage = None
    if with_coverage:
        coverage = dict(Counter(coverage_tags(g, dec, tuple(all_found)).values()))

    stats = DiamondRunStats(
        n=g.n,
        m=g.m,
        delta=str(dec.delta),
        epsilon=str(dec.epsilon),
        min_degree_constant=min_degree_constant,
        d_min=dec.d_min,
        light_max=dec.light_max,
        es_cap=dec.es_cap(),
        cluster_count=len(dec.clusters),
        cluster_sizes=tuple(sorted(len(c.members) for c in dec.clusters)),
        outsider_count=len(dec.es_assigned),
        sparse_rounds=sparse_stats.rounds_used,
        sparse_messages=sparse_stats.message_count,
        sparse_found=len(sparse_found),
        heavy_executed_rounds=heavy_stats.rounds_used if heavy_stats else 0,
        heavy_messages=heavy_stats.message_count if heavy_stats else 0,
        heavy_found=len(heavy_found),
        heavy_engaged_clusters=heavy_acct["engaged_clusters"],
        heavy_charged_rounds_max=heavy_acct["charged_rounds_max"],
        heavy_charged_rounds_sum=heavy_acct["charged_rounds_sum"],
        gathered_entries_max=heavy_acct["gathered_entries_max"],
        gathered_entries_cap=heavy_acct["gathered_entries_cap"],
        light_executed_rounds=light_acct["executed_rounds"],
        light_messages=light_stats.message_count,
        light_pair_rule_found=light_acct["pair_rule_found"],
        light_reconcile_found=light_acct["reconcile_found"],
        light_found=len(light_found),
        query_len_max=light_acct["query_len_max"],
        query_len_cap=light_acct["query_len_cap"],
        total_found=len(all_found),
        coverage_counts=coverage,
    )
    return tuple(all_found), stats


def coverage_tags(
    g: Graph, dec: Decomposition, diamonds: tuple[tuple[int, ...], ...]
) -> dict[tuple[int, ...], str]:
    """Expected phase for each induced diamond of g in *diamonds*.

    A diamond's five edges are either all sparse, or they include member
    edges of exactly one cluster (member edges of two different clusters
    cannot coexist in one diamond: the cross pairs would have to be
    member-to-member edges between clusters, which the single-level
    split forbids).  That cluster then decides heavy versus light, and
    within light the member count picks reconciliation while the missing
    pair picks which pair rule fires.

    Each diamond is a sorted vertex tuple, as the listers return them.
    By the peel invariants ``Decomposition.validate`` checks, member edges
    join co-members, so the first adjacent co-member pair names the cluster;
    without clusters every diamond is sparse.
    """
    if not dec.clusters:
        return dict.fromkeys(diamonds, "sparse")
    cluster_index = dec.cluster_index
    adj = g.adj
    tags: dict[tuple[int, ...], str] = {}
    for d in diamonds:
        for a, b in combinations(d, 2):
            ci = cluster_index[a]
            if ci is not None and ci == cluster_index[b] and b in adj[a]:
                break
        else:
            tags[d] = "sparse"
            continue
        outside = set(d) - dec.clusters[ci].members
        if not dec.heavy[ci].keys().isdisjoint(d):
            tags[d] = "heavy"
        elif len(outside) <= 1:
            tags[d] = "light-reconcile"
        else:
            present = g.has_edge(*outside)
            tags[d] = "light-pair-present" if present else "light-pair-absent"
    return tags

