"""Operational verification of the hard-instance family conditions.

A family is usable as a communication lower-bound gadget when four
things hold for every input pair: (1) the vertex set, side split, and
cut never move; (2) side-A internal edges are a function of x alone;
(3) side-B internal edges a function of y alone; (4) the target
subgraph is present exactly when x and y intersect.  The checker
builds instances for a designed-plus-random battery of pairs (or every
pair, when the input space is small enough to exhaust) and tests all
four conditions against the brute-force oracles, reporting explicit
counterexamples on failure.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator

from .bitstrings import (
    bits_intersect,
    ones,
    pair_index,
    random_bits,
    random_nonintersecting_pair,
    singleton,
    zeros,
)
from .bundles import canonical_json_bytes
from .diamond_family import (
    DiamondFixture,
    build_diamond_family,
    has_two_two_diamond,
)
from .families import (
    LONG_CYCLE_CODE_BLOCKS,
    FamilyInstance,
    InputPair,
    build_cycle_family,
    build_long_cycle_family,
)
from .graphs import DEFAULT_WORK_BUDGET, has_induced_cycle, induced_edges

__all__ = [
    "FamilyCheckReport",
    "FamilyHarness",
    "check_block_counts",
    "cycle_harness",
    "diamond_harness",
    "long_cycle_harness",
    "verify_family_conditions",
]

EXHAUSTIVE_PAIR_LIMIT = 1024
# 4^9 pairs cover every cycle family at n <= 3; the cap bounds the running time.
EXHAUSTIVE_BIT_CAP = 9
COUNTEREXAMPLE_CAP = 5


@dataclass(frozen=True)
class FamilyHarness:
    """A family builder plus the predicate its inputs are meant to control;
    the family, its parameters and any target length live on the instances."""

    bit_count: int
    build: Callable[[InputPair], FamilyInstance]
    predicate: Callable[[FamilyInstance], bool]


def _target_cycle_predicate(budget: int) -> Callable[[FamilyInstance], bool]:
    """Whether an instance holds an induced cycle of its ``target_length``."""
    return lambda inst: has_induced_cycle(
        inst.graph, inst.meta["target_length"], budget=budget
    )


def cycle_harness(n: int, k: int, budget: int = DEFAULT_WORK_BUDGET) -> FamilyHarness:
    return FamilyHarness(
        bit_count=n * n,
        build=lambda pair: build_cycle_family(n, k, pair),
        predicate=_target_cycle_predicate(budget),
    )


def long_cycle_harness(
    n: int,
    ell: int,
    m: int = 0,
    budget: int = DEFAULT_WORK_BUDGET,
    include_centers: bool = False,
) -> FamilyHarness:
    # Predicate checks default to center-less instances: at ell = 1 the
    # diameter centers admit stray induced 8-cycles on disjoint pairs.
    return FamilyHarness(
        bit_count=n * n,
        build=lambda pair: build_long_cycle_family(
            n, ell, m, pair, include_centers=include_centers
        ),
        predicate=_target_cycle_predicate(budget),
    )


def diamond_harness(
    fixture: DiamondFixture, budget: int = DEFAULT_WORK_BUDGET
) -> FamilyHarness:
    return FamilyHarness(
        bit_count=fixture.bit_count,
        build=lambda pair: build_diamond_family(fixture, pair),
        predicate=lambda inst: has_two_two_diamond(inst, budget=budget),
    )


@dataclass
class FamilyCheckReport:
    family: str
    params: dict
    bit_count: int
    pairs_checked: int
    exhaustive: bool
    intersecting_checked: int
    disjoint_checked: int
    conditions: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.conditions.values())

    def to_json_bytes(self) -> bytes:
        return canonical_json_bytes({**asdict(self), "passed": self.passed})


def _designed_pairs(k: int, samples: int, seed: int) -> list[InputPair]:
    """Deterministic battery: corner cases, single-bit probes, random fill.

    Duplicates are dropped as pairs are drawn, so the battery holds
    ``max(samples, 4)`` distinct pairs, or all ``4**k`` when there are
    fewer.
    """
    rng = random.Random(seed)
    pairs: list[InputPair] = [
        InputPair(zeros(k), zeros(k)),
        InputPair(ones(k), ones(k)),
        InputPair(ones(k), zeros(k)),
        InputPair(zeros(k), ones(k)),
    ]
    if k >= 1:
        probe_idx = sorted({0, k - 1, k // 2})
        for i in probe_idx:
            pairs.append(InputPair(singleton(k, i), singleton(k, i)))
            # Near miss: y holds everything except the probe bit.
            missing = ones(k)[:i] + "0" + ones(k)[i + 1 :]
            pairs.append(InputPair(singleton(k, i), missing))
    if k >= 2:
        pairs.append(InputPair(singleton(k, 0), singleton(k, k - 1)))
        pairs.append(InputPair(singleton(k, k - 1), singleton(k, 0)))
    target = min(max(samples, 4), 4**k)
    # A dict keeps the first draw of each pair, in draw order.
    unique = dict.fromkeys(list(dict.fromkeys(pairs))[:target])
    while len(unique) < target:
        if rng.random() < 0.5:
            unique.setdefault(InputPair(random_bits(k, rng), random_bits(k, rng)))
        else:
            x, y = random_nonintersecting_pair(k, rng)
            unique.setdefault(InputPair(x, y))
    return list(unique)


def _all_pairs(k: int) -> Iterator[InputPair]:
    strings = [format(v, f"0{k}b") if k else "" for v in range(2**k)]
    return (InputPair(x, y) for x in strings for y in strings)


def verify_family_conditions(
    harness: FamilyHarness,
    samples: int = 40,
    seed: int = 0,
    exhaustive: bool | None = None,
) -> FamilyCheckReport:
    """Check the four conditions over a battery of input pairs.

    With exhaustive=None the full product of inputs is used whenever it
    has at most EXHAUSTIVE_PAIR_LIMIT pairs; exhaustive=True on more than
    EXHAUSTIVE_BIT_CAP bits raises ValueError.  Counterexamples are
    recorded verbatim (capped per condition) so failures are
    actionable.  The report's family and parameters are those of the
    instance built for the first pair.
    """
    k = harness.bit_count
    if exhaustive is None:
        exhaustive = 4**k <= EXHAUSTIVE_PAIR_LIMIT
    elif exhaustive and k > EXHAUSTIVE_BIT_CAP:
        raise ValueError(
            f"an exhaustive check takes at most {EXHAUSTIVE_BIT_CAP} bits "
            f"(4^{EXHAUSTIVE_BIT_CAP} pairs), this family has {k}"
        )
    pairs = _all_pairs(k) if exhaustive else _designed_pairs(k, samples, seed)

    conditions = {
        name: {"passed": True, "counterexamples": []}
        for name in (
            "fixed_structure",
            "side_a_edges_from_x",
            "side_b_edges_from_y",
            "target_iff_intersect",
        )
    }

    def flag(name: str, info: dict) -> None:
        conditions[name]["passed"] = False
        if len(conditions[name]["counterexamples"]) < COUNTEREXAMPLE_CAP:
            conditions[name]["counterexamples"].append(info)

    # Side-internal edges keyed by the input that is supposed to pin them.
    a_by_x: dict[str, frozenset] = {}
    b_by_y: dict[str, frozenset] = {}
    n_intersecting = 0
    n_disjoint = 0

    for i, pair in enumerate(pairs):
        inst = harness.build(pair)
        shape = (inst.graph.n, inst.side_a, inst.cut_edges)
        if i == 0:
            # The first pair's instance is the reference every other must match.
            reference, ref_shape = inst, shape
        elif shape != ref_shape:
            flag("fixed_structure", {"x": pair.x, "y": pair.y})
        a_edges = induced_edges(inst.graph, inst.side_a)
        b_edges = induced_edges(inst.graph, inst.side_b)
        if a_by_x.setdefault(pair.x, a_edges) != a_edges:
            flag("side_a_edges_from_x", {"x": pair.x, "y": pair.y})
        if b_by_y.setdefault(pair.y, b_edges) != b_edges:
            flag("side_b_edges_from_y", {"x": pair.x, "y": pair.y})

        expected = bits_intersect(pair.x, pair.y)
        if expected:
            n_intersecting += 1
        else:
            n_disjoint += 1
        got = harness.predicate(inst)
        if got != expected:
            flag(
                "target_iff_intersect",
                {"x": pair.x, "y": pair.y, "expected": expected, "got": got},
            )

    # The x-only and y-only checks need repeated x (and y) values to bite;
    # rebuild a few pairs against fixed opposite inputs to guarantee that.
    if not exhaustive and k > 0:
        for pair in pairs[: min(8, len(pairs))]:
            inst = harness.build(InputPair(pair.x, zeros(k)))
            a_edges = induced_edges(inst.graph, inst.side_a)
            if a_by_x.get(pair.x, a_edges) != a_edges:
                flag("side_a_edges_from_x", {"x": pair.x, "y": zeros(k)})
            inst = harness.build(InputPair(zeros(k), pair.y))
            b_edges = induced_edges(inst.graph, inst.side_b)
            if b_by_y.get(pair.y, b_edges) != b_edges:
                flag("side_b_edges_from_y", {"x": zeros(k), "y": pair.y})

    return FamilyCheckReport(
        family=reference.family,
        params=reference.params,
        bit_count=k,
        pairs_checked=n_intersecting + n_disjoint,
        exhaustive=exhaustive,
        intersecting_checked=n_intersecting,
        disjoint_checked=n_disjoint,
        conditions=conditions,
    )


def check_block_counts(
    inst: FamilyInstance, cycle: tuple[int, ...]
) -> dict[str, object]:
    """Audit of a found target cycle in the unpadded long-cycle family.

    This is the structural lemma behind the k >= 8 bound.  ``counts``
    holds the cycle's vertices in each of the eight blocks;
    ``eight_blocks_exact`` says all eight equal ell, and
    ``input_blocks_within`` that the four input blocks stay within ell.
    ``code_violations`` lists code-purity failures: each code block's
    cycle vertices must be exactly the code of one sub-block, with the
    matching input block's cycle vertices inside that sub-block.
    Off-design cycles stitched from two sub-blocks pass the count
    clauses but fail code purity.  ``pairing_violations`` lists a
    touched center, a1/b1 or a2/b2 sub-blocks that disagree, and a
    pairing (i, j) that is not a shared 1 of x and y.  ``passed`` holds
    when every clause does.  Exact counts with pure codes mean the cycle
    uses one whole sub-block per input block and exactly its code.
    """
    if inst.family != "longcycle":
        raise ValueError("block count check applies to the long-cycle family")
    if inst.params["m"] != 0:
        raise ValueError("block count check is defined for the unpadded family")
    ell = inst.params["ell"]
    cyc = set(cycle)
    on_cycle = {
        name: cyc.intersection(inst.blocks[name])
        for name in (*LONG_CYCLE_CODE_BLOCKS, *LONG_CYCLE_CODE_BLOCKS.values())
    }
    counts = {name: len(vs) for name, vs in on_cycle.items()}

    code_violations: list[str] = []
    codes = [set(c) for c in inst.meta["codes"]]
    sub_index: dict[str, int] = {}
    for owner, code_block in LONG_CYCLE_CODE_BLOCKS.items():
        base = inst.blocks[code_block][0]
        used = {v - base for v in on_cycle[code_block]}
        if used not in codes:
            code_violations.append(
                f"{code_block}: symbols {sorted(used)} match no sub-block code"
            )
            continue
        i = sub_index[owner] = codes.index(used) + 1
        if not on_cycle[owner] <= set(inst.meta["subblocks"][owner][i - 1]):
            code_violations.append(
                f"{owner}: vertices outside sub-block {i} own the {code_block} symbols"
            )

    pairing_violations: list[str] = []
    touched = sorted(cyc.intersection(inst.blocks["centers"]))
    if touched:
        pairing_violations.append(f"cycle touches centers {touched}")
    if len(sub_index) == 4:
        if sub_index["a1"] != sub_index["b1"]:
            pairing_violations.append("a1 and b1 sub-blocks disagree")
        if sub_index["a2"] != sub_index["b2"]:
            pairing_violations.append("a2 and b2 sub-blocks disagree")
        i, j = sub_index["a1"], sub_index["a2"]
        idx = pair_index(i, j, inst.params["n"])
        if inst.pair.x[idx] != "1" or inst.pair.y[idx] != "1":
            pairing_violations.append(
                f"sub-block pairing ({i},{j}) does not point at a shared 1"
            )

    eight_blocks_exact = all(c == ell for c in counts.values())
    return {
        "counts": counts,
        "eight_blocks_exact": eight_blocks_exact,
        "input_blocks_within": all(
            counts[name] <= ell for name in LONG_CYCLE_CODE_BLOCKS
        ),
        "code_violations": code_violations,
        "pairing_violations": pairing_violations,
        "passed": eight_blocks_exact and not code_violations and not pairing_violations,
    }
