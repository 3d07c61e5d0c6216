"""Acceptance gate: twelve checks, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Checks 1, 6, and 11 build canonical byte reports;
check 12 regenerates those from scratch and requires byte equality.

Each check states the intended guarantee and reports exact violation
counts.  Checks 2 and 3 cover the subdivided and long-cycle families
that once admitted off-design cycles (odd target lengths, stitched
paired-code cycles); test_families.py pins the repaired shapes.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from congestlab.bitstrings import (
    bits_intersect,
    random_bits,
    random_nonintersecting_pair,
    singleton,
    zeros,
)
from congestlab.bundles import canonical_json_bytes
from congestlab.congest import (
    cut_traffic_bound_check,
    default_bandwidth,
    naive_four_cycle_program,
    word_bits,
)
from congestlab.diamond_congest import (
    coverage_tags,
    decompose_by_peeling,
    list_induced_diamonds_congest,
)
from congestlab.diamond_family import (
    build_diamond_family,
    build_diamond_fixture,
    diamond_cut_size,
    good_pair_ratio,
    has_two_two_diamond,
)
from congestlab.families import (
    InputPair,
    build_cycle_family,
    build_four_cycle_family,
    build_long_cycle_family,
    cycle_cut_size,
    long_cycle_alphabet,
    long_cycle_cut_size,
)
from congestlab.family_checks import (
    check_block_counts,
    cycle_harness,
    verify_family_conditions,
)
from congestlab.graphs import (
    Graph,
    crossing_edges,
    diameter,
    list_induced_cycles,
    list_induced_cycles_naive,
    list_induced_diamonds,
    random_graph,
)
from congestlab.twoparty import (
    ceil_sqrt,
    congest_reduction,
    cycle_listing_protocol,
    diamond_listing_protocol,
)

_CACHE: dict[str, tuple[bytes, float]] = {}


def _cached(key: str, fn) -> tuple[bytes, float]:
    if key not in _CACHE:
        t0 = time.perf_counter()
        data = fn()
        _CACHE[key] = (data, time.perf_counter() - t0)
    return _CACHE[key]


def _emit(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _all_bits(k: int) -> list[str]:
    return [format(v, f"0{k}b") for v in range(2**k)]


def _all_pairs(k: int) -> list[tuple[str, str]]:
    strings = _all_bits(k)
    return [(x, y) for x in strings for y in strings]


# ---------------------------------------------------------------------------
# Check 1: four-cycle family, exhaustive at two blocks, sampled at three.
# ---------------------------------------------------------------------------


def _four_cycle_report() -> bytes:
    harness_report = verify_family_conditions(cycle_harness(2, 4), exhaustive=True)

    n2_mismatches = []
    for x, y in _all_pairs(4):
        inst = build_four_cycle_family(2, InputPair(x, y))
        present = bool(list_induced_cycles_naive(inst.graph, 4))
        if present != bits_intersect(x, y):
            n2_mismatches.append({"x": x, "y": y, "present": present})

    pairs: list[tuple[str, str]] = [
        (singleton(9, i), singleton(9, i)) for i in range(9)
    ]
    rng = random.Random("four-cycle:n3")
    seen = set(pairs)
    while len(pairs) < 300:
        if len(pairs) % 2:
            cand = (random_bits(9, rng), random_bits(9, rng))
        else:
            cand = random_nonintersecting_pair(9, rng)
        if cand not in seen:
            seen.add(cand)
            pairs.append(cand)
    n3_mismatches = []
    for x, y in pairs:
        inst = build_four_cycle_family(3, InputPair(x, y))
        present = bool(list_induced_cycles_naive(inst.graph, 4))
        if present != bits_intersect(x, y):
            n3_mismatches.append({"x": x, "y": y, "present": present})

    return canonical_json_bytes(
        {
            "check": "four-cycle-family",
            "harness_n2": json.loads(harness_report.to_json_bytes()),
            "oracle_n2": {"pairs": 256, "mismatches": n2_mismatches},
            "oracle_n3": {"pairs": len(pairs), "mismatches": n3_mismatches},
        }
    )


def test_criterion_01_four_cycle_family_iff():
    data, seconds = _cached("four-cycle", _four_cycle_report)
    payload = json.loads(data)
    ok = (
        payload["harness_n2"]["passed"]
        and not payload["oracle_n2"]["mismatches"]
        and not payload["oracle_n3"]["mismatches"]
        and payload["oracle_n3"]["pairs"] == 300
        and seconds < 5.0
    )
    _emit(
        1,
        ok,
        f"n=2 exhaustive 256/256 and n=3 sampled 300/300 match the oracle "
        f"iff ({seconds:.2f}s < 5s)",
    )
    assert payload["harness_n2"]["passed"], payload["harness_n2"]["conditions"]
    assert payload["oracle_n2"]["mismatches"] == []
    assert payload["oracle_n3"]["mismatches"] == []
    assert payload["oracle_n3"]["pairs"] == 300
    assert seconds < 5.0


# ---------------------------------------------------------------------------
# Check 2: subdivided family at k = 5, 6, 7, exhaustive.
# ---------------------------------------------------------------------------


def test_criterion_02_subdivided_family_iff():
    t0 = time.perf_counter()
    violations: dict[int, list[dict]] = {}
    for k in (5, 6, 7):
        bad = []
        for x, y in _all_pairs(4):
            inst = build_cycle_family(2, k, InputPair(x, y))
            present = bool(list_induced_cycles_naive(inst.graph, k))
            if present != bits_intersect(x, y):
                bad.append({"x": x, "y": y, "present": present})
        violations[k] = bad
    seconds = time.perf_counter() - t0
    counts = {k: len(v) for k, v in violations.items()}
    ok = not any(counts.values()) and seconds < 30.0
    _emit(
        2,
        ok,
        f"target-length iff over 256 pairs each: k=5 {counts[5]} violations, "
        f"k=6 {counts[6]}, k=7 {counts[7]} ({seconds:.1f}s < 30s)",
    )
    assert seconds < 30.0
    assert counts[6] == 0, violations[6][:3]
    assert not any(counts.values()), (
        f"odd target lengths admit off-design cycles: "
        f"k=5 fails {counts[5]}/256 (first {violations[5][0] if violations[5] else None}), "
        f"k=7 fails {counts[7]}/256; the odd-k wiring and its cycle-length case "
        f"analysis are in the build_cycle_family docstring, and "
        f"TestSubdividedCycleFamily::test_odd_lengths_close_no_cycle_from_x_alone "
        f"in test_families.py checks the repaired shape"
    )


# ---------------------------------------------------------------------------
# Check 3: long-cycle family, singleton codes exhaustively, paired codes
# sampled, with the per-cycle block-count audit.
# ---------------------------------------------------------------------------


def test_criterion_03_long_cycle_family_iff_and_block_counts():
    single_mism = []
    for x, y in _all_pairs(4):
        inst = build_long_cycle_family(2, 1, 0, InputPair(x, y), include_centers=False)
        naive = bool(list_induced_cycles_naive(inst.graph, 8))
        pruned = bool(list_induced_cycles(inst.graph, 8))
        if naive != pruned or naive != bits_intersect(x, y):
            single_mism.append({"x": x, "y": y, "naive": naive, "pruned": pruned})

    shared_one = [
        (x, y)
        for x, y in _all_pairs(4)
        if sum(a == b == "1" for a, b in zip(x, y)) == 1
    ]
    rng = random.Random("paired-code-battery")
    sampled = []
    while len(sampled) < 50:
        pair = (random_bits(4, rng), random_bits(4, rng))
        if pair not in sampled:
            sampled.append(pair)
    paired_iff_mism = []
    count_clause_failures = []
    cycles_audited = 0
    for x, y in shared_one + sampled:
        inst = build_long_cycle_family(2, 2, 0, InputPair(x, y), include_centers=False)
        cycles = list_induced_cycles(inst.graph, 16)
        if bool(cycles) != bits_intersect(x, y):
            paired_iff_mism.append({"x": x, "y": y, "found": len(cycles)})
        for c in cycles:
            counts = check_block_counts(inst, c)
            cycles_audited += 1
            if not (counts["eight_blocks_exact"] and counts["input_blocks_within"]):
                count_clause_failures.append({"x": x, "y": y, "counts": counts["counts"]})

    ok = not single_mism and not count_clause_failures and not paired_iff_mism
    _emit(
        3,
        ok,
        f"singleton-code iff 256/256 {'clean' if not single_mism else 'VIOLATED'}; "
        f"paired-code block counts clean on {cycles_audited}/{cycles_audited} found "
        f"cycles; paired-code iff violations: {len(paired_iff_mism)} of "
        f"{len(shared_one) + len(sampled)} pairs",
    )
    assert single_mism == []
    assert count_clause_failures == []
    assert paired_iff_mism == [], (
        f"paired-code instances disagree with intersection on "
        f"{len(paired_iff_mism)} input pairs (first {paired_iff_mism[0]}); "
        f"stitched two-code cycles pass both block-count clauses; the ell >= 2 "
        f"wiring is described in the build_long_cycle_family docstring and the "
        f"README known-limitations section, and TestLongCycleFamily in "
        f"test_families.py checks it (test_paired_codes_admit_no_chimera_cycles, "
        f"test_paired_codes_stay_clean_on_disjoint_pairs_at_n3)"
    )


# ---------------------------------------------------------------------------
# Check 4: centered instances have diameter exactly 3.
# ---------------------------------------------------------------------------


def test_criterion_04_centered_diameter_three():
    rng = random.Random("diameter-battery")
    checked = 0
    bad = []
    for n, ell in itertools.product((2, 4, 8), (1, 2)):
        bits = n * n
        battery = [
            zeros(bits),
            "1" * bits,
            singleton(bits, 0),
            random_bits(bits, rng),
        ]
        for x in battery:
            y = battery[(battery.index(x) + 1) % len(battery)]
            inst = build_long_cycle_family(n, ell, 0, InputPair(x, y))
            checked += 1
            d = diameter(inst.graph)
            if d != 3:
                bad.append({"n": n, "ell": ell, "diameter": d})
    ok = not bad
    _emit(4, ok, f"diameter == 3 on {checked}/{checked} centered instances")
    assert bad == []


# ---------------------------------------------------------------------------
# Check 5: exact cut sizes across all families.
# ---------------------------------------------------------------------------


def test_criterion_05_exact_cut_sizes():
    checked = 0
    for n, k in itertools.product((1, 2, 3, 4), (4, 5, 6, 7, 8)):
        pair = InputPair(zeros(n * n), zeros(n * n))
        inst = build_cycle_family(n, k, pair)
        assert inst.cut_size == cycle_cut_size(n) == 2 * n
        checked += 1
    for n, ell, m in itertools.product((2, 4, 8), (1, 2, 3), (0, 1)):
        pair = InputPair(zeros(n * n), zeros(n * n))
        inst = build_long_cycle_family(n, ell, m, pair)
        assert inst.cut_size == long_cycle_cut_size(n, ell, m)
        assert inst.cut_size == 2 * long_cycle_alphabet(n, ell) + 1
        checked += 1
    for n in (4, 16, 64):
        fx = build_diamond_fixture(n, 0)
        b = fx.bit_count
        inst = build_diamond_family(fx, InputPair(zeros(b), zeros(b)))
        assert inst.cut_size == diamond_cut_size(n) == n * ceil_sqrt(n) + n
        checked += 1
    _emit(5, True, f"cut sizes match the closed forms on {checked} builds")


# ---------------------------------------------------------------------------
# Check 6: diamond family iff, exhaustive at four vertices, sampled at 16.
# ---------------------------------------------------------------------------


def _diamond_family_report() -> bytes:
    runs = []
    for n in (4, 16):
        for seed in (0, 1, 2):
            fx = build_diamond_fixture(n, seed)
            b = fx.bit_count
            if b <= 10:
                pairs = _all_pairs(b)
                exhaustive = True
            else:
                rng = random.Random(f"diamond-family:{n}:{seed}")
                pairs = []
                while len(pairs) < 500:
                    if len(pairs) % 2:
                        pairs.append((random_bits(b, rng), random_bits(b, rng)))
                    else:
                        pairs.append(random_nonintersecting_pair(b, rng))
                exhaustive = False
            mismatches = []
            for x, y in pairs:
                inst = build_diamond_family(fx, InputPair(x, y))
                if has_two_two_diamond(inst) != bits_intersect(x, y):
                    mismatches.append({"x": x, "y": y})
            runs.append(
                {
                    "n": n,
                    "seed": seed,
                    "bits": b,
                    "pairs": len(pairs),
                    "exhaustive": exhaustive,
                    "mismatches": mismatches,
                }
            )
    return canonical_json_bytes({"check": "diamond-family", "runs": runs})


def test_criterion_06_diamond_family_iff():
    data, seconds = _cached("diamond-family", _diamond_family_report)
    payload = json.loads(data)
    total = sum(r["pairs"] for r in payload["runs"])
    bad = [r for r in payload["runs"] if r["mismatches"]]
    ok = not bad
    _emit(
        6,
        ok,
        f"balanced-diamond iff over {total} pairs across "
        f"{len(payload['runs'])} fixtures (2 sizes x 3 seeds), 0 mismatches"
        if ok
        else f"{len(bad)} fixtures with mismatches",
    )
    assert bad == [], bad


# ---------------------------------------------------------------------------
# Check 7: good-pair density stays bounded away from zero.
# ---------------------------------------------------------------------------


def test_criterion_07_good_pair_ratio():
    means = {}
    for n in (16, 64, 144):
        ratios = [good_pair_ratio(build_diamond_fixture(n, s)) for s in range(5)]
        means[n] = sum(ratios) / len(ratios)
    ok = all(v >= 0.05 for v in means.values())
    detail = ", ".join(f"n={n}: {v:.4f}" for n, v in means.items())
    _emit(7, ok, f"mean good-pair ratio over 5 seeds >= 0.05 ({detail})")
    for n, v in means.items():
        assert v >= 0.05, (n, v)


# ---------------------------------------------------------------------------
# Check 8: two-party cycle listing equals the oracle within its budget.
# ---------------------------------------------------------------------------


def test_criterion_08_cycle_protocol_battery():
    rng = random.Random("cycle-protocol-battery")
    failures = []
    runs = 0
    for i in range(30):
        density = (0.05, 0.15, 0.3)[i % 3]
        n = rng.randint(12, 60)
        g = random_graph(n, density, rng)
        side = frozenset(rng.sample(range(n), n // 2))
        cut = len(crossing_edges(g, side))
        for k in (4, 5, 6, 7):
            res = cycle_listing_protocol(g, side, k)
            oracle = tuple(sorted(list_induced_cycles(g, k)))
            runs += 1
            if res.all_listed != oracle:
                failures.append({"i": i, "k": k, "kind": "listing"})
            if res.transcript.payload_bits() > 4 * word_bits(n) * n * cut:
                failures.append({"i": i, "k": k, "kind": "payload"})
    ok = not failures and runs == 120
    _emit(
        8,
        ok,
        f"{runs} protocol runs (30 graphs x 4 lengths): listings equal the "
        f"oracle, payload within 4*w*n*cut, {len(failures)} failures",
    )
    assert runs == 120
    assert failures == []


# ---------------------------------------------------------------------------
# Check 9: two-party diamond listing equals the oracle within its budget.
# ---------------------------------------------------------------------------


def test_criterion_09_diamond_protocol_battery():
    rng = random.Random("diamond-protocol-battery")
    failures = []
    runs = 0

    def _check(g: Graph, side: frozenset[int], tag) -> None:
        nonlocal runs
        runs += 1
        cut = len(crossing_edges(g, side))
        res = diamond_listing_protocol(g, side)
        oracle = tuple(sorted(list_induced_diamonds(g)))
        if res.all_listed != oracle:
            failures.append({"tag": tag, "kind": "listing"})
        if res.transcript.payload_bits() > 12 * word_bits(g.n) * ceil_sqrt(g.n) * cut:
            failures.append({"tag": tag, "kind": "payload"})

    for i in range(30):
        density = (0.05, 0.15, 0.3)[i % 3]
        n = rng.randint(12, 64)
        g = random_graph(n, density, rng)
        _check(g, frozenset(rng.sample(range(n), n // 2)), f"random:{i}")
    for seed in range(5):
        fx = build_diamond_fixture(16, seed)
        b = fx.bit_count
        inst = build_diamond_family(fx, InputPair(singleton(b, 0), singleton(b, 0)))
        _check(inst.graph, frozenset(inst.side_a), f"family:{seed}")
    ok = not failures and runs == 35
    _emit(
        9,
        ok,
        f"{runs} protocol runs (30 random + 5 family): listings equal the "
        f"oracle, payload within 12*w*sqrt(n)*cut, {len(failures)} failures",
    )
    assert runs == 35
    assert failures == []


# ---------------------------------------------------------------------------
# Check 10: the simulated-run-to-transcript reduction, exhaustively.
# ---------------------------------------------------------------------------


def test_criterion_10_reduction_exhaustive():
    slacks = []
    failures = []
    for x, y in _all_pairs(4):
        inst = build_four_cycle_family(2, InputPair(x, y))
        res = congest_reduction(inst, naive_four_cycle_program())
        if not res.consistent:
            failures.append({"x": x, "y": y, "kind": "consistency"})
        if res.transcript.payload_bits(kind="sim") != res.stats.total_cut_bits:
            failures.append({"x": x, "y": y, "kind": "payload"})
        check = cut_traffic_bound_check(
            res.stats, inst.cut_size, default_bandwidth(inst.graph.n)
        )
        if not check.ok:
            failures.append({"x": x, "y": y, "kind": "bound"})
        slacks.append(check.slack_bits)
    ok = not failures
    _emit(
        10,
        ok,
        f"256/256 reductions consistent, transcript == measured cut bits, "
        f"bound slack in [{min(slacks)}, {max(slacks)}] bits",
    )
    assert failures == []


# ---------------------------------------------------------------------------
# Check 11: distributed diamond listing equals the oracle everywhere.
# ---------------------------------------------------------------------------


def _distributed_listing_report() -> bytes:
    runs = []

    def _run(g: Graph, entry: dict) -> dict:
        found, stats = list_induced_diamonds_congest(g, with_coverage=True)
        oracle = sorted(list_induced_diamonds(g))
        tags = coverage_tags(g, decompose_by_peeling(g), diamonds=tuple(oracle))
        entry.update(
            {
                "match": list(found) == oracle,
                "oracle_count": len(oracle),
                "uncovered": len(oracle) - len(tags),
                "caps_ok": (
                    stats.gathered_entries_max <= stats.gathered_entries_cap
                    and stats.query_len_max <= stats.query_len_cap
                ),
                "stats": json.loads(stats.to_json_bytes()),
            }
        )
        return entry

    for i in range(20):
        n = (48, 96, 128)[i % 3]
        density = (0.03, 0.1, 0.2)[(i // 3) % 3]
        g = random_graph(n, density, random.Random(f"listing:{i}"))
        runs.append(_run(g, {"kind": "random", "i": i, "n": n, "density": density}))

    for seed in range(5):
        fx = build_diamond_fixture(16, seed)
        b = fx.bit_count
        inst = build_diamond_family(fx, InputPair(singleton(b, 0), singleton(b, 0)))
        entry = _run(inst.graph, {"kind": "planted", "seed": seed})
        found, _ = list_induced_diamonds_congest(inst.graph)
        entry["planted_listed"] = tuple(sorted(fx.quadruples[0])) in set(found)
        runs.append(entry)

    ring = Graph(30, [(i, (i + 1) % 30) for i in range(30)])
    runs.append(_run(ring, {"kind": "triangle-free"}))
    sparse = random_graph(64, 0.02, random.Random("listing:sparse"))
    entry = _run(sparse, {"kind": "all-sparse"})
    entry["cluster_count"] = len(decompose_by_peeling(sparse).clusters)
    runs.append(entry)

    return canonical_json_bytes({"check": "distributed-diamond-listing", "runs": runs})


def test_criterion_11_distributed_listing_battery():
    data, seconds = _cached("distributed-listing", _distributed_listing_report)
    payload = json.loads(data)
    runs = payload["runs"]
    bad_match = [r for r in runs if not r["match"]]
    bad_cover = [r for r in runs if r["uncovered"]]
    bad_caps = [r for r in runs if not r["caps_ok"]]
    planted = [r for r in runs if r["kind"] == "planted"]
    extremes = {r["kind"]: r for r in runs if r["kind"] in ("triangle-free", "all-sparse")}
    ok = (
        not bad_match
        and not bad_cover
        and not bad_caps
        and all(r["planted_listed"] for r in planted)
        and extremes["triangle-free"]["oracle_count"] == 0
        and extremes["all-sparse"]["cluster_count"] == 0
        and seconds < 600.0
    )
    _emit(
        11,
        ok,
        f"{len(runs)} listings (20 random + 5 planted + 2 extremes) all equal "
        f"the oracle; coverage tags complete; gather and query caps respected "
        f"({seconds:.1f}s < 600s)",
    )
    assert bad_match == []
    assert bad_cover == []
    assert bad_caps == []
    assert all(r["planted_listed"] for r in planted)
    assert extremes["triangle-free"]["oracle_count"] == 0
    assert extremes["all-sparse"]["cluster_count"] == 0
    assert seconds < 600.0


# ---------------------------------------------------------------------------
# Check 12: the reports above are byte-identical when rebuilt from scratch.
# ---------------------------------------------------------------------------


def test_criterion_12_byte_identical_reports():
    builders = {
        "four-cycle": _four_cycle_report,
        "diamond-family": _diamond_family_report,
        "distributed-listing": _distributed_listing_report,
    }
    fresh = {key: fn() for key, fn in builders.items()}
    mismatched = [
        key for key, fn in builders.items() if fresh[key] != _cached(key, fn)[0]
    ]
    ok = not mismatched
    total = sum(len(v) for v in fresh.values())
    _emit(
        12,
        ok,
        f"rebuilt reports for checks 1, 6, 11 are byte-identical "
        f"({total} bytes compared)",
    )
    assert mismatched == []
