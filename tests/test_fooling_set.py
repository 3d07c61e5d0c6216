"""The fooling-set audit: set disjointness on N bits needs N bits.

The 2^N pairs (x, x̄) are all disjoint.  If two of them, (x, x̄) and
(x', x̄'), gave one transcript, a two-party protocol would give that
transcript, and so the answer "disjoint", on the crossed pairs
(x, x̄') and (x', x̄) too, and one of the two intersects.  So a correct
two-party protocol gives 2^N distinct transcripts on the set, and its
longest transcript is at least N bits.

A transcript is keyed as its sequence of (direction, bits) pairs, the
reduction's answer bit included.  On a collision the audit runs both
crossed pairs and names the one that intersects, the shared transcript
and the two answers.  That finds the planted leak of ``test_split_replay``
from disjoint inputs alone, where the split replay is blind.
"""

from __future__ import annotations

import re

import pytest
from test_split_replay import leaky_four_cycle_program

from congestlab.bitstrings import bits_intersect
from congestlab.congest import PROGRAMS
from congestlab.families import InputPair, build_cycle_family, build_four_cycle_family
from congestlab.twoparty import congest_reduction, cycle_listing_protocol


def _complement(x: str) -> str:
    return x.translate(str.maketrans("01", "10"))


def _key(transcript) -> tuple[tuple[str, str], ...]:
    return tuple((m.direction, m.bits) for m in transcript.messages)


def fooling_set_audit(n: int, run_pair) -> int:
    """Run *run_pair(x, y)*, which returns (transcript key, disjointness
    answer), on every pair (x, x̄) with n * n bits, and return the
    longest transcript's bit count.  A shared transcript raises
    AssertionError with the crossed-pair witness."""
    size = n * n
    first: dict[tuple, str] = {}
    for v in range(2**size):
        x = format(v, f"0{size}b")
        key, answer = run_pair(x, _complement(x))
        if key in first:
            # x and x2 differ in some bit, so one crossed pair meets there.
            x2 = first[key]
            a, b = x, _complement(x2)
            if not bits_intersect(a, b):
                a, b = x2, _complement(x)
            crossed = run_pair(a, b)[1]
            raise AssertionError(
                f"fooling pairs ({x2}, {_complement(x2)}) and ({x}, {_complement(x)}) "
                f"share transcript {key}; crossed pair ({a}, {b}) intersects and "
                f"answers {crossed}, the fooling pair answered {answer}"
            )
        first[key] = x
    return max(sum(len(bits) for _, bits in key) for key in first)


def _reduction(n: int, make_program):
    def run_pair(x: str, y: str):
        res = congest_reduction(build_four_cycle_family(n, InputPair(x, y)), make_program())
        return _key(res.transcript), res.disjointness_answer

    return run_pair


def _protocol(n: int, k: int):
    def run_pair(x: str, y: str):
        inst = build_cycle_family(n, k, InputPair(x, y))
        res = cycle_listing_protocol(inst.graph, inst.side_a, k)
        return _key(res.transcript), int(not res.all_listed)

    return run_pair


@pytest.mark.parametrize("n", [2, 3])
def test_the_four_cycle_reduction_separates_the_fooling_set(n):
    assert fooling_set_audit(n, _reduction(n, PROGRAMS["detect-four-cycle"])) >= n * n


@pytest.mark.parametrize("k", [4, 5, 6, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_the_cycle_listing_protocol_separates_the_fooling_set(n, k):
    assert fooling_set_audit(n, _protocol(n, k)) >= n * n


@pytest.mark.parametrize(
    ("n", "crossed"), [(2, "(0001, 1111)"), (3, "(000000001, 111111111)")]
)
def test_the_leaky_program_fails_with_a_crossed_pair_witness(n, crossed):
    # It sends nothing and answers by the leak, so all disjoint pairs
    # share one transcript, and the crossed pair gets the other answer.
    witness = (
        f"share transcript (('b->a', '0'),); crossed pair {crossed} "
        "intersects and answers 0, the fooling pair answered 1"
    )
    with pytest.raises(AssertionError, match=re.escape(witness) + "$"):
        fooling_set_audit(n, _reduction(n, leaky_four_cycle_program))
