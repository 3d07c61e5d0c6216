"""The family fixtures: memoized per parameter set, private to the builders.

A build served from the memo equals a build from scratch, and no
container of an instance is shared with the memo or with another
instance, however deep the caller writes into it.  The builders'
self-checks are explicit raises, so ``python -O`` keeps them.
"""

from __future__ import annotations

import copy
import os
import random
import subprocess
import sys
import textwrap
from itertools import product
from pathlib import Path


from congestlab import families
from congestlab.bitstrings import random_bits
from congestlab.congest import naive_four_cycle_program
from congestlab.diamond_family import build_diamond_family, build_diamond_fixture
from congestlab.families import (
    InputPair,
    build_cycle_family,
    build_long_cycle_family,
    cycle_cut_size,
    long_cycle_cut_size,
)
from congestlab.twoparty import congest_reduction

FIELDS = ("family", "params", "pair", "graph", "side_a", "labels", "blocks", "meta")
SRC = Path(__file__).resolve().parents[1] / "src"


def _fields(inst) -> dict:
    return {name: getattr(inst, name) for name in (*FIELDS, "cut_edges")}


def _scribble(value) -> None:
    """Write into every dict and list inside *value*, innermost first."""
    if isinstance(value, dict):
        for inner in value.values():
            _scribble(inner)
        value["scribbled"] = True
    elif isinstance(value, list):
        for inner in value:
            _scribble(inner)
        value.append("scribbled")


def _memoized_builders():
    """(id, build from a pair, bit count) over the grid of memoized families."""
    for n, k in product(range(1, 4), range(4, 10)):
        yield f"cycle-{n}-{k}", lambda p, n=n, k=k: build_cycle_family(n, k, p), n * n
    for ell, m, centers in product(range(1, 4), range(3), (True, False)):
        yield (
            f"longcycle-{ell}-{m}-{centers}",
            lambda p, ell=ell, m=m, c=centers: build_long_cycle_family(
                2, ell, m, p, include_centers=c
            ),
            4,
        )


def _clear_memos() -> None:
    families._cycle_fixture.cache_clear()
    families._long_cycle_fixture.cache_clear()


def test_a_memoized_build_equals_a_build_from_scratch_and_shares_nothing():
    rng = random.Random(11)
    for key, build, bits in _memoized_builders():
        pair = InputPair(random_bits(bits, rng), random_bits(bits, rng))
        build(pair)
        memoized = build(pair)
        _clear_memos()
        scratch = build(pair)
        assert _fields(memoized) == _fields(scratch), key
        # The memo now serves scratch's fixture; scribbling on scratch
        # must not reach the next build from it.
        expected = copy.deepcopy(_fields(scratch))
        for name in ("params", "labels", "blocks", "meta"):
            _scribble(getattr(scratch, name))
        assert _fields(build(pair)) == expected, key
        other = InputPair(random_bits(bits, rng), random_bits(bits, rng))
        assert _fields(build(other))["meta"] == expected["meta"], key
    for memo in (families._cycle_fixture, families._long_cycle_fixture):
        assert memo.cache_info().currsize <= memo.cache_info().maxsize == 8


def test_a_diamond_build_from_a_reused_fixture_equals_one_from_a_fresh_fixture():
    fixture = build_diamond_fixture(16, 1)
    bits = fixture.bit_count
    rng = random.Random(12)
    pair = InputPair(random_bits(bits, rng), random_bits(bits, rng))
    build_diamond_family(fixture, pair)
    reused = build_diamond_family(fixture, pair)
    fresh = _fields(build_diamond_family(build_diamond_fixture(16, 1), pair))
    assert _fields(reused) == fresh
    for name in ("params", "labels", "blocks", "meta"):
        _scribble(getattr(reused, name))
    assert _fields(build_diamond_family(fixture, pair)) == fresh


def _zeros(bits: int) -> InputPair:
    return InputPair("0" * bits, "0" * bits)


def _reduction_cut_bits() -> int:
    inst = build_cycle_family(2, 4, InputPair("1000", "1000"))
    return congest_reduction(inst, naive_four_cycle_program()).stats.total_cut_bits


# Each check patches one closed form (or the transcript's bit count) and
# prints the error its builder raises.
OPTIMIZED_CHECKS = textwrap.dedent(
    """
    import sys
    from congestlab import diamond_family, families, twoparty
    from congestlab.congest import naive_four_cycle_program
    from congestlab.families import InputPair

    if __debug__:
        sys.exit("assert statements are still on")
    zero4 = InputPair("0000", "0000")

    def report(call):
        try:
            call()
        except RuntimeError as exc:
            print(exc)
        else:
            print("no error")

    saved = families.cycle_cut_size
    families.cycle_cut_size = lambda n: -1
    report(lambda: families.build_cycle_family(2, 4, zero4))
    families.cycle_cut_size = saved
    families.long_cycle_cut_size = lambda *args: -1
    report(lambda: families.build_long_cycle_family(2, 2, 0, zero4))
    diamond_family.diamond_cut_size = lambda n: -1
    fixture = diamond_family.build_diamond_fixture(16, 1)
    bits = "0" * fixture.bit_count
    report(lambda: diamond_family.build_diamond_family(fixture, InputPair(bits, bits)))
    families.long_cycle_alphabet = lambda n, ell: 1
    report(lambda: families.build_long_cycle_family(2, 1, 0, zero4))
    inst = families.build_cycle_family(2, 4, InputPair("1000", "1000"))
    twoparty.Transcript.payload_bits = lambda self, kind=None: 0
    report(lambda: twoparty.congest_reduction(inst, naive_four_cycle_program()))
    """
)


def test_the_self_checks_raise_under_python_optimize():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    fixture = build_diamond_fixture(16, 1)
    cut_bits = _reduction_cut_bits()
    assert out.stdout.splitlines() == [
        f"cycle family {{'n': 2, 'k': 4}}: cut has {cycle_cut_size(2)} edges, "
        "closed form gives -1",
        "longcycle family {'n': 2, 'ell': 2, 'm': 0, 'centers': True}: cut has "
        f"{long_cycle_cut_size(2, 2, 0)} edges, closed form gives -1",
        f"diamond family {{'n': 16, 'seed': 1}}: cut has "
        f"{build_diamond_family(fixture, _zeros(fixture.bit_count)).cut_size} edges, "
        "closed form gives -1",
        "longcycle family (n=2, ell=1): needs 2 codes, an alphabet of 1 gives 1",
        f"cycle family {{'n': 2, 'k': 4}}: transcript carries 0 bits, the run moved "
        f"{cut_bits} cut bits",
    ]
