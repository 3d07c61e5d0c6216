"""Bit-vector inputs for the two-input graph families.

Every hard-instance family in this package is driven by a pair of
equal-length bit strings (x, y).  The pair is "intersecting" when some
index carries a 1 in both strings; the families are engineered so that
the target subgraph appears in the built graph exactly when the pair
intersects.  This module holds the string representation (a plain str
of '0'/'1' characters), the intersection test, hex round-tripping for
on-disk bundles, and seeded samplers used by the verification harness.
"""

from __future__ import annotations

import math
import random
import string

__all__ = [
    "validate_bits",
    "bits_intersect",
    "zeros",
    "ones",
    "singleton",
    "bits_to_hex",
    "hex_to_bits",
    "pair_index",
    "random_bits",
    "random_nonintersecting_pair",
]


def validate_bits(bits: str, length: int | None = None) -> str:
    """Check that *bits* is a string over {'0','1'}, optionally of a fixed length."""
    if not isinstance(bits, str):
        raise TypeError(f"bit string must be str, got {type(bits).__name__}")
    if any(c not in "01" for c in bits):
        raise ValueError(f"bit string contains characters outside '01': {bits!r}")
    if length is not None and len(bits) != length:
        raise ValueError(f"bit string has length {len(bits)}, expected {length}")
    return bits


def bits_intersect(x: str, y: str) -> bool:
    """True when some index holds a 1 in both strings.

    This is the predicate the graph families encode: the target subgraph
    is present iff the input pair intersects.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return any(a == "1" and b == "1" for a, b in zip(x, y))


def zeros(k: int) -> str:
    return "0" * k


def ones(k: int) -> str:
    return "1" * k


def singleton(k: int, index: int) -> str:
    """All-zero string of length *k* with a single 1 at 0-based *index*."""
    if not 0 <= index < k:
        raise ValueError(f"index {index} out of range for length {k}")
    return "0" * index + "1" + "0" * (k - index - 1)


def bits_to_hex(bits: str) -> str:
    """Hex encoding, MSB first; width fixed by the bit length so it round-trips."""
    validate_bits(bits)
    if not bits:
        return ""
    width = math.ceil(len(bits) / 4)
    return format(int(bits, 2), f"0{width}x")


def hex_to_bits(hexstr: str, length: int) -> str:
    """Inverse of bits_to_hex; *hexstr* must be hex digits only, in either case."""
    if length == 0:
        if hexstr:
            raise ValueError("nonempty hex for zero-length bit string")
        return ""
    if not hexstr or not all(c in string.hexdigits for c in hexstr):
        raise ValueError(f"not a hex string: {hexstr!r}")
    bits = format(int(hexstr, 16), f"0{length}b")
    if len(bits) != length:
        raise ValueError(f"hex value needs {len(bits)} bits, expected {length}")
    return bits


def pair_index(i: int, j: int, n: int) -> int:
    """0-based input index assigned to the 1-based block pair (i, j), column-major.

    Both connector-edge families index their n*n candidate edge slots this
    way: slot (i, j) reads bit (i-1) + (j-1)*n.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"pair ({i},{j}) out of range for n={n}")
    return (i - 1) + (j - 1) * n


def random_bits(k: int, rng: random.Random, density: float = 0.5) -> str:
    return "".join("1" if rng.random() < density else "0" for _ in range(k))


def random_nonintersecting_pair(k: int, rng: random.Random) -> tuple[str, str]:
    """Sample (x, y) with no shared 1 by giving each index to at most one
    side: to x with probability 0.3, to y with probability 0.3."""
    draws = [rng.random() for _ in range(k)]
    return (
        "".join("1" if r < 0.3 else "0" for r in draws),
        "".join("1" if 0.3 <= r < 0.6 else "0" for r in draws),
    )
