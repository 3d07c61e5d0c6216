"""Tests for the bit-vector input helpers."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from congestlab.bitstrings import (
    bits_intersect,
    bits_to_hex,
    hex_to_bits,
    ones,
    pair_index,
    random_bits,
    random_nonintersecting_pair,
    singleton,
    validate_bits,
    zeros,
)

PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_BITS = st.text(alphabet="01", min_size=0, max_size=64)
_NONEMPTY_BITS = st.text(alphabet="01", min_size=1, max_size=64)


class TestValidation:
    def test_accepts_plain_binary_strings(self):
        assert validate_bits("0101") == "0101"
        assert validate_bits("") == ""

    def test_rejects_non_string_input(self):
        with pytest.raises(TypeError):
            validate_bits(5)

    def test_rejects_foreign_characters(self):
        with pytest.raises(ValueError):
            validate_bits("01a1")

    def test_enforces_expected_length_when_given(self):
        assert validate_bits("110", 3) == "110"
        with pytest.raises(ValueError):
            validate_bits("110", 4)


class TestConstructors:
    def test_zeros_and_ones_have_requested_length(self):
        assert zeros(5) == "00000"
        assert ones(3) == "111"
        assert zeros(0) == ""

    def test_singleton_places_exactly_one_bit(self):
        assert singleton(4, 0) == "1000"
        assert singleton(4, 3) == "0001"
        assert singleton(1, 0) == "1"

    def test_singleton_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            singleton(4, 4)
        with pytest.raises(ValueError):
            singleton(4, -1)


class TestIntersection:
    def test_disjoint_pair_does_not_intersect(self):
        assert not bits_intersect("1010", "0101")

    def test_shared_index_intersects(self):
        assert bits_intersect("1010", "0011")

    def test_all_zero_strings_never_intersect(self):
        assert not bits_intersect("0000", "0000")
        assert not bits_intersect("0000", "1111")

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            bits_intersect("10", "101")


class TestPairIndex:
    def test_column_major_layout(self):
        # Slot (i, j) reads bit (i-1) + (j-1)*n.
        assert pair_index(1, 1, 2) == 0
        assert pair_index(2, 1, 2) == 1
        assert pair_index(1, 2, 2) == 2
        assert pair_index(2, 2, 2) == 3

    def test_all_slots_are_distinct_and_cover_the_range(self):
        n = 4
        seen = {pair_index(i, j, n) for i in range(1, n + 1) for j in range(1, n + 1)}
        assert seen == set(range(n * n))

    def test_out_of_range_pair_is_rejected(self):
        with pytest.raises(ValueError):
            pair_index(0, 1, 2)
        with pytest.raises(ValueError):
            pair_index(1, 3, 2)


class TestHexRoundTrip:
    def test_known_values(self):
        assert bits_to_hex("1111") == "f"
        assert bits_to_hex("00001111") == "0f"
        assert hex_to_bits("0f", 8) == "00001111"

    def test_empty_string_round_trips(self):
        assert bits_to_hex("") == ""
        assert hex_to_bits("", 0) == ""

    def test_hex_value_too_wide_for_length_is_rejected(self):
        with pytest.raises(ValueError):
            hex_to_bits("ff", 4)

    def test_nonempty_hex_for_zero_length_is_rejected(self):
        with pytest.raises(ValueError):
            hex_to_bits("0", 0)

    @pytest.mark.parametrize("text", ["-1", "-0", "+1", "0x1", "1_0", " 1 ", "", "g"])
    def test_text_that_is_not_hex_digits_is_rejected_by_name(self, text):
        with pytest.raises(ValueError, match=f"not a hex string: {re.escape(repr(text))}"):
            hex_to_bits(text, 8)

    def test_either_case_is_accepted(self):
        assert hex_to_bits("aF", 8) == hex_to_bits("Af", 8) == "10101111"


class TestBitstringProperties:
    @PROPERTY_SETTINGS
    @given(bits=_BITS)
    def test_hex_round_trip_recovers_original_string(self, bits: str):
        assert hex_to_bits(bits_to_hex(bits), len(bits)) == bits

    @PROPERTY_SETTINGS
    @given(bits=_NONEMPTY_BITS)
    def test_intersection_with_self_matches_presence_of_a_one(self, bits: str):
        assert bits_intersect(bits, bits) == ("1" in bits)

    @PROPERTY_SETTINGS
    @given(x=_BITS, y=_BITS)
    def test_intersection_is_symmetric(self, x: str, y: str):
        if len(x) != len(y):
            return
        assert bits_intersect(x, y) == bits_intersect(y, x)

    @PROPERTY_SETTINGS
    @given(k=st.integers(min_value=1, max_value=64), seed=st.integers(0, 2**16))
    def test_nonintersecting_sampler_never_shares_an_index(self, k: int, seed: int):
        x, y = random_nonintersecting_pair(k, random.Random(seed))
        assert len(x) == len(y) == k
        assert not bits_intersect(x, y)

    @PROPERTY_SETTINGS
    @given(k=st.integers(min_value=0, max_value=64), seed=st.integers(0, 2**16))
    def test_random_bits_is_deterministic_per_seed(self, k: int, seed: int):
        a = random_bits(k, random.Random(seed))
        b = random_bits(k, random.Random(seed))
        assert a == b
        assert len(a) == k
