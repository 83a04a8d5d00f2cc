"""Static membership sets: construction, probing, serialized form."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachlabel.bitio import BitWriter, read_fixed
from reachlabel.dictionary import StaticSet, build_set, probe_serialized


def roundtrip(s: StaticSet, universe_bound: int):
    w = BitWriter()
    s.write(w)
    bits = w.finish()
    assert len(bits) == s.bit_length()
    back, end = StaticSet.read(bits, 0, universe_bound)
    assert end == len(bits)
    return bits, back


def test_two_element_set_frozen():
    s = build_set([3, 7], 10)
    for x in range(10):
        assert s.contains(x) == (x in {3, 7})
    assert sorted(s.members()) == [3, 7]
    bits, back = roundtrip(s, 10)
    for x in range(10):
        assert back.contains(x) == (x in {3, 7})


def test_empty_set():
    s = build_set([], 5)
    assert not any(s.contains(x) for x in range(5))
    assert s.members() == []
    roundtrip(s, 5)


def test_hundred_keys_against_linear_scan():
    keys = sorted({(37 * i + 11) % 331 for i in range(100)})
    s = build_set(keys, 331)
    for x in range(331):
        assert s.contains(x) == (x in keys), x


sets = st.integers(min_value=1, max_value=120).flatmap(
    lambda bound: st.tuples(
        st.just(bound),
        st.sets(st.integers(min_value=0, max_value=bound - 1), max_size=40),
    )
)


@given(sets)
@settings(max_examples=150)
def test_membership_and_serialized_probe_agree(case):
    bound, keys = case
    s = build_set(sorted(keys), bound)
    w = BitWriter()
    w.write(5, 3)  # leading junk, to exercise a non-zero offset
    s.write(w)
    bits = w.finish()

    def read(off, width):
        return read_fixed(bits, off, width)

    for x in range(bound):
        want = x in keys
        assert s.contains(x) == want
        assert probe_serialized(read, 3, bound, x) == want


@given(sets)
def test_serialized_round_trip(case):
    bound, keys = case
    s = build_set(sorted(keys), bound)
    _, back = roundtrip(s, bound)
    assert sorted(back.members()) == sorted(keys)


def test_build_set_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_set([5], 5)
