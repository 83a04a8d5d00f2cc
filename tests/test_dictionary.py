"""Static membership sets: construction, probing, serialized form."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachlabel.bitio import BitWriter, LabelReader, Widths
from reachlabel.dictionary import SetView, StaticSet, build_set


def roundtrip(s: StaticSet, universe_bound: int) -> SetView:
    w = BitWriter()
    s.write(w)
    bits = w.finish()
    assert len(bits) == s.bit_length()
    view = SetView(LabelReader(bits), 0, Widths(universe_bound))
    assert view.end_offset == len(bits)
    return view


def members(view: SetView, universe_bound: int) -> list[int]:
    return [x for x in range(universe_bound) if view.contains(x)]


def test_two_element_set_frozen():
    s = build_set([3, 7], 10)
    assert (s.size, s.mode) == (2, 0)
    assert sorted(k for i, k in enumerate(s.slots) if s.occupied >> i & 1) == [3, 7]
    assert members(roundtrip(s, 10), 10) == [3, 7]


def test_empty_set():
    s = build_set([], 5)
    assert s.size == 0
    assert members(roundtrip(s, 5), 5) == []


def test_hundred_keys_against_linear_scan():
    keys = sorted({(37 * i + 11) % 331 for i in range(100)})
    s = build_set(keys, 331)
    assert members(roundtrip(s, 331), 331) == keys


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
    read = LabelReader(w.finish())
    view = SetView(read, 3, Widths(bound))
    assert read.words == 1  # size and mode
    for x in range(bound):
        before = read.words
        assert view.contains(x) == (x in keys)
        # a hashed probe fetches a seed, an occupancy bit and maybe a key;
        # a sorted one a key per binary-search step
        assert read.words - before <= (3 if s.mode == 0 else max(1, s.size).bit_length())
    with pytest.raises(ValueError):
        view.contains(bound)


@given(sets)
def test_serialized_round_trip(case):
    bound, keys = case
    s = build_set(sorted(keys), bound)
    assert members(roundtrip(s, bound), bound) == sorted(keys)


def test_build_set_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_set([5], 5)
