"""Static membership sets: construction, probing, serialized form."""

from __future__ import annotations

import tracemalloc

import pytest
from helpers import ref_build_set
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachlabel.bitio import BitWriter, LabelReader, Widths
from reachlabel.dictionary import SetMemo, SetView, StaticSet, build_set


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


# A key set whose last bucket finds no free slot within the 256 seeds: it is
# stored sorted.
FALLBACK = (2000, frozenset(range(5, 48)))


def test_fallback_example_is_sorted():
    s = build_set(FALLBACK[1], FALLBACK[0])
    assert (s.size, s.mode) == (43, 1)
    assert s == ref_build_set(FALLBACK[1], FALLBACK[0])


bounded_sets = st.integers(min_value=1, max_value=2000).flatmap(
    lambda bound: st.tuples(
        st.just(bound),
        st.frozensets(st.integers(min_value=0, max_value=bound - 1), max_size=80),
    )
)
# a few distinct sets, then a batch that draws from them with repeats
batches = st.lists(bounded_sets, min_size=1, max_size=5).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12)
)


@given(batches)
@settings(max_examples=100, deadline=None)
@example([FALLBACK, (50, frozenset({3, 7})), FALLBACK, (10, frozenset({3, 7}))])
def test_memoised_batch_matches_reference(batch):
    """Sets built through one shared memo, in the drawn order, equal sets
    placed one by one with every hash computed afresh."""
    memo = SetMemo()
    for bound, keys in batch:
        assert build_set(keys, bound, memo) == ref_build_set(keys, bound)


def test_warm_memo_still_rejects_out_of_range():
    memo = SetMemo()
    assert build_set([3, 7], 10, memo).size == 2
    build_set([5], 6, memo)
    with pytest.raises(ValueError):
        build_set([3, 7], 5, memo)  # placed before under a larger bound
    with pytest.raises(ValueError):
        build_set([5], 5, memo)
    with pytest.raises(ValueError):
        build_set([-1, 3], 10, memo)


def test_memo_grows_with_probes_not_with_the_universe():
    # a handful of small sets over a 200 000-key universe
    bound = 200_000
    tracemalloc.start()
    try:
        memo = SetMemo()
        for i in range(8):
            build_set(range(i * 24_000, bound, 23_000 + i), bound, memo)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(memo.bucket) <= 8 * 9
    assert peak < 256 * 1024
