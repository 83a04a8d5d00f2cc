"""Iterative peeling of cross-group closure edges, and its per-node blobs."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import is_transitively_closed, split_edges
from reachlabel.crosslabel import (
    CLS_FRONT_REST,
    CLS_RETIRED,
    CLS_SECOND_REST,
    assemble_cross,
    build_cross_labeling,
    CrossView,
    decode_cross,
    peel_cross,
)
from reachlabel.bitio import LabelReader, Widths
from reachlabel.flatten import build_superlayers, split_rows
from reachlabel.graph import (
    Dag,
    Digraph,
    _iter_bits,
    longest_path_layers,
    transitive_closure,
)


def peeled(n, edges, profile="force", gamma=None):
    lay = longest_path_layers(transitive_closure(Dag(n, edges)))
    sl = build_superlayers(lay, gamma=gamma)
    _, cross = split_rows(lay, sl)
    return lay, sl, cross, peel_cross(lay, sl, cross, profile=profile)


def edges_of(rows: dict[int, int]) -> set[tuple[int, int]]:
    return {(u, v) for u, m in rows.items() for v in _iter_bits(m)}


@st.composite
def closed_cases(draw, max_n=14):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    profile = draw(st.sampled_from(["paper", "force"]))
    return n, edges, profile


def test_complete_bipartite_two_groups_frozen():
    # two antichain layers forming a complete bipartite closure; gamma=4
    # makes each layer its own thick group, so every edge crosses groups
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    lay, sl, cross, peel = peeled(4, edges, gamma=4)
    assert [g.thick for g in sl.groups] == [True, True]
    assert peel.k == 2
    assert len(peel.records) == 1
    rec = peel.records[0]
    assert rec.n_pairs == 1
    assert rec.front_match == (0,)
    assert rec.second_match == (2,)
    assert [u for u in rec.live if rec.cls[u] == CLS_FRONT_REST] == [1]
    assert [v for v in rec.live if rec.cls[v] == CLS_SECOND_REST] == [3]
    # one extraction consumes the whole cross edge set
    near, far = edges_of(rec.near_rows), edges_of(rec.far_rows)
    assert near | far == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert near == {(0, 2), (1, 3)}
    assert peel.entry == (1, 1, 2, 2)
    assert peel.removed_iter == (1, 2, 1, 2)


def test_default_grouping_merges_the_same_graph():
    # under the default gamma the two layers land in one type-2 group,
    # so there are no cross edges at all
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    lay, sl, cross, peel = peeled(4, edges)
    assert sl.count == 1
    assert all(r == 0 for r in cross)
    assert peel.records == ()


@given(closed_cases())
@settings(max_examples=120, deadline=None)
def test_peel_consumes_cross_edges_exactly_once(case):
    n, edges, profile = case
    lay, sl, cross, peel = peeled(n, edges, profile=profile)
    _, cross_edges = split_edges(lay, sl)
    seen = []
    for rec in peel.records:
        near, far = edges_of(rec.near_rows), edges_of(rec.far_rows)
        assert near.isdisjoint(far)
        seen.extend(near)
        seen.extend(far)
    assert len(seen) == len(set(seen))  # nothing consumed twice
    assert set(seen) == cross_edges


@given(closed_cases())
@settings(max_examples=100, deadline=None)
def test_residual_stays_transitively_closed(case):
    n, edges, profile = case
    lay, sl, cross, peel = peeled(n, edges, profile=profile)
    # the live rows before iteration s: the cross rows minus every edge
    # consumed by iterations 1..s-1
    rows = list(cross)
    for rec in peel.records:
        assert is_transitively_closed(Digraph(n, rows=list(rows)))
        for consumed in (rec.near_rows, rec.far_rows):
            for u, m in consumed.items():
                assert rows[u] & m == m  # consumed edges were live
                rows[u] &= ~m
    assert not any(rows)


@given(closed_cases())
@settings(max_examples=100, deadline=None)
def test_iteration_budgets_follow_the_size_rules(case):
    n, edges, profile = case
    lay, sl, cross, _ = peeled(n, edges, profile=profile)
    for variant in ("third", "average"):
        cl = build_cross_labeling(lay, sl, cross, profile=profile, variant=variant)
        for rec in cl.records:
            if rec.n_pairs == 0:
                assert rec.far_inst is None
                continue
            near = rec.near_inst
            assert near.a == near.b == rec.n_pairs
            assert near.alpha == near.beta == (rec.n_pairs + 1) // 2 + 1
            far = rec.far_inst
            assert far.a == rec.n_pairs
            assert far.b == len(rec.outside)
            if variant == "third":
                assert far.alpha == (2 * len(rec.live) - 3 * rec.n_pairs + 5) // 6
                assert far.beta == (2 * rec.n_pairs + 2) // 3
            else:
                assert far.alpha == 0
                assert far.beta == rec.n_pairs + 1


def test_unknown_variant_rejected():
    lay, sl, cross, _ = peeled(4, [(0, 2), (0, 3), (1, 2), (1, 3)], gamma=4)
    with pytest.raises(ValueError):
        build_cross_labeling(lay, sl, cross, variant="half")


@given(closed_cases(), st.sampled_from(["third", "average"]))
@settings(max_examples=100, deadline=None)
def test_blob_decode_matches_cross_membership(case, variant):
    n, edges, profile = case
    lay, sl, cross, _ = peeled(n, edges, profile=profile)
    _, cross_edges = split_edges(lay, sl)
    cl = build_cross_labeling(lay, sl, cross, profile=profile, variant=variant)
    parsed = []
    for u in range(n):
        blob = assemble_cross(cl, u)
        pc = CrossView(LabelReader(blob), 0, Widths(n))
        assert pc.check() == len(blob)
        assert pc.k == cl.k
        assert pc.entry == cl.entry[u]
        assert pc.removed_iter == cl.removed_iter[u]
        parsed.append(pc)
    pos = cl.pos
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            got = decode_cross(parsed[u], parsed[v], pos[u], pos[v])
            assert got == ((u, v) in cross_edges), (u, v)


def test_sections_default_to_retired():
    # a node that was never live in an iteration carries the 3-bit marker
    lay, sl, cross, _ = peeled(4, [(0, 2), (0, 3), (1, 2), (1, 3)], gamma=4)
    cl = build_cross_labeling(lay, sl, cross, variant="third")
    blob = assemble_cross(cl, 0)
    pc = CrossView(LabelReader(blob), 0, Widths(4))
    # node 0 is removed in iteration 1; there is exactly one iteration here
    assert pc.sec_near(1).inf != CLS_RETIRED


@dataclass
class _StubSection:
    inf: int = CLS_RETIRED
    is_empty: bool = True


class _StubLabel:
    k = 10  # both stubs come from one labeling

    def __init__(self, entry, removed_iter, log):
        self.entry = entry
        self.removed_iter = removed_iter
        self._log = log

    def sec_near(self, s):
        self._log.append(s)
        return _StubSection()

    def sec_far(self, s):
        self._log.append(s)
        return _StubSection()


@pytest.mark.parametrize(
    "entry_u,entry_v,removed_u,expect_s",
    [
        (1, 2, 9, 1),   # v entered at 2, u never removed: answer at s=1
        (1, 5, 2, 2),   # u removed early: its last live iteration answers
        (1, 5, 7, 4),   # u outlives v's entry: entry(v)-1 answers
    ],
)
def test_answering_iteration_choice(entry_u, entry_v, removed_u, expect_s):
    log = []
    lu = _StubLabel(entry_u, removed_u, log)
    lv = _StubLabel(entry_v, 9, log)
    assert decode_cross(lu, lv, 0, 1) is False
    # both labels fetch their near and far sections of the same iteration
    assert log == [expect_s] * 4


def test_wrong_direction_answers_false_without_probing():
    log = []
    lu = _StubLabel(3, 9, log)
    lv = _StubLabel(2, 9, log)
    assert decode_cross(lu, lv, 5, 1) is False
    assert log == []
