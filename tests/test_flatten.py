"""Layer grouping and the intra-group interval tables."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import split_edges
from reachlabel.bitio import BitWriter, LabelHeader
from reachlabel.flatten import (
    build_superlayers,
    decode_inner,
    encode_inner,
    gamma_of,
    split_rows,
    write_inner,
)
from reachlabel.graph import Dag, longest_path_layers, transitive_closure
from reachlabel.scheme import LabelView


def closed_layering(n, edges):
    return longest_path_layers(transitive_closure(Dag(n, edges)))


def inner_view(gl, n):
    """The decode view of an encoder label, through a composite label of
    its header and serialized section (no blob, which is read only across
    groups)."""
    w = BitWriter()
    LabelHeader(2, n).write(w)
    write_inner(w, gl, n)
    bits = w.finish()
    view = LabelView(bits)
    assert view.inner is view and view.end_offset == len(bits)
    return view


@st.composite
def closed_layered(draw, max_n=16):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    return closed_layering(n, edges)


def test_gamma_values():
    assert gamma_of(1) == 1
    assert gamma_of(2) == 1
    assert gamma_of(3) == 2
    assert gamma_of(8) == 3
    assert gamma_of(9) == 4
    assert gamma_of(1000) == 10


def test_grouping_frozen_mixed_sizes():
    # layer sizes [1, 3, 1, 2, 1] at n=8; gamma_of(8)=3, thick means size*3 > 8
    lay = closed_layering(
        8,
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (4, 5), (4, 6), (5, 7)],
    )
    assert [len(l) for l in lay.layers] == [1, 3, 1, 2, 1]
    s = build_superlayers(lay)
    assert s.gamma == 3
    assert [g.gtype for g in s.groups] == [3, 1, 2, 3]
    assert [(g.first_layer, g.last_layer) for g in s.groups] == [
        (0, 0),
        (1, 1),
        (2, 3),
        (4, 4),
    ]
    assert [(g.beg, g.end) for g in s.groups] == [(0, 1), (1, 4), (4, 7), (7, 8)]
    assert [g.thick for g in s.groups] == [False, True, False, False]


def test_gamma_override_validated():
    lay = closed_layering(3, [])
    with pytest.raises(ValueError):
        build_superlayers(lay, gamma=0)
    assert build_superlayers(lay, gamma=5).gamma == 5


@given(closed_layered())
@settings(max_examples=150)
def test_grouping_invariants(lay):
    n = lay.dag.n
    s = build_superlayers(lay)
    g = s.gamma
    assert s.count <= 3 * g + 1
    covered = []
    pos = 0
    for grp in s.groups:
        assert grp.beg == pos
        assert grp.end > grp.beg
        pos = grp.end
        covered.extend(range(grp.first_layer, grp.last_layer + 1))
        width = grp.end - grp.beg
        if grp.gtype == 1:
            assert grp.thick and grp.first_layer == grp.last_layer
            assert width * g > n
        else:
            assert not grp.thick
            if grp.gtype == 2:
                assert n < width * g <= 2 * n
            else:
                assert width * g <= n
    assert pos == n
    assert covered == list(range(len(lay.layers)))
    for u in range(n):
        grp = s.groups[s.group_of[u]]
        assert grp.beg <= lay.topo[u] < grp.end


@given(closed_layered())
@settings(max_examples=120)
def test_split_partitions_closure(lay):
    s = build_superlayers(lay)
    inner, cross = split_edges(lay, s)
    assert inner.isdisjoint(cross)
    assert inner | cross == lay.dag.edges
    for u, v in inner:
        assert s.group_of[u] == s.group_of[v]
    for u, v in cross:
        assert s.group_of[u] != s.group_of[v]


@given(closed_layered())
@settings(max_examples=120)
def test_inner_decode_matches_membership(lay):
    n = lay.dag.n
    s = build_superlayers(lay)
    inner_rows, _ = split_rows(lay, s)
    views = [inner_view(gl, n) for gl in encode_inner(lay, s, inner_rows)]
    inner, _ = split_edges(lay, s)
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            assert decode_inner(views[u], views[v]) == ((u, v) in inner), (u, v)


def test_thick_groups_store_no_table():
    # a single 4-node antichain at n=4 is one thick layer
    lay = closed_layering(4, [])
    s = build_superlayers(lay)
    assert [g.gtype for g in s.groups] == [1]
    inner_rows, cross = split_rows(lay, s)
    assert all(r == 0 for r in cross)
    for gl in encode_inner(lay, s, inner_rows):
        assert gl.thick and gl.table == 0
        view = inner_view(gl, 4)
        assert view.end_offset == 40 + 3 * 2 + 3 + 1  # header and placement fields only
        with pytest.raises(ValueError):
            view.table_bit(view.table, view.width, view.end_offset, 0)
