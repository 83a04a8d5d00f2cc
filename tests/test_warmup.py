from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachlabel.bitio import WARMUP_ID, BitWriter, LabelHeader, index_width
from reachlabel.graph import Dag, longest_path_layers, transitive_closure
from reachlabel.scheme import LabelView
from reachlabel.warmup import decode_warmup, encode_warmup


def closed_layering(n, edges):
    return longest_path_layers(transitive_closure(Dag(n, edges)))


def view(wl):
    """The decode view of an encoder label, through a whole warm-up label
    whose component id is its index."""
    w = BitWriter()
    LabelHeader(WARMUP_ID, wl.n).write(w)
    w.write(wl.index, index_width(wl.n))
    w.write(wl.index, index_width(wl.n))
    w.write(wl.table, wl.table_len)
    bits = w.finish()
    lab = LabelView(bits)
    assert lab.warm is lab and lab.end_offset == len(bits)
    return lab


def unit_labels(lay):
    """Window views with every DAG node standing for one graph node."""
    return [view(wl) for wl in encode_warmup(lay, [1] * lay.dag.n)]


def bits(l):
    return [l.table_bit(l.table, l.width, l.end_offset, j) for j in range(l.n // 2)]


def test_join_poset_frozen():
    # 0 and 1 both below 2; windows are floor(3/2) = 1 bit wide
    lay = closed_layering(3, [(0, 2), (1, 2)])
    labels = unit_labels(lay)
    assert [l.index for l in labels] == [0, 1, 2]
    assert [bits(l) for l in labels] == [[0], [1], [1]]

    assert decode_warmup(labels[0], labels[2])  # wraps into v's window
    assert decode_warmup(labels[1], labels[2])  # direct window hit
    assert not decode_warmup(labels[0], labels[1])
    assert not decode_warmup(labels[2], labels[0])  # wrong direction
    assert decode_warmup(labels[1], labels[1])


def test_antichain_tables_all_zero():
    lay = closed_layering(4, [])
    for wl in encode_warmup(lay, [1] * 4):
        assert wl.table == 0
        assert wl.table_len == 2


def test_chain_tables_all_one():
    lay = closed_layering(5, [(i, i + 1) for i in range(4)])
    for l in unit_labels(lay):
        assert bits(l) == [1, 1]


def test_window_probe_bounds():
    lay = closed_layering(4, [])
    l = unit_labels(lay)[0]
    with pytest.raises(ValueError):
        l.table_bit(l.table, l.width, l.end_offset, 2)
    with pytest.raises(ValueError):
        l.table_bit(l.table, l.width, l.end_offset, -1)


def test_decode_rejects_different_n():
    a = unit_labels(closed_layering(3, []))[0]
    b = unit_labels(closed_layering(4, []))[0]
    with pytest.raises(ValueError):
        decode_warmup(a, b)


def test_components_take_runs_of_indices():
    # DAG 0 -> 1 where node 0 stands for 3 graph nodes and node 1 for 2:
    # indices 0..2 belong to node 0 and 3..4 to node 1; windows are 2 bits
    lay = closed_layering(2, [(0, 1)])
    a, b = (view(wl) for wl in encode_warmup(lay, [3, 2]))
    assert (a.n, a.index, b.index) == (5, 0, 3)
    assert bits(a) == [0, 0]  # indices 1, 2: node 0 itself
    assert bits(b) == [0, 1]  # indices 4, 0: node 1, node 0
    assert decode_warmup(a, b) and not decode_warmup(b, a)


@st.composite
def closed_dags(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    return transitive_closure(Dag(n, edges))


@given(closed_dags())
@settings(max_examples=200)
def test_decode_matches_closure(closed):
    lay = longest_path_layers(closed)
    n = closed.n
    warm = encode_warmup(lay, [1] * n)
    assert all(wl.table_len == n // 2 for wl in warm)
    labels = [view(wl) for wl in warm]
    for u in range(n):
        for v in range(n):
            want = u == v or bool(closed.rows[u] >> v & 1)
            assert decode_warmup(labels[u], labels[v]) == want, (u, v)
