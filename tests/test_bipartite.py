"""Budgeted bipartite adjacency labels and their embedded serialization.

The table-placement rule never truncates: an A-side label holds exactly
alpha bits and a B-side label exactly beta bits, with never-probed tail
positions written as zeros. The placement indices come from index_pair,
whose coverage guarantee (probe A or probe B always lands inside a table)
is what the budget constraint a*alpha + b*beta > a*b buys.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachlabel.bitio import BitWriter, read_fixed
from reachlabel.bipartite import (
    BipartiteInstance,
    BipartiteLabel,
    LazyEmbedded,
    ceil_div,
    decode_bipartite,
    embedded_width,
    encode_bipartite,
    index_pair,
    probe_pair,
    read_embedded,
    write_embedded,
)


def adjacent(inst, u, v) -> bool:
    return bool(inst.rows[u] >> (v - inst.a) & 1)


def mask_rows(a, b, mask):
    """Rows of the instance whose edge (u, a+v) is bit u*b + v of mask."""
    return tuple(mask >> (u * b) & (1 << b) - 1 for u in range(a))


def test_ceil_div():
    assert ceil_div(0, 3) == 0
    assert ceil_div(1, 3) == 1
    assert ceil_div(3, 3) == 1
    assert ceil_div(4, 3) == 2


def test_index_pair_frozen():
    assert index_pair(0, 0, 2, 2) == (0, 0)
    assert index_pair(1, 0, 2, 2) == (1, 1)
    assert index_pair(2, 1, 3, 2) == (1, 0)


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.data(),
)
def test_index_pair_ranges(a, b, data):
    i_a = data.draw(st.integers(min_value=0, max_value=a - 1))
    i_b = data.draw(st.integers(min_value=0, max_value=b - 1))
    i, j = index_pair(i_a, i_b, a, b)
    assert 0 <= i < b
    assert 0 <= j < a


@given(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=24),
)
@settings(max_examples=200)
def test_index_pair_coverage_under_budget(a, b):
    # For every placement, a*i + b*j <= a*b; therefore any (alpha, beta)
    # with a*alpha + b*beta > a*b has i < alpha or j < beta.
    for i_a in range(a):
        for i_b in range(b):
            i, j = index_pair(i_a, i_b, a, b)
            assert a * i + b * j <= a * b, (a, b, i_a, i_b)


def test_budget_validation():
    with pytest.raises(ValueError):
        BipartiteInstance(2, 2, 1, 1, (0, 0))  # 2+2 <= 4
    with pytest.raises(ValueError):
        BipartiteInstance(1, 1, -1, 3, (0,))
    with pytest.raises(ValueError):
        BipartiteInstance(2, 2, 1, 2, (0b100, 0))  # bit 2 is past the B side
    with pytest.raises(ValueError):
        BipartiteInstance(2, 2, 1, 2, (0,))  # one row for two A nodes
    # empty side: no pairs to cover, any budget accepted
    BipartiteInstance(0, 3, 0, 0, ())
    BipartiteInstance(3, 0, 0, 1, (0, 0, 0))


def test_encoded_tables_frozen():
    inst = BipartiteInstance(2, 2, 1, 2, (0b01, 0))  # the one edge (0, 2)
    labels = encode_bipartite(inst)
    assert [l.side for l in labels] == ["A", "A", "B", "B"]
    assert [[l.bit(i) for i in range(l.table_len)] for l in labels] == [
        [1],
        [0],
        [1, 0],
        [0, 0],
    ]


def test_table_lengths_are_exact_budgets():
    inst = BipartiteInstance(3, 5, 4, 2, (0b00001, 0, 0b10000))  # (0, 3), (2, 7)
    for l in encode_bipartite(inst):
        assert l.table_len == (inst.alpha if l.side == "A" else inst.beta)


def minimal_budgets(a: int, b: int) -> list[tuple[int, int]]:
    out = []
    for alpha in range(0, b + 1):
        for beta in range(0, a + 2):
            if a * alpha + b * beta <= a * b:
                continue
            smaller_ok = (alpha > 0 and a * (alpha - 1) + b * beta > a * b) or (
                beta > 0 and a * alpha + b * (beta - 1) > a * b
            )
            if not smaller_ok:
                out.append((alpha, beta))
    return out


def test_decode_exhaustive_tiny():
    for a, b in product((1, 2, 3), repeat=2):
        for mask in range(1 << (a * b)):
            alpha, beta = minimal_budgets(a, b)[0]
            inst = BipartiteInstance(a, b, alpha, beta, mask_rows(a, b, mask))
            labels = encode_bipartite(inst)
            for u in range(a):
                for v in range(a, a + b):
                    assert decode_bipartite(labels[u], labels[v]) == adjacent(
                        inst, u, v
                    ), (a, b, mask, u, v)


def test_decode_rejects_mismatched_instances():
    la = encode_bipartite(BipartiteInstance(2, 2, 1, 2, (0, 0)))[0]
    lb = encode_bipartite(BipartiteInstance(2, 3, 2, 2, (0, 0)))[2]
    with pytest.raises(ValueError):
        decode_bipartite(la, lb)


def test_probe_pair_rejects_empty_sides():
    # a corrupted sub-label can carry a = 0 or b = 0; the probe must fail
    # with ValueError before its modular index arithmetic divides by zero
    la = BipartiteLabel(0, 0, 2, 1, 1, 0, "A")
    lb = BipartiteLabel(1, 0, 2, 1, 1, 0, "B")
    with pytest.raises(ValueError):
        probe_pair(la, lb)
    with pytest.raises(ValueError):
        probe_pair(BipartiteLabel(0, 2, 0, 1, 1, 0, "A"), lb)


@st.composite
def instances(draw):
    a = draw(st.integers(min_value=1, max_value=6))
    b = draw(st.integers(min_value=1, max_value=6))
    budgets = minimal_budgets(a, b)
    alpha, beta = draw(st.sampled_from(budgets))
    mask = draw(st.integers(min_value=0, max_value=(1 << (a * b)) - 1))
    return BipartiteInstance(a, b, alpha, beta, mask_rows(a, b, mask))


@given(instances())
@settings(max_examples=150)
def test_decode_matches_adjacency(inst):
    labels = encode_bipartite(inst)
    for u in range(inst.a):
        for v in range(inst.a, inst.a + inst.b):
            assert decode_bipartite(labels[u], labels[v]) == adjacent(inst, u, v)


@given(instances(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=120)
def test_embedded_round_trip_and_lazy_view(inst, limit_pad):
    limit = inst.a + inst.b + limit_pad % 50 + 1
    labels = encode_bipartite(inst)
    for lab in labels:
        w = BitWriter()
        w.write(3, 2)  # non-zero start offset
        write_embedded(w, lab, limit)
        bits = w.finish()
        assert len(bits) == 2 + embedded_width(limit, lab.table_len)
        back, used = read_embedded(bits, 2, limit, lab.side)
        assert used == len(bits) - 2
        assert (back.index, back.a, back.b, back.alpha, back.beta) == (
            lab.index,
            lab.a,
            lab.b,
            lab.alpha,
            lab.beta,
        )
        assert back.table == lab.table

        lazy = LazyEmbedded(lambda o, wd: read_fixed(bits, o, wd), 2, limit, lab.side)
        assert lazy.end_offset() == len(bits)
        for i in range(lab.table_len):
            assert lazy.bit(i) == lab.bit(i)


@given(instances())
@settings(max_examples=100)
def test_probe_pair_accepts_either_window(inst):
    labels = encode_bipartite(inst)
    for u in range(inst.a):
        for v in range(inst.a, inst.a + inst.b):
            assert probe_pair(labels[u], labels[v]) == adjacent(inst, u, v)
