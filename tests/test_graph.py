from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    is_transitively_closed,
    ref_columns,
    ref_inner_tables,
    ref_layer_of,
    ref_ranked,
    ref_scc_condense,
    ref_transitive_closure,
    ref_warmup_labels,
)
from reachlabel.bipartite import BipartiteInstance, ceil_div, encode_bipartite
from reachlabel.flatten import encode_inner
from reachlabel.graph import (
    Dag,
    Digraph,
    _iter_bits,
    cyclic_window,
    gatherer,
    longest_path_layers,
    oracle_reach,
    reach_rows,
    scc_condense,
    topological_order,
    transitive_closure,
    transpose,
)
from reachlabel.scheme import Pipeline
from reachlabel.warmup import encode_warmup


@st.composite
def digraphs(draw, max_n=14):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=3 * n,
        )
    )
    return Digraph(n, edges)


@st.composite
def dags(draw, max_n=14):
    g = draw(digraphs(max_n))
    edges = {(u, v) for u, v in g.edges if u < v}
    return Dag(g.n, edges)


@st.composite
def dense_cyclic(draw, max_blocks=5, max_block=5):
    """Dense digraphs (p >= 0.3) with several SCCs: each block is a cycle
    plus random edges, and edges between blocks only run forward, so every
    block with more than one node is one component. Ids are shuffled."""
    sizes = draw(st.lists(st.integers(1, max_block), min_size=2, max_size=max_blocks))
    p = draw(st.floats(0.3, 0.9))
    rnd = draw(st.randoms(use_true_random=False))
    n = sum(sizes)
    perm = list(range(n))
    rnd.shuffle(perm)
    block = [b for b, k in enumerate(sizes) for _ in range(k)]
    edges = set()
    start = 0
    for k in sizes:
        for i in range(k):
            edges.add((perm[start + i], perm[start + (i + 1) % k]))
        start += k
    for x in range(n):
        for y in range(n):
            if block[x] <= block[y] and rnd.random() < p:
                edges.add((perm[x], perm[y]))
    return Digraph(n, edges)


def brute_reach(g: Digraph) -> list[set[int]]:
    out = []
    for s in range(g.n):
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in _iter_bits(g.rows[u]):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        out.append(seen)
    return out


def test_digraph_drops_self_loops():
    g = Digraph(3, [(0, 0), (0, 1)])
    assert g.edges == frozenset({(0, 1)})
    g = Digraph(3, rows=[0b011, 0b100, 0b100])
    assert g.rows == [0b010, 0b100, 0b000]
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_digraph_rejects_out_of_range_edge():
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])
    # rows: a bit at n, or a negative row (bits at every position)
    for rows in ([0b100, 0], [0, -1], [-2, 0]):
        with pytest.raises(ValueError):
            Digraph(2, rows=rows)
    assert Digraph(2, rows=[0b10, 0b01]).rows == [0b10, 0b01]


def test_dag_validate_rejects_cycle():
    with pytest.raises(ValueError):
        Dag(2, [(0, 1), (1, 0)])


@given(dags())
def test_topological_order_respects_edges(d):
    order = topological_order(d)
    assert sorted(order) == list(range(d.n))
    pos = {u: i for i, u in enumerate(order)}
    for u, v in d.edges:
        assert pos[u] < pos[v]


# -- SCC condensation ------------------------------------------------------


def test_scc_quotient_frozen():
    # 3-cycle {0,1,2} feeding a 2-node tail 3 -> 4
    g = Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    res = scc_condense(g)
    assert res.scc_id == (0, 0, 0, 1, 2)
    assert res.dag.n == 3
    assert res.dag.edges == frozenset({(0, 1), (1, 2)})
    assert res.leaders == [0, 3, 4]
    assert res.dag.order == [0, 1, 2]


def test_scc_quotient_numbers_components_by_smallest_member():
    # 4 -> {1, 3} (a 2-cycle) -> 0 -> 2
    g = Digraph(5, [(4, 1), (1, 3), (3, 1), (3, 0), (0, 2)])
    res = scc_condense(g)
    assert res.scc_id == (0, 1, 2, 1, 3)
    assert res.leaders == [0, 1, 2, 4]
    assert res.dag.edges == frozenset({(3, 1), (1, 0), (0, 2)})
    assert res.expand("abcd") == ["a", "b", "c", "b", "d"]


@given(dags())
def test_scc_quotient_of_a_dag_is_the_dag(d):
    res = scc_condense(Digraph(d.n, rows=d.rows))
    assert res.scc_id == tuple(range(d.n))
    assert res.dag.rows == d.rows
    pos = {u: i for i, u in enumerate(res.dag.order)}
    for u, v in d.edges:
        assert pos[u] < pos[v]


@given(digraphs())
@settings(max_examples=120)
def test_scc_condensation_preserves_reachability(g):
    res = scc_condense(g)
    truth = brute_reach(g)
    cond = brute_reach(res.dag)
    topological_order(res.dag)  # acyclic
    assert sorted(res.dag.order) == list(range(res.dag.n))
    pos = {c: i for i, c in enumerate(res.dag.order)}
    for c, d in res.dag.edges:
        assert pos[c] < pos[d]
    for u in range(g.n):
        for v in range(g.n):
            if u == v:
                continue
            cu, cv = res.scc_id[u], res.scc_id[v]
            same = cu == cv
            assert same == (v in truth[u] and u in truth[v])
            if not same:
                assert (cv in cond[cu]) == (v in truth[u])


@given(st.one_of(digraphs(), dags(), dense_cyclic()))
def test_reach_rows_matches_oracle(g):
    rows = reach_rows(g)
    truth = brute_reach(g)
    for u in range(g.n):
        assert rows[u] >> u & 1  # diagonal always set
        for v in range(g.n):
            assert bool(rows[u] >> v & 1) == (v in truth[u])
            assert oracle_reach(g, u, v) == (v in truth[u])


# -- closure and layering ----------------------------------------------------


@given(dags())
def test_transitive_closure_is_closed_and_exact(d):
    c = transitive_closure(d)
    assert c.order is d.order  # a DAG's order is one of its closure too
    assert is_transitively_closed(c)
    truth = brute_reach(d)
    for u in range(d.n):
        assert {v for v in truth[u] if v != u} == set(_iter_bits(c.rows[u]))


def test_is_transitively_closed_negative():
    assert not is_transitively_closed(Digraph(3, [(0, 1), (1, 2)]))


def test_longest_path_layers_frozen():
    d = transitive_closure(Dag(4, [(0, 2), (1, 2), (2, 3)]))
    lay = longest_path_layers(d)
    assert lay.layers == ((0, 1), (2,), (3,))
    assert lay.layer_of == (0, 0, 1, 2)
    assert lay.topo == (0, 1, 2, 3)
    assert lay.inv_topo == (0, 1, 2, 3)


@given(dags())
@settings(max_examples=120)
def test_layering_invariants(d):
    c = transitive_closure(d)
    lay = longest_path_layers(c)
    # layers partition the nodes and are antichains
    seen = [u for layer in lay.layers for u in layer]
    assert sorted(seen) == list(range(d.n))
    for layer in lay.layers:
        for u in layer:
            for v in layer:
                assert not c.rows[u] >> v & 1
    # every edge ascends layers, and the numbering follows the layer order
    for u, v in c.edges:
        assert lay.layer_of[u] < lay.layer_of[v]
        assert lay.topo[u] < lay.topo[v]
    for t in range(d.n):
        assert lay.topo[lay.inv_topo[t]] == t
    # each node below the top has a predecessor in the previous layer
    for u in range(d.n):
        lu = lay.layer_of[u]
        if lu == 0:
            continue
        assert any(c.rows[w] >> u & 1 for w in lay.layers[lu - 1])


# -- the word-parallel stages against their per-edge references --------------


def assert_stages_match_reference(g: Digraph) -> None:
    res = scc_condense(g)
    scc_id, order, quotient_rows = ref_scc_condense(g)
    assert res.scc_id == scc_id
    assert res.dag.order == order
    assert res.dag.rows == quotient_rows
    closed = transitive_closure(res.dag)
    assert closed.rows == ref_transitive_closure(res.dag)
    assert list(longest_path_layers(closed).layer_of) == ref_layer_of(closed)


@given(digraphs())
@settings(max_examples=150)
def test_stages_match_reference_on_digraphs(g):
    assert_stages_match_reference(g)


@given(dags())
def test_stages_match_reference_on_dags(d):
    assert_stages_match_reference(Digraph(d.n, rows=d.rows))
    # layering needs no closure to be exact
    assert list(longest_path_layers(d).layer_of) == ref_layer_of(d)


@given(dense_cyclic())
@settings(max_examples=150)
def test_stages_match_reference_on_dense_cyclic(g):
    assert len(set(scc_condense(g).scc_id)) >= 2
    assert_stages_match_reference(g)


# -- the bit-matrix kernels against their per-bit references -----------------


@st.composite
def gather_cases(draw, max_width=90):
    """(positions, width, mask); positions may repeat or be empty."""
    width = draw(st.integers(0, max_width))
    positions = (
        draw(st.lists(st.integers(0, width - 1), max_size=2 * width + 2)) if width else []
    )
    return positions, width, draw(st.integers(0, (1 << width) - 1))


@given(gather_cases())
def test_gather_picks_each_position(case):
    positions, width, mask = case
    want = sum((mask >> p & 1) << r for r, p in enumerate(positions))
    assert gatherer(positions, width)(mask) == want


@given(st.data())
def test_gather_matches_ranked(data):
    width = data.draw(st.integers(1, 90))
    positions = data.draw(st.lists(st.integers(0, width - 1), unique=True))
    mask = data.draw(st.integers(0, (1 << width) - 1))
    mask &= sum(1 << p for p in positions)
    rank = {p: r for r, p in enumerate(positions)}
    assert gatherer(positions, width)(mask) == ref_ranked(mask, rank)


def test_gather_edge_cases():
    assert gatherer([], 0)(0) == 0
    assert gatherer([], 5)(0b10110) == 0
    # one position: the itemgetter returns a single character, not a tuple
    assert gatherer([3], 5)(0b01000) == 1
    assert gatherer([3], 5)(0b10111) == 0
    assert gatherer([2, 2, 0], 3)(0b101) == 0b111
    assert gatherer([2, 2, 0], 3)(0b100) == 0b011
    assert gatherer(range(4), 4)(0b1010) == 0b1010


@given(st.data())
def test_transpose_matches_column_loop(data):
    width = data.draw(st.integers(0, 70))
    rows = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=20))
    assert transpose(rows, width) == ref_columns(rows, width)


def test_transpose_edge_cases():
    assert transpose([], 0) == []
    assert transpose([0, 0], 0) == []
    assert transpose([], 3) == [0, 0, 0]
    assert transpose([0b01, 0b11, 0b10], 2) == [0b011, 0b110]


def test_kernels_reject_bits_past_width():
    with pytest.raises(ValueError):
        gatherer([0], 4)(1 << 4)
    with pytest.raises(ValueError):
        gatherer([], 0)(1)
    with pytest.raises(ValueError):
        gatherer([4], 4)
    with pytest.raises(ValueError):
        transpose([1, 1 << 4], 4)
    with pytest.raises(ValueError):
        transpose([1], 0)


@st.composite
def bipartite_instances(draw, max_side=12):
    """Instances with a full budget on one side; a or b may be 0."""
    a = draw(st.integers(0, max_side))
    b = draw(st.integers(0, max_side))
    rows = tuple(draw(st.integers(0, (1 << b) - 1)) for _ in range(a))
    return BipartiteInstance(a, b, b + 1, draw(st.integers(0, a)), rows)


@given(bipartite_instances())
@example(BipartiteInstance(3, 0, 1, 0, (0, 0, 0)))
@example(BipartiteInstance(0, 3, 0, 0, ()))
def test_b_side_tables_match_column_loop(inst):
    a, b = inst.a, inst.b
    want = [
        cyclic_window(col, ceil_div(a * j, b), inst.beta, a) if a else 0
        for j, col in enumerate(ref_columns(inst.rows, b))
    ]
    labels = encode_bipartite(inst)
    assert len(labels) == a + b
    assert [lab.table for lab in labels[a:]] == want


@given(st.one_of(digraphs(), dense_cyclic()))
@settings(max_examples=120)
def test_inner_tables_match_interval_loop(g):
    pl = Pipeline(g)
    labels = encode_inner(pl.layered, pl.slayer, pl.inner_rows)
    assert [lab.table for lab in labels] == ref_inner_tables(pl.layered, pl.slayer, pl.inner_rows)


def assert_warmup_matches_reference(g: Digraph) -> None:
    pl = Pipeline(g)
    sizes = Counter(pl.scc.scc_id)
    got = [(lab.n, lab.index, lab.table) for lab in encode_warmup(pl.layered, sizes)]
    assert got == ref_warmup_labels(pl.layered, sizes)


@given(st.one_of(digraphs(), dense_cyclic()))
@settings(max_examples=120)
def test_warmup_windows_match_double_loop(g):
    assert_warmup_matches_reference(g)


def test_warmup_windows_edge_cases():
    assert_warmup_matches_reference(Digraph(1))  # half = 0
    assert_warmup_matches_reference(Digraph(2, [(0, 1)]))
    # components {0, 1, 2} and {3, 4} take runs of three and two indices
    g = Digraph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (5, 0)])
    assert sorted(Counter(scc_condense(g).scc_id).values()) == [1, 2, 3]
    assert_warmup_matches_reference(g)
