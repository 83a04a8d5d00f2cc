from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachlabel.graph import (
    Dag,
    Digraph,
    is_transitively_closed,
    longest_path_layers,
    oracle_reach,
    reach_rows,
    scc_condense,
    topological_order,
    transitive_closure,
)


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


def brute_reach(g: Digraph) -> list[set[int]]:
    out = []
    for s in range(g.n):
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.out_neighbors(u):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        out.append(seen)
    return out


def test_digraph_drops_self_loops():
    g = Digraph(3, [(0, 0), (0, 1)])
    assert g.edges == frozenset({(0, 1)})


def test_digraph_rejects_out_of_range_edge():
    with pytest.raises(ValueError):
        Digraph(2, [(0, 2)])


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


@given(digraphs())
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
        assert {v for v in truth[u] if v != u} == set(c.out_neighbors(u))


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
                assert not c.has_edge(u, v)
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
        assert any(c.has_edge(w, u) for w in lay.layers[lu - 1])
