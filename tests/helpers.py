"""Audit helpers shared by the test suites; the package itself never needs them."""

from __future__ import annotations

from reachlabel.bipartite import BipartiteLabel, probe_pair
from reachlabel.flatten import split_rows
from reachlabel.graph import Digraph, _iter_bits


def is_transitively_closed(d: Digraph) -> bool:
    rows = d.rows
    for u in range(d.n):
        ru = rows[u]
        for v in _iter_bits(ru):
            if rows[v] & ~ru:
                return False
    return True


def split_edges(layered, s) -> tuple[frozenset, frozenset]:
    """Closure edges as (within-group, cross-group) edge sets."""
    ir, cr = split_rows(layered, s)
    inner = frozenset((u, v) for u in range(len(ir)) for v in _iter_bits(ir[u]))
    cross = frozenset((u, v) for u in range(len(cr)) for v in _iter_bits(cr[u]))
    return inner, cross


def decode_bipartite(lu: BipartiteLabel, lv: BipartiteLabel) -> bool:
    """Adjacency from two encoder labels of one instance, in either order.
    Same-side pairs are never adjacent."""
    if (lu.a, lu.b, lu.alpha, lu.beta) != (lv.a, lv.b, lv.alpha, lv.beta):
        raise ValueError("labels carry mismatched instance parameters")
    if lu.side == lv.side:
        return False
    if lu.side == "B":
        lu, lv = lv, lu
    return probe_pair(lu, lv)
