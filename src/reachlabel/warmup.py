"""Half-window reachability labels for transitively closed DAGs.

Label = topological index I(u) plus a floor(n/2)-bit window B_u, where
B_u[j] says whether u is comparable with the node at topological index
(I(u)+j+1) mod n. Any two nodes land in at least one of their two windows,
and comparability plus topological order decides reachability.

A DAG node standing for the k members of a strongly connected component
takes k consecutive indices and its label carries the first, so n counts
graph nodes and queries land on first indices only.

The encoder builds every window from one comparability row per DAG node:
the node's closure row ORed with its closure column (one ``transpose``),
then put into graph-index order (a second ``transpose``, of the
comparability rows listed by index, where a component's node repeats k
times). Bit i of that n-bit row says whether u is comparable with the node
at index i, so B_u is the row rotated down by I(u)+1 and cut to floor(n/2)
bits.
``decode_warmup`` answers from two label views (``scheme.LabelView``)
through ``probe_window``, the one window decoder, which the composite
labels' intra tables (``flatten``) share: they are the same half-windows
over each thin group's members.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import LayeredDag, cyclic_window, transpose


@dataclass(frozen=True)
class WarmupLabel:
    n: int
    index: int
    table: int  # floor(n/2) bits; bit j is (table >> j) & 1

    @property
    def table_len(self) -> int:
        return self.n // 2


def encode_warmup(layered: LayeredDag, sizes) -> list[WarmupLabel]:
    """One label per DAG node; expects a transitively closed, layered DAG
    whose node x stands for ``sizes[x]`` graph nodes."""
    rows = layered.dag.rows
    m = layered.dag.n
    # graph-node index -> DAG node, DAG nodes in topological order
    at = [x for x in layered.inv_topo for _ in range(sizes[x])]
    n = len(at)
    first = {x: i for i, x in reversed(list(enumerate(at)))}
    half = n // 2
    comparable = [row | col for row, col in zip(rows, transpose(rows, m))]
    # comparability is symmetric, so column u of the rows taken in index
    # order is u's row gathered into index order
    by_index = transpose([comparable[x] for x in at], m)
    return [
        WarmupLabel(n, first[u], cyclic_window(by_index[u], first[u] + 1, half, n))
        for u in range(m)
    ]


def decode_warmup(lu, lv) -> bool:
    """Reachability u -> v from two warm-up label views, whose window is a
    ``table`` of ``width`` = n//2 bits ending at offset ``end_offset``."""
    n = lu.n
    if n != lv.n:
        raise ValueError("labels come from different encodings")
    iu, iv = lu.index, lv.index
    if iu == iv:
        return True
    return iu < iv and probe_window(lu, lv, iv - iu, n)


def probe_window(lu, lv, d: int, m: int) -> bool:
    """Comparability of u and the node d > 0 positions after it on a cycle
    of m positions, where each view's ``table`` of ``width`` bits, ending at
    offset ``end_offset``, is its window over the next m//2 positions: u's
    bit d-1 when d <= m//2, else v's bit m-d-1. One bit is read; a d of m
    or more raises ValueError."""
    if d <= m >> 1:
        return bool(lu.table_bit(lu.table, lu.width, lu.end_offset, d - 1))
    return bool(lv.table_bit(lv.table, lv.width, lv.end_offset, m - d - 1))
