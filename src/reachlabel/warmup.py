"""Half-window reachability labels for transitively closed DAGs.

Label = topological index I(u) plus a floor(n/2)-bit window B_u, where
B_u[j] says whether u is comparable with the node at topological index
(I(u)+j+1) mod n. Any two nodes land in at least one of their two windows,
and comparability plus topological order decides reachability.

A DAG node standing for the k members of a strongly connected component
takes k consecutive indices and its label carries the first, so n counts
graph nodes and queries land on first indices only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitio import TableView
from .graph import LayeredDag


@dataclass(frozen=True)
class WarmupLabel:
    n: int
    index: int
    table: int  # floor(n/2) bits; bit j is (table >> j) & 1

    @property
    def table_len(self) -> int:
        return self.n // 2


class WindowView(TableView):
    """Decode view of a warm-up label's index and window; the window is a
    TableView."""

    __slots__ = ("n", "index")

    def __init__(self, read, n: int, index: int, offset: int):
        super().__init__(read, offset, n // 2)
        self.n = n
        self.index = index


def encode_warmup(layered: LayeredDag, sizes) -> list[WarmupLabel]:
    """One label per DAG node; expects a transitively closed, layered DAG
    whose node x stands for ``sizes[x]`` graph nodes."""
    rows = layered.dag.rows
    # graph-node index -> DAG node, DAG nodes in topological order
    at = [x for x in layered.inv_topo for _ in range(sizes[x])]
    n = len(at)
    first = {x: i for i, x in reversed(list(enumerate(at)))}
    half = n // 2
    labels = []
    for u in range(layered.dag.n):
        iu = first[u]
        t = 0
        for j in range(half):
            x = at[(iu + j + 1) % n]
            if rows[u] >> x & 1 or rows[x] >> u & 1:
                t |= 1 << j
        labels.append(WarmupLabel(n, iu, t))
    return labels


def decode_warmup(lu, lv) -> bool:
    """Reachability u -> v from two window views."""
    n = lu.n
    if n != lv.n:
        raise ValueError("labels come from different encodings")
    iu, iv = lu.index, lv.index
    if iu == iv:
        return True
    if iu > iv:
        return False
    d = iv - iu
    if d <= n // 2:
        return bool(lu.bit(d - 1))
    return bool(lv.bit(n + iu - iv - 1))
