"""Super-layer grouping and the intra-group half of the composite labels.

Longest-path layers are merged into at most 3*gamma + 1 groups, with
gamma = max(1, ceil(log2 n)):

  type 1  a single thick layer (more than n/gamma nodes),
  type 2  a maximal run of thin layers whose total just exceeded n/gamma
          (so the total is in (n/gamma, 2n/gamma]),
  type 3  a thin run of at most n/gamma nodes, closed by a thick layer
          or by the end of the layer list.

Each group covers a contiguous interval [beg, end) of topological indices.
Edges inside a thin group of m = end - beg members are answered by a
half-window per node, as the warm-up does over all n (``warmup``): the
member at position i of the group stores floor(m/2) bits, bit j saying
whether it is comparable with the member at position (i+j+1) mod m. Any
two members fall in one of their two windows, and topological order turns
comparability into reachability. The encoder gathers each member's
closure row over the group's interval in place, and ORs it with its
column (one ``transpose`` per thin group) to get comparability. All
remaining closure edges cross between groups and are handled by the
iterative peeling stage, which masks each row's own group out itself.
Thick groups store no table: a thick group is one antichain layer, so it
has no internal edges.
``decode_inner`` answers from two label views (``scheme.LabelView``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitio import BitWriter, count_width, index_width
from .graph import LayeredDag, cyclic_window, gatherer, transpose
from .warmup import probe_window


def gamma_of(n: int) -> int:
    return max(1, (max(n, 1) - 1).bit_length())


@dataclass(frozen=True)
class Group:
    first_layer: int   # 0-based, inclusive
    last_layer: int    # 0-based, inclusive
    gtype: int         # 1, 2 or 3
    beg: int           # topological interval [beg, end)
    end: int
    thick: bool


@dataclass(frozen=True)
class SuperLayering:
    gamma: int
    groups: tuple[Group, ...]
    group_of: tuple[int, ...]  # node -> group index

    @property
    def count(self) -> int:
        return len(self.groups)


def build_superlayers(layered: LayeredDag, gamma: int | None = None) -> SuperLayering:
    n = layered.dag.n
    g = gamma_of(n) if gamma is None else gamma
    if g < 1:
        raise ValueError("gamma must be at least 1")
    sizes = [len(l) for l in layered.layers]

    groups: list[tuple[int, int, int]] = []  # (first, last, type)
    run_start = None
    run_size = 0
    for i, size in enumerate(sizes):
        if size * g > n:  # thick layer
            if run_start is not None:
                groups.append((run_start, i - 1, 3))
                run_start, run_size = None, 0
            groups.append((i, i, 1))
        else:
            if run_start is None:
                run_start, run_size = i, 0
            run_size += size
            if run_size * g > n:
                groups.append((run_start, i, 2))
                run_start, run_size = None, 0
    if run_start is not None:
        groups.append((run_start, len(sizes) - 1, 3))

    out = []
    pos = 0
    group_of = [0] * n
    for first, last, gtype in groups:
        width = sum(sizes[first : last + 1])
        beg, end = pos, pos + width
        pos = end
        for li in range(first, last + 1):
            for u in layered.layers[li]:
                group_of[u] = len(out)
        out.append(Group(first, last, gtype, beg, end, gtype == 1))
    assert pos == n
    return SuperLayering(g, tuple(out), tuple(group_of))


@dataclass(frozen=True)
class GroupLabel:
    """Per-node intra-group part: placement plus the half-window table."""

    topo: int
    grp: int
    beg: int
    end: int
    thick: bool
    table: int  # (end-beg)//2 bits when not thick; bit j covers position (i+j+1) mod (end-beg)


def write_inner(w: BitWriter, gl: GroupLabel, n: int) -> None:
    """The intra section: topo[iw] grp[iw] beg[iw] end[cw] thick[1], then
    the (end-beg)//2-bit window (thin groups only), with iw = index_width(n)
    and cw = count_width(n)."""
    iw = index_width(n)
    w.write(gl.topo, iw)
    w.write(gl.grp, iw)
    w.write(gl.beg, iw)
    w.write(gl.end, count_width(n))
    w.write(1 if gl.thick else 0, 1)
    if not gl.thick:
        w.write(gl.table, gl.end - gl.beg >> 1)


def encode_inner(layered: LayeredDag, s: SuperLayering) -> list[GroupLabel]:
    """One label per node. A thin group's members' closure rows, gathered
    over the group's interval in topological order, are its reach matrix;
    each member's row ORed with its column is its comparability row, and
    its window is that row's next floor(m/2) positions, cyclically."""
    n = layered.dag.n
    rows = layered.dag.rows
    inv = layered.inv_topo
    topo = layered.topo
    out: list[GroupLabel | None] = [None] * n
    for grp, info in enumerate(s.groups):
        members = inv[info.beg : info.end]
        m = len(members)
        if info.thick:
            tables = [0] * m
        else:
            gather = gatherer(members, n)
            reach = [gather(rows[u]) for u in members]
            tables = [cyclic_window(row | col, i + 1, m >> 1, m)
                      for i, (row, col) in enumerate(zip(reach, transpose(reach, m)))]
        for u, t in zip(members, tables):
            out[u] = GroupLabel(topo[u], grp, info.beg, info.end, info.thick, t)
    return out


def decode_inner(lu, lv) -> bool:
    """Within-group edge membership, from two label views' intra fields
    (``place`` holds grp beg end thick as one int). Labels of one encoding
    agree on a group's interval, and a later group begins where an earlier
    one ends or after; a pair that breaks either raises ValueError. In one
    thin group, u after v answers False unread, and u before v by d reads
    one window bit (``warmup.probe_window``)."""
    if lu.beg >= lv.end and lu.grp > lv.grp or lv.beg >= lu.end and lu.grp < lv.grp:
        return False
    if lu.place == lv.place:  # one group, as both labels place it
        d = lv.topo - lu.topo
        return d > 0 and not lu.thick and probe_window(lu, lv, d, lu.end - lu.beg)
    raise ValueError("labels disagree on their groups")
