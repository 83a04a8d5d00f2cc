"""Super-layer grouping and the intra-group half of the composite labels.

Longest-path layers are merged into at most 3*gamma + 1 groups, with
gamma = max(1, ceil(log2 n)):

  type 1  a single thick layer (more than n/gamma nodes),
  type 2  a maximal run of thin layers whose total just exceeded n/gamma
          (so the total is in (n/gamma, 2n/gamma]),
  type 3  a thin run of at most n/gamma nodes, closed by a thick layer
          or by the end of the layer list.

Each group covers a contiguous interval [beg, end) of topological indices.
Edges inside one group are answered by a per-node bit table over the
group's interval; all remaining closure edges cross between groups and are
handled by the iterative peeling stage. Thick groups store no table: a
thick group is one antichain layer, so it has no internal edges.
``decode_inner`` answers from two label views (``scheme.LabelView``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitio import BitWriter, count_width, index_width
from .graph import LayeredDag, gatherer


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


def split_rows(layered: LayeredDag, s: SuperLayering) -> tuple[list[int], list[int]]:
    """Closure edges as (within-group rows, cross-group rows)."""
    n = layered.dag.n
    rows = layered.dag.rows
    inv = layered.inv_topo
    gmask = []
    for grp in s.groups:
        m = 0
        for t in range(grp.beg, grp.end):
            m |= 1 << inv[t]
        gmask.append(m)
    inner = [0] * n
    cross = [0] * n
    for u in range(n):
        inside = rows[u] & gmask[s.group_of[u]]
        inner[u] = inside
        cross[u] = rows[u] & ~inside
    return inner, cross


@dataclass(frozen=True)
class GroupLabel:
    """Per-node intra-group part: placement plus the interval table."""

    topo: int
    grp: int
    beg: int
    end: int
    thick: bool
    table: int  # (end-beg) bits when not thick; bit j covers topo index beg+j


def write_inner(w: BitWriter, gl: GroupLabel, n: int) -> None:
    """The intra section: topo[iw] grp[iw] beg[iw] end[cw] thick[1], then
    the table (thin groups only), with iw = index_width(n) and
    cw = count_width(n)."""
    iw = index_width(n)
    w.write(gl.topo, iw)
    w.write(gl.grp, iw)
    w.write(gl.beg, iw)
    w.write(gl.end, count_width(n))
    w.write(1 if gl.thick else 0, 1)
    if not gl.thick:
        w.write(gl.table, gl.end - gl.beg)


def encode_inner(layered: LayeredDag, s: SuperLayering, inner_rows: list[int]) -> list[GroupLabel]:
    """One label per node; a thin group's tables are its members' rows
    gathered over the group's interval, in topological order."""
    n = layered.dag.n
    inv = layered.inv_topo
    topo = layered.topo
    out: list[GroupLabel | None] = [None] * n
    for grp, info in enumerate(s.groups):
        members = inv[info.beg : info.end]
        table = None if info.thick else gatherer(members, n)
        for u in members:
            t = table(inner_rows[u]) if table else 0
            out[u] = GroupLabel(topo[u], grp, info.beg, info.end, info.thick, t)
    return out


def decode_inner(lu, lv) -> bool:
    """Within-group edge membership, from two label views' intra fields
    (``place`` holds grp beg end thick as one int). Labels of one encoding
    agree on a group's interval, and a later group begins where an earlier
    one ends or after; a pair that breaks either raises ValueError."""
    if lu.beg >= lv.end and lu.grp > lv.grp or lv.beg >= lu.end and lu.grp < lv.grp:
        return False
    if lu.place == lv.place:  # one group, as both labels place it
        return not lu.thick and bool(
            lu.table_bit(lu.table, lu.width, lu.end_offset, lv.topo - lu.beg))
    raise ValueError("labels disagree on their groups")
