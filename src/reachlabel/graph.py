"""Directed graphs, condensation, closure, and longest-path layering.

Node sets are always 0..n-1. A graph keeps its edges one way only, as
per-node bitmask rows (python ints): bit v of row u is set iff u -> v, so a
dense graph costs about n²/8 bytes. ``EdgeView`` shows such rows as a
read-only set of (u, v) pairs for inspection and audits. It yields the pairs
lazily, counts them by popcount and tests one with a bit test, so no set of
edge tuples is ever built or kept.

``scc_condense`` turns each strongly connected component into one node of
a quotient DAG, on which closure and layering run. Every order this module
computes is Tarjan's emission order: ``topological_order`` is the
condensation's, and a ``Dag`` built without one takes it from there. The
condensation hands its order on to closure and layering, never recomputed.

The three stages work a machine word at a time on the rows. Tarjan keeps
its visited and on-stack sets as masks and takes each next child as a
lowest bit. Closure and layering both take their successors from the
condensation's own rows, lowest bit first, and drop from the to-do mask
every node the taken successor already reaches (its closed row). The
successors taken include every cover edge (the transitive reduction) and
skip whatever an earlier-taken successor reaches; how many other edges
they take depends on how the ids fall, not on the closure's edge count.

The encoder moves slices of these rows around as bit matrices: it renumbers
a row's bits (pair-graph rows over the unmatched nodes, a group's reach
matrix by topological index) and turns rows into columns (pair tables by
column, biclique flags by node, comparability within a group for the
intra windows, and comparability in graph-index order for the warm-up
windows). Two kernels do that a whole row at a time,
with no Python step per bit. ``gatherer`` writes a row as its binary string
(``format``), picks the wanted characters with one precomputed
``operator.itemgetter`` and reads them back with ``int(..., 2)``.
``transpose`` writes all rows as one binary string, a grid, and reads each
column back as one slice of it with a step of one row. Each step runs in C,
so a row costs about its width in bytes moved rather than one interpreter
step per set bit; the grid is the largest thing held, one byte per matrix
bit.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from operator import itemgetter


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(nodes) -> int:
    m = 0
    for u in nodes:
        m |= 1 << u
    return m


_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")


def bytes_mask(flags) -> int:
    """The int whose bit i is ``flags[i]``, for a run of 0/1 bytes (0 for
    an empty run): one reversal, one translate to ASCII digits and one
    base-2 parse, all in C."""
    return int(flags[::-1].translate(_BIT_CHARS) or b"0", 2)


def gatherer(positions, width: int):
    """The map from a ``width``-bit mask to the int whose bit r is bit
    ``positions[r]`` of the mask. Positions may repeat; a mask with a bit at
    or above ``width`` raises ValueError."""
    positions = list(positions)
    if any(not 0 <= p < width for p in positions):
        raise ValueError(f"gather position outside 0..{width - 1}")
    fmt = f"0{width}b"
    # character width-1-p of the string is bit p; the last character picked
    # becomes bit 0 of the result
    idx = [width - 1 - p for p in reversed(positions)]
    pick = itemgetter(*idx) if idx else lambda s: "0"

    def gather(mask: int) -> int:
        if mask >> width:
            raise ValueError(f"mask has bits at or above width {width}")
        return int("".join(pick(format(mask, fmt))), 2)

    return gather


def transpose(rows, width: int) -> list[int]:
    """Columns of a bit matrix: column j has bit i set iff ``rows[i]`` has
    bit j set, for j < ``width``. A row with a bit at or above ``width``
    raises ValueError."""
    if any(r >> width for r in rows):
        raise ValueError(f"row has bits at or above width {width}")
    if not width:
        return []
    if not rows:
        return [0] * width
    # One int holds the rows, last first, each padded to whole bytes, under a
    # leading 1 that keeps the leading zeros; its binary string is the grid,
    # built without a string per row. Bit j of a row is character step-1-j
    # of its stretch, and column j is the slice with step ``step`` from there.
    nbytes = -(-width // 8)
    step = 8 * nbytes
    packed = b"\1" + b"".join([r.to_bytes(nbytes, "big") for r in reversed(rows)])
    grid = bin(int.from_bytes(packed, "big"))  # "0b1", then the rows
    return [int(grid[2 + step - j :: step], 2) for j in range(width)]


def cyclic_window(mask: int, start: int, width: int, size: int) -> int:
    """Bits start, start+1, ... (mod size) of a size-bit mask, as bits 0, 1, ...;
    at most ``size`` of them."""
    r = start % size
    return (mask >> r | mask << (size - r)) & (1 << min(width, size)) - 1


class EdgeView(Set):
    """The edges of node -> mask rows as a read-only set of (u, v) pairs.

    ``rows`` is a list indexed by node or a dict keyed by node. Iteration
    goes row by row, targets ascending; ``len`` is a popcount sum and ``in``
    one bit test (False for anything but an in-range pair of ints). Two views
    compare by their non-empty rows, any other set as ``abc.Set`` does, and
    the hash is that of a frozen built-in set of the same pairs. The view
    reads the rows live."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        self._rows = rows

    def _items(self):
        rows = self._rows
        return rows.items() if isinstance(rows, dict) else enumerate(rows)

    def __iter__(self):
        for u, row in self._items():
            for v in _iter_bits(row):
                yield u, v

    def __len__(self) -> int:
        return sum(row.bit_count() for _, row in self._items())

    def __contains__(self, pair) -> bool:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        u, v = pair
        if not (isinstance(u, int) and isinstance(v, int) and v >= 0):
            return False
        rows = self._rows
        if isinstance(rows, dict):
            row = rows.get(u, 0)
        else:
            row = rows[u] if 0 <= u < len(rows) else 0
        return bool(row >> v & 1)

    def __eq__(self, other):
        if isinstance(other, EdgeView):
            return {u: r for u, r in self._items() if r} == {
                u: r for u, r in other._items() if r
            }
        return Set.__eq__(self, other)

    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, it):
        return set(it)  # what |, & and - give back


class Digraph:
    """Simple directed graph on nodes 0..n-1, stored as bitmask ``rows``.

    Pass either ``edges``, an iterable of (u, v) pairs, or ``rows``, one mask
    per node; both are range-checked and self-loops are dropped. ``edges``
    reads the rows back as an ``EdgeView``."""

    def __init__(self, n: int, edges=None, *, rows: list[int] | None = None):
        if n < 0:
            raise ValueError("n must be non-negative")
        self.n = n
        if rows is not None:
            if edges is not None:
                raise ValueError("pass edges or rows, not both")
            if len(rows) != n:
                raise ValueError("rows length must equal n")
            clean = []
            for u, row in enumerate(rows):
                if row >> n:
                    raise ValueError(f"row {u} targets nodes outside 0..{n - 1}")
                clean.append(row ^ 1 << u if row >> u & 1 else row)
        else:
            clean = [0] * n
            for u, v in edges or ():
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u},{v}) out of range for n={n}")
                if u != v:
                    clean[u] |= 1 << v
        self.rows = clean

    @property
    def edges(self) -> EdgeView:
        return EdgeView(self.rows)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={self.edge_count()})"


class Dag(Digraph):
    """Digraph whose edge relation is acyclic, with a topological ``order``.

    A caller's ``order`` is taken as known; without one the order is the
    condensation's, and a cycle raises ValueError."""

    def __init__(self, n, edges=None, *, rows=None, order=None):
        super().__init__(n, edges, rows=rows)
        self.order = topological_order(self) if order is None else order


def topological_order(g: Digraph) -> list[int]:
    """The condensation's order: Tarjan's reversed emission order, which on
    an acyclic graph lists its nodes. Raises ValueError if g has a cycle."""
    res = scc_condense(g)
    if res.dag.n != g.n:
        raise ValueError("graph has a cycle")
    return res.dag.order


@dataclass(frozen=True)
class SccResult:
    """The condensation: one DAG node per strongly connected component.

    ``scc_id[u]`` is the component of graph node u. Components are numbered
    in order of their smallest member, so an acyclic graph condenses to
    itself with ``scc_id[u] == u``. ``dag`` has an edge between two
    components iff the graph has an edge between their members; a graph
    node reaches another iff its component is the other's or reaches it.
    """

    dag: Dag
    scc_id: tuple[int, ...]

    def expand(self, per_component) -> list:
        """Per-node list from a per-component one: node u gets entry scc_id[u]."""
        return [per_component[c] for c in self.scc_id]

    @property
    def leaders(self) -> list[int]:
        """The smallest member of each component, by component id."""
        lead: list[int] = []
        for u, c in enumerate(self.scc_id):
            if c == len(lead):
                lead.append(u)
        return lead


def scc_condense(g: Digraph) -> SccResult:
    """Tarjan SCCs and the quotient DAG, iterative and over bitmasks.

    ``visited`` and ``onstack`` are node masks. The next child of u is the
    lowest bit of ``rows[u] & ~visited``, so the search takes children in
    ascending id, one step per tree edge. A finished u lowers its low-link
    over ``rows[u] & onstack`` only; on a DAG that mask is always empty.
    Tarjan emits a component only after every component it reaches, so the
    reversed emission order is a topological order of the quotient.

    With one component per node the graph is acyclic and numbered as its own
    quotient, whose rows are the input's. Otherwise each component ORs its
    members' rows, and each target component found drops its whole member
    mask from that union, so a quotient edge costs one step, however many
    graph edges it stands for.
    """
    n = g.n
    rows = g.rows
    index = [0] * n
    low = [0] * n
    visited = onstack = 0
    stack: list[int] = []
    emitted: list[int] = []  # member mask of each component, in emission order
    counter = 0

    for root in range(n):
        if visited >> root & 1:
            continue
        index[root] = low[root] = counter
        counter += 1
        visited |= 1 << root
        onstack |= 1 << root
        stack.append(root)
        path = [root]
        while path:
            u = path[-1]
            fresh = rows[u] & ~visited
            if fresh:
                bit = fresh & -fresh
                v = bit.bit_length() - 1
                index[v] = low[v] = counter
                counter += 1
                visited |= bit
                onstack |= bit
                stack.append(v)
                path.append(v)
                continue
            path.pop()
            lu = low[u]
            for v in _iter_bits(rows[u] & onstack):
                if index[v] < lu:
                    lu = index[v]
            low[u] = lu
            if path and lu < low[path[-1]]:
                low[path[-1]] = lu
            if lu == index[u]:
                comp = 0
                while True:
                    w = stack.pop()
                    comp |= 1 << w
                    if w == u:
                        break
                onstack &= ~comp
                emitted.append(comp)

    ncomp = len(emitted)
    if ncomp == n:
        order = [m.bit_length() - 1 for m in reversed(emitted)]
        return SccResult(Dag(n, rows=rows, order=order), tuple(range(n)))
    members = sorted(emitted, key=lambda m: m & -m)  # by smallest member
    ids = [0] * n
    for c, m in enumerate(members):
        for u in _iter_bits(m):
            ids[u] = c
    out_rows = []
    for m in members:
        acc = 0
        for u in _iter_bits(m):
            acc |= rows[u]
        acc &= ~m
        row = 0
        while acc:
            c = ids[(acc & -acc).bit_length() - 1]
            row |= 1 << c
            acc &= ~members[c]
        out_rows.append(row)
    order = [ids[m.bit_length() - 1] for m in reversed(emitted)]
    return SccResult(Dag(ncomp, rows=out_rows, order=order), tuple(ids))


def transitive_closure(d: Dag) -> Dag:
    """Closure by reverse-topological bitset accumulation.

    Successors are taken lowest bit first, and each one taken drops its own
    closure from the to-do mask: a successor it reaches adds nothing new.
    The successors taken include every cover edge (Aho, Garey and Ullman,
    SIAM J. Comput. 1972), so the work follows the transitive reduction
    rather than the closure. A topological order of a DAG is one of its
    closure too, so the closure inherits it.
    """
    order = d.order
    rows = d.rows
    closed = [0] * d.n
    for u in reversed(order):
        acc = todo = rows[u]
        while todo:
            bit = todo & -todo
            cv = closed[bit.bit_length() - 1]
            acc |= cv
            todo &= ~(cv | bit)
        closed[u] = acc
    return Dag(d.n, rows=closed, order=order)


@dataclass(frozen=True)
class LayeredDag:
    """Transitively closed DAG with longest-path layers and a matching
    topological numbering (layer by layer, ascending node id inside one)."""

    dag: Dag
    layers: tuple[tuple[int, ...], ...]
    topo: tuple[int, ...]       # node -> topological index
    inv_topo: tuple[int, ...]   # topological index -> node
    layer_of: tuple[int, ...]   # node -> 0-based layer index


def longest_path_layers(d: Dag, succ: list[int] | None = None) -> LayeredDag:
    """Group nodes by longest path length ending at them.

    Expects a transitively closed input (layer i+1 nodes then all have an
    in-edge from layer i, which the flattening stage relies on).

    Depths are pushed in topological order. A node's successors come from
    ``succ``, the rows of any DAG whose closure is ``d``'s (``d.rows`` when
    omitted), lowest bit first, and each successor taken drops its row of
    ``d`` from the to-do mask: a node it reaches gets a greater depth from
    it later. The successors taken include every cover edge, and longest
    paths run along cover edges only, so the depths are exact on any DAG,
    closed or not. The condensation's own rows make far fewer steps than
    its closure's when node ids are not in topological order, since a
    successor of lower id then seldom prunes those above it.
    """
    rows = d.rows
    succ = rows if succ is None else succ
    depth = [0] * d.n
    for u in d.order:
        du1 = depth[u] + 1
        todo = succ[u]
        while todo:
            bit = todo & -todo
            v = bit.bit_length() - 1
            if depth[v] < du1:
                depth[v] = du1
            todo &= ~(rows[v] | bit)
    nlayers = max(depth, default=-1) + 1
    layers: list[list[int]] = [[] for _ in range(nlayers)]
    for u in range(d.n):
        layers[depth[u]].append(u)
    topo = [0] * d.n
    inv = []
    for layer in layers:
        layer.sort()
        for u in layer:
            topo[u] = len(inv)
            inv.append(u)
    return LayeredDag(
        dag=d,
        layers=tuple(tuple(l) for l in layers),
        topo=tuple(topo),
        inv_topo=tuple(inv),
        layer_of=tuple(depth),
    )


def oracle_reach(g: Digraph, u: int, v: int) -> bool:
    """BFS ground truth for u -> v (true when u == v)."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("node out of range")
    if u == v:
        return True
    rows = g.rows
    seen = 1 << u
    frontier = rows[u]
    target = 1 << v
    while frontier:
        if frontier & target:
            return True
        seen |= frontier
        nxt = 0
        for w in _iter_bits(frontier):
            nxt |= rows[w]
        frontier = nxt & ~seen
    return False


def reach_rows(g: Digraph) -> list[int]:
    """All-pairs reachability bitmask rows (diagonal set), cycles allowed:
    one level-synchronous BFS per source over the adjacency rows. It is the
    truth the encoder is checked against, so it runs none of its stages."""
    rows = g.rows
    reach = []
    for u in range(g.n):
        seen = frontier = 1 << u
        while frontier:
            nxt = 0
            for w in _iter_bits(frontier):
                nxt |= rows[w]
            frontier = nxt & ~seen
            seen |= frontier
        reach.append(seen)
    return reach
