"""Directed graphs, condensation, closure, and longest-path layering.

Node sets are always 0..n-1. Adjacency is kept two ways: an edge set of
ordered pairs for small-scale inspection, and per-node bitmask rows (python
ints) for the heavy algorithms. Either representation is derived lazily from
the other, so dense instances never materialize millions of tuples unless
asked to.

``scc_condense`` turns each strongly connected component into one node of
a quotient DAG, on which closure and layering run. The topological order
comes from Tarjan's emission order and is handed on, never recomputed.

The three stages work a machine word at a time on the rows. Tarjan keeps
its visited and on-stack sets as masks and takes each next child as a
lowest bit. Closure and layering take successors lowest bit first and drop
from the to-do mask every node the taken successor already reaches, so
they follow the cover edges (the transitive reduction) instead of every
closure edge.

The encoder moves slices of these rows around as bit matrices: it renumbers
a row's bits (pair-graph rows over the unmatched nodes, interval tables by
topological index) and turns rows into columns (pair tables by column,
biclique flags by node, comparability, and comparability in graph-index
order for the warm-up windows). Two kernels do that a whole row at a time,
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


class Digraph:
    """Simple directed graph. Self-loops are dropped on ingestion."""

    def __init__(self, n: int, edges=None, *, rows: list[int] | None = None):
        if n < 0:
            raise ValueError("n must be non-negative")
        self.n = n
        self._edges: frozenset[tuple[int, int]] | None = None
        self._rows: list[int] | None = None
        self._order: list[int] | None = None
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
            self._rows = clean
        else:
            es = set()
            for u, v in edges or ():
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u},{v}) out of range for n={n}")
                if u != v:
                    es.add((u, v))
            self._edges = frozenset(es)

    @property
    def order(self) -> list[int]:
        """A topological order, computed once; raises ValueError on a cycle."""
        if self._order is None:
            self._order = topological_order(self)
        return self._order

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        if self._edges is None:
            self._edges = frozenset(
                (u, v) for u in range(self.n) for v in _iter_bits(self._rows[u])
            )
        return self._edges

    @property
    def rows(self) -> list[int]:
        if self._rows is None:
            rows = [0] * self.n
            for u, v in self._edges:
                rows[u] |= 1 << v
            self._rows = rows
        return self._rows

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={self.edge_count()})"


class Dag(Digraph):
    """Digraph whose edge relation is acyclic (validated on construction,
    unless the caller passes a known topological ``order``)."""

    def __init__(self, n, edges=None, *, rows=None, validate=True, order=None):
        super().__init__(n, edges, rows=rows)
        self._order = order
        if validate and order is None:
            self._order = topological_order(self)  # raises on a cycle


def topological_order(g: Digraph) -> list[int]:
    """Kahn's algorithm; deterministic (smallest ready node first).

    Raises ValueError if g has a cycle.
    """
    indeg = [0] * g.n
    rows = g.rows
    for u in range(g.n):
        for v in _iter_bits(rows[u]):
            indeg[v] += 1
    import heapq

    ready = [u for u in range(g.n) if indeg[u] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in _iter_bits(rows[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != g.n:
        raise ValueError("graph has a cycle")
    return order


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
        return SccResult(Dag(n, rows=rows, validate=False, order=order), tuple(range(n)))
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
    return SccResult(Dag(ncomp, rows=out_rows, validate=False, order=order), tuple(ids))


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
    return Dag(d.n, rows=closed, validate=False, order=order)


@dataclass(frozen=True)
class LayeredDag:
    """Transitively closed DAG with longest-path layers and a matching
    topological numbering (layer by layer, ascending node id inside one)."""

    dag: Dag
    layers: tuple[tuple[int, ...], ...]
    topo: tuple[int, ...]       # node -> topological index
    inv_topo: tuple[int, ...]   # topological index -> node
    layer_of: tuple[int, ...]   # node -> 0-based layer index


def longest_path_layers(d: Dag) -> LayeredDag:
    """Group nodes by longest path length ending at them.

    Expects a transitively closed input (layer i+1 nodes then all have an
    in-edge from layer i, which the flattening stage relies on).

    Depths are pushed in topological order, successors lowest bit first,
    and each successor taken drops its own row from the to-do mask: a node
    it points to gets a greater depth from it later. The successors taken
    include every cover edge, and longest paths run along cover edges only,
    so the depths are exact on any DAG, closed or not.
    """
    rows = d.rows
    depth = [0] * d.n
    for u in d.order:
        du1 = depth[u] + 1
        todo = rows[u]
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
    the quotient's closure, with each component widened to its members.
    An acyclic graph is its own quotient and needs no widening."""
    res = scc_condense(g)
    closed = transitive_closure(res.dag).rows
    if res.dag.n == g.n:
        return [row | 1 << u for u, row in enumerate(closed)]
    members = [0] * res.dag.n
    for u, c in enumerate(res.scc_id):
        members[c] |= 1 << u
    reach = []
    for c, row in enumerate(closed):
        acc = members[c]
        for x in _iter_bits(row):
            acc |= members[x]
        reach.append(acc)
    return res.expand(reach)
