"""Directed graphs, condensation, closure, and longest-path layering.

Node sets are always 0..n-1. Adjacency is kept two ways: an edge set of
ordered pairs for small-scale inspection, and per-node bitmask rows (python
ints) for the heavy algorithms. Either representation is derived lazily from
the other, so dense instances never materialize millions of tuples unless
asked to.

``scc_condense`` turns each strongly connected component into one node of
a quotient DAG, on which closure and layering run. The topological order
comes from Tarjan's emission order and is handed on, never recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
            full = (1 << n) - 1
            clean = []
            for u, row in enumerate(rows):
                if row & ~full:
                    raise ValueError(f"row {u} targets nodes outside 0..{n - 1}")
                clean.append(row & ~(1 << u))
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
    """Tarjan SCCs and the quotient DAG. Iterative.

    Tarjan emits a component only after every component it reaches, so the
    reversed emission order is a topological order of the quotient.
    """
    n = g.n
    rows = g.rows
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    emitted = [-1] * n  # node -> component, numbered in emission order
    ncomp = 0
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(_iter_bits(rows[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            u, it = work[-1]
            for v in it:
                if index[v] == -1:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                    work.append((v, iter(_iter_bits(rows[v]))))
                    break
                if on_stack[v]:
                    low[u] = min(low[u], index[v])
            else:  # u is finished
                work.pop()
                if work:
                    pu = work[-1][0]
                    low[pu] = min(low[pu], low[u])
                if low[u] == index[u]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        emitted[w] = ncomp
                        if w == u:
                            break
                    ncomp += 1

    renum: dict[int, int] = {}  # emission number -> id by smallest member
    scc_id = tuple(renum.setdefault(e, len(renum)) for e in emitted)
    out_rows = [0] * ncomp
    for u in range(n):
        cu = scc_id[u]
        for v in _iter_bits(rows[u]):
            if scc_id[v] != cu:
                out_rows[cu] |= 1 << scc_id[v]
    order = [renum[e] for e in range(ncomp - 1, -1, -1)]
    return SccResult(Dag(ncomp, rows=out_rows, validate=False, order=order), scc_id)


def transitive_closure(d: Dag) -> Dag:
    """Closure by reverse-topological bitset accumulation.

    A topological order of a DAG is one of its closure too, so the closure
    inherits it.
    """
    order = d.order
    rows = d.rows
    closed = [0] * d.n
    for u in reversed(order):
        acc = rows[u]
        for v in _iter_bits(rows[u]):
            acc |= closed[v]
        closed[u] = acc & ~(1 << u)
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
    """
    rows = d.rows
    depth = [0] * d.n
    for u in d.order:
        du1 = depth[u] + 1
        for v in _iter_bits(rows[u]):
            if depth[v] < du1:
                depth[v] = du1
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
    the quotient's closure, with each component widened to its members."""
    res = scc_condense(g)
    members = [0] * res.dag.n
    for u, c in enumerate(res.scc_id):
        members[c] |= 1 << u
    reach = []
    for c, row in enumerate(transitive_closure(res.dag).rows):
        acc = members[c]
        for x in _iter_bits(row):
            acc |= members[x]
        reach.append(acc)
    return res.expand(reach)
