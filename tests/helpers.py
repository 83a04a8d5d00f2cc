"""Audit helpers shared by the test suites; the package itself never needs them."""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager

from reachlabel import bitio, crosslabel
from reachlabel.biclique import get_profile
from reachlabel.bipartite import BipartiteLabel, pair_window
from reachlabel.bitio import BitString, LabelHeader, count_width, index_width, read_fixed
from reachlabel.cli import GraphFormatError
from reachlabel.flatten import split_rows
from reachlabel.graph import Dag, Digraph, _iter_bits, transitive_closure
from reachlabel.oracle import GenSpec, generate

P_GRID = (0.02, 0.1, 0.5, 0.9)


def mixed_corpus():
    """Thirty graphs exercising every termination and class combination."""
    specs = []
    for i in range(10):
        specs.append(GenSpec("digraph", 20 + 7 * i, P_GRID[i % 4], seed=100 + i))
    for i in range(10):
        specs.append(GenSpec("poset", 15 + 6 * i, 0.2 + 0.07 * i, seed=200 + i))
    for i in range(10):
        specs.append(GenSpec("layered", 18 + 8 * i, 0.3 + 0.06 * i, seed=300 + i))
    return [generate(s) for s in specs]


def corruption_cases():
    """Criterion 10's twenty small graphs, each as (spec, scheme, profile)
    with the scheme and profile that criterion corrupts it under."""
    schemes = ("warmup", "third", "average")
    kinds = ("digraph", "poset", "dag", "layered")
    cases = []
    for t in range(20):
        kind = kinds[t % 4]
        n = 14 + 3 * (t % 5)
        # dense n-node digraphs collapse to one strongly connected component,
        # leaving nothing for a single query to probe; keep those sparse
        p = 2.0 / n if kind == "digraph" else 0.25 + 0.1 * (t % 3)
        cases.append((GenSpec(kind, n, p, seed=900 + t), schemes[t % 3], ("paper", "force")[t % 2]))
    return cases


def ref_generate(spec: GenSpec) -> Digraph:
    """The generator as one ``rng.random()`` call per node pair, in the draw
    order the ``oracle`` docstring fixes; ``generate`` must match it row for
    row (and, for dag and poset, in its order)."""
    rng = random.Random(spec.seed)
    rnd = rng.random
    p = spec.p
    n = spec.n
    rows = [0] * n

    if spec.kind == "digraph":
        for u in range(n):
            for v in range(n):
                if u != v and rnd() < p:
                    rows[u] |= 1 << v
        return Digraph(n, rows=rows)

    if spec.kind in ("dag", "poset"):
        rank = list(range(n))
        rng.shuffle(rank)
        for u in range(n):
            ru = rank[u]
            for v in range(u + 1, n):
                if rnd() < p:
                    if ru < rank[v]:
                        rows[u] |= 1 << v
                    else:
                        rows[v] |= 1 << u
        order = [0] * n  # nodes by rank: every edge ascends it
        for u, r in enumerate(rank):
            order[r] = u
        d = Dag(n, rows=rows, order=order)
        return d if spec.kind == "dag" else transitive_closure(d)

    layer_count = spec.layer_count or max(2, round(n**0.5))
    lay = [rng.randrange(layer_count) for _ in range(n)]
    for u in range(n):
        lu = lay[u]
        for v in range(n):
            if lu < lay[v] and rnd() < p:
                rows[u] |= 1 << v
    return Digraph(n, rows=rows)


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


def label_bit(lab: BipartiteLabel, i: int) -> int:
    """Bit i of an encoder label's table, refusing a probe past its length."""
    if not 0 <= i < lab.table_len:
        raise ValueError(f"table probe {i} out of range {lab.table_len}")
    return lab.table >> i & 1


def probe_pair(la: BipartiteLabel, lb: BipartiteLabel) -> bool:
    """Adjacency probe with la known to be A-side and lb B-side."""
    i = pair_window(la.index, lb.index, (la.a, la.b, la.alpha, la.beta))
    return bool(label_bit(la, i) if i >= 0 else label_bit(lb, ~i))


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


# -- per-edge reference implementations of the graph stages -------------------
# The package computes these word-parallel; the tests require equal output.


def ref_scc_condense(g: Digraph) -> tuple[tuple[int, ...], list[int], list[int]]:
    """Per-edge iterative Tarjan: (scc_id, quotient order, quotient rows),
    components numbered by smallest member, order = reversed emission."""
    n = g.n
    rows = g.rows
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    emitted = [-1] * n
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
            else:
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
    renum: dict[int, int] = {}
    scc_id = tuple(renum.setdefault(e, len(renum)) for e in emitted)
    out_rows = [0] * ncomp
    for u in range(n):
        cu = scc_id[u]
        for v in _iter_bits(rows[u]):
            if scc_id[v] != cu:
                out_rows[cu] |= 1 << scc_id[v]
    order = [renum[e] for e in range(ncomp - 1, -1, -1)]
    return scc_id, order, out_rows


def ref_transitive_closure(d: Dag) -> list[int]:
    """Closure rows: each node ORs in the closure of every successor."""
    rows = d.rows
    closed = [0] * d.n
    for u in reversed(d.order):
        acc = rows[u]
        for v in _iter_bits(rows[u]):
            acc |= closed[v]
        closed[u] = acc & ~(1 << u)
    return closed


def ref_layer_of(d: Dag) -> list[int]:
    """Longest path length ending at each node, pushed along every edge."""
    rows = d.rows
    depth = [0] * d.n
    for u in d.order:
        du1 = depth[u] + 1
        for v in _iter_bits(rows[u]):
            if depth[v] < du1:
                depth[v] = du1
    return depth


# -- per-bit reference implementations of the encoder's bit-matrix steps ------
# The package gathers and transposes whole rows as strings; the tests require
# equal output.


def ref_ranked(mask: int, rank: dict[int, int]) -> int:
    """A node mask renumbered through ``rank`` (node -> bit position)."""
    m = 0
    for v in _iter_bits(mask):
        m |= 1 << rank[v]
    return m


def ref_columns(rows, width: int) -> list[int]:
    """Columns of a bipartite instance's rows, one set bit at a time."""
    cols = [0] * width
    for u, row in enumerate(rows):
        for j in _iter_bits(row):
            cols[j] |= 1 << u
    return cols


def _ref_grow_biclique(adj_a: dict):
    """One balanced biclique over neighbor sets, as (a_side, b_side) sorted id
    tuples: seed with the A node of highest degree, then keep adding the A
    node that keeps the most common neighbors (ties to the lower id) until no
    node or neighbor is left, and take the first largest balanced
    t = min(|side|, |common|) seen, with its t lowest common neighbors."""
    seed = min(adj_a, key=lambda a: (-len(adj_a[a]), a))
    side, common = [seed], set(adj_a[seed])
    best = (1, (seed,), tuple(sorted(common)[:1]))
    while common and len(side) < len(adj_a):
        x = min(
            (a for a in adj_a if a not in side),
            key=lambda a: (-len(common & adj_a[a]), a),
        )
        side.append(x)
        common &= adj_a[x]
        t = min(len(side), len(common))
        if t > best[0]:
            best = (t, tuple(sorted(side[:t])), tuple(sorted(common)[:t]))
    return best[1:]


def ref_find_bicliques(a_nodes, b_nodes, edges, profile, n_ref: int):
    """The stripping loop over (a, b) edge pairs and per-node neighbor sets.
    Returns (bicliques, a_rest, b_rest, rest_edges, termination)."""
    profile = get_profile(profile)
    adj_a = {a: set() for a in a_nodes}
    adj_b = {b: set() for b in b_nodes}
    for a, b in edges:
        adj_a[a].add(b)
        adj_b[b].add(a)
    thr = profile.size_threshold(n_ref)
    bicliques = []
    while True:
        w = len(adj_a) + len(adj_b)
        m = sum(len(nb) for nb in adj_a.values())
        if not w > thr:
            termination = "size"
            break
        if not profile.density_ok(w, m):
            termination = "density"
            break
        a_side, b_side = _ref_grow_biclique(adj_a)
        for a in a_side:
            for b in adj_a.pop(a):
                adj_b[b].discard(a)
        for b in b_side:
            for a in adj_b.pop(b):
                adj_a[a].discard(b)
        bicliques.append((a_side, b_side))
    rest_edges = frozenset((a, b) for a, nb in adj_a.items() for b in nb)
    return tuple(bicliques), tuple(sorted(adj_a)), tuple(sorted(adj_b)), rest_edges, termination


def ref_inner_tables(layered, s, inner_rows) -> list[int]:
    """Each node's interval table, bit j taken from topological index beg+j."""
    inv = layered.inv_topo
    out = []
    for u in range(layered.dag.n):
        info = s.groups[s.group_of[u]]
        t = 0
        if not info.thick:
            row = inner_rows[u]
            for j in range(info.end - info.beg):
                if row >> inv[info.beg + j] & 1:
                    t |= 1 << j
        out.append(t)
    return out


def ref_warmup_labels(layered, sizes) -> list[tuple[int, int, int]]:
    """(n, index, window) per DAG node, each window bit probed on its own."""
    rows = layered.dag.rows
    at = [x for x in layered.inv_topo for _ in range(sizes[x])]
    n = len(at)
    first = {x: i for i, x in reversed(list(enumerate(at)))}
    half = n // 2
    out = []
    for u in range(layered.dag.n):
        iu = first[u]
        t = 0
        for j in range(half):
            x = at[(iu + j + 1) % n]
            if rows[u] >> x & 1 or rows[x] >> u & 1:
                t |= 1 << j
        out.append((n, iu, t))
    return out


# -- per-line and per-bit reference implementations of the graph file IO -----
# The package reads chunks whole and writes rows a byte at a time; the tests
# require equal rows, errors, warnings and bytes.


def ref_read_graph_file(path: str) -> Digraph:
    """Parse "n m" + edge lines into bitmask rows; duplicates warn,
    malformed lines raise."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = ((no, line.strip()) for no, line in enumerate(fh, start=1))
        lines = ((no, line) for no, line in lines if line)
        head_no, head = next(lines, (1, ""))
        if not head:
            raise GraphFormatError("line 1: empty graph file, expected 'n m'")
        parts = head.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {head_no}: expected 'n m', got {head!r}")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {head_no}: expected two integers, got {head!r}"
            )
        if n < 0 or m < 0:
            raise GraphFormatError(f"line {head_no}: n and m must be non-negative")
        rows = [0] * n
        count = 0
        for no, line in lines:
            count += 1
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(f"line {no}: expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(
                    f"line {no}: expected two integers, got {line!r}"
                )
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(
                    f"line {no}: edge ({u},{v}) out of range for n={n}"
                )
            if rows[u] >> v & 1:
                print(
                    f"warning: line {no}: duplicate edge {u} {v} ignored",
                    file=sys.stderr,
                )
                continue
            rows[u] |= 1 << v
    if count != m:
        raise GraphFormatError(
            f"line {head_no}: header promises {m} edges, file has {count}"
        )
    return Digraph(n, rows=rows)


def ref_write_graph_file(path: str, g: Digraph) -> None:
    """The "n m" line, then one "u v" line per edge, rows in order and each
    row's targets ascending; each row goes out as one joined string."""
    names = [str(v) for v in range(g.n)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.edge_count()}\n")
        for u, row in enumerate(g.rows):
            if row:
                head = f"{u} "
                fh.write(head + f"\n{head}".join([names[v] for v in _iter_bits(row)]) + "\n")


def blob_fields(bits: BitString) -> tuple[int, int, int, int]:
    """(bit offset of the pair schedule, entry width, iteration count m,
    upper iteration count u) of a composite label's blob; u biclique counts
    follow the m schedule entries. The node's entry group is its intra
    group (the field after topo) plus one."""
    hdr = LabelHeader.read(bits)
    intra, blob = hdr.offsets
    kf, iw = count_width(hdr.n), index_width(hdr.n)
    entry = read_fixed(bits, intra + iw, iw) + 1
    k = read_fixed(bits, blob, kf)
    cw = count_width(k)
    m = min(read_fixed(bits, blob + kf, cw), k - 1)
    return blob + kf + cw, kf, m, max(0, min(entry - 2, m))


# Every memoized function of the modules that lay a label out, found rather
# than listed, so that a cache added to either module is emptied too.
DECODER_CACHES = tuple(dict.fromkeys(
    f for mod in (crosslabel, bitio) for f in vars(mod).values() if hasattr(f, "cache_clear")
))


@contextmanager
def cold_caches():
    """Run the body with the decoder's caches empty, and empty them again
    on the way out: a verdict reached inside depends on the label alone,
    not on what labels parsed before it left in a cache."""
    for cache in DECODER_CACHES:
        cache.cache_clear()
    try:
        yield
    finally:
        for cache in DECODER_CACHES:
            cache.cache_clear()
