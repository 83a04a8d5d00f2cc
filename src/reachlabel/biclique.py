"""Balanced biclique stripping for one layer pair of the flat DAG.

Repeatedly extracts a balanced biclique K_{t,t} from the bipartite graph
between two consecutive layers while the graph is both large (w = |A|+|B|
above the size threshold) and dense (|E| above w^2/log2^6 w), removing the
biclique's nodes with all their incident edges. What survives is the rest
graph; its neighborhoods get stored verbatim (or restricted to high-degree
nodes after a density stop) so the per-node leftovers stay small.

The search runs in rank space: A rank i is the i-th smallest A node id, B
rank j the j-th smallest B node id. Each live A node holds a mask over B
ranks and each live B node a mask over A ranks, so a common neighborhood is
one AND and "the t smallest common neighbors" are its t lowest set bits.
An extraction clears the removed nodes' bits only from the rows and columns
they touched. The degrees of the A ranks are kept as bit-sliced counters
(below), and the grower's seed is read from them, not from a pass over
every row. The rest graph comes back as masks over node ids, one per
unmatched node of either side (``BicliqueDecomposition.rest``).

Each extraction is grown greedily, as Mubayi and Turan ("Finding bipartite
subgraphs efficiently", IPL 2010) do: seed with the live A rank of highest
degree, then add the A rank that keeps the most common neighbors, ties to
the lower rank, while it keeps more than the side has nodes. Each addition
raises the balanced size t = min(|side|, |common|) by one, so the grower
stops at the largest t it can reach and extracts K_{t,t} with the t lowest
common neighbors; with an edge present t >= 1, so the loop advances. The
count of common neighbors of every A rank is bit-sliced: plane i holds bit
i of all counts, so adding or dropping one B column is a ripple over about
log2 |common| planes, and the argmax is read from the planes top-down,
keeping the candidates in a plane whenever any are; the lowest bit left is
the lower-rank tie-break. A growth step thus costs O(log |common|) big-int
operations, not one AND and popcount per candidate. Dense bipartite graphs
hold large balanced bicliques (Kovari, Sos and Turan, 1954), but the greedy
does not reproduce that guarantee; label correctness never depends on
which bicliques are found.

Profiles: "paper" keeps the real thresholds: it strips while w is above
max(c_min = 64, n_ref^(3/4)), 178 at n_ref = 1000, and the density bound
holds, and leaves the edges among the nodes that remain to the rest graph.
That extracts plenty at desk scale: at n = 1000 (generator seed 100), a DAG
with edge probability 0.01 strips 412 pairs in 122 bicliques over its 8
iterations, the largest K_{12,12}, and a digraph with 0.002 strips 167
pairs in 68, one of them K_{96,96}. "force" (c_min = 2, density condition
reduced to |E| >= 1) strips until no edge or at most two live nodes remain,
so a rest graph holds at most one edge and pair tables answer nearly every
cross edge. The tests run both; the dense-poset benchmark workload and the
demos run "force".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from .graph import EdgeView, _iter_bits, _mask_of, gatherer, transpose


@dataclass(frozen=True)
class BicliqueProfile:
    name: str
    c_min: int
    use_size_power: bool
    force_density: bool

    def size_threshold(self, n_ref: int) -> float:
        if self.use_size_power:
            return max(self.c_min, n_ref**0.75)
        return float(self.c_min)

    def density_ok(self, w: int, m: int) -> bool:
        if self.force_density:
            return m >= 1
        if w < 2:
            return False
        return m > w * w / math.log2(w) ** 6


PAPER_PROFILE = BicliqueProfile("paper", 64, True, False)
FORCE_PROFILE = BicliqueProfile("force", 2, False, True)
_PROFILES = {p.name: p for p in (PAPER_PROFILE, FORCE_PROFILE)}
PROFILES = tuple(_PROFILES)  # the names get_profile accepts, as the CLI offers them


def get_profile(name) -> BicliqueProfile:
    if isinstance(name, BicliqueProfile):
        return name
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown biclique profile {name!r}") from None


@dataclass(frozen=True)
class BicliqueDecomposition:
    bicliques: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    a_rest: tuple[int, ...]
    b_rest: tuple[int, ...]
    rest: dict[int, int]  # unmatched node of either side -> rest neighbors by id
    termination: str  # "size" or "density"
    n_ref: int
    profile: BicliqueProfile

    @property
    def rest_edges(self) -> EdgeView:
        """The rest graph as a view of (a, b) pairs over the A side's ``rest``
        rows. The encoder never reads it; it exists for audits and for the
        benchmark tracer's rest-edge count, a popcount."""
        return EdgeView({a: self.rest[a] for a in self.a_rest})


def _plane_add(planes: list, col: int) -> None:
    """Add 1 to the counter of every rank in ``col``. ``planes[i]`` holds bit
    i of all counters, one bit per rank; the carry ripples up the planes."""
    for i, p in enumerate(planes):
        planes[i] = p ^ col
        col &= p
        if not col:
            return
    planes.append(col)


def _plane_sub(planes: list, col: int) -> None:
    """Subtract 1 from the counter of every rank in ``col``; each of those
    counters must be positive."""
    for i, p in enumerate(planes):
        planes[i] = p ^ col
        col &= ~p
        if not col:
            return


def _plane_argmax(planes: list, cand: int) -> tuple[int, int]:
    """(rank, count): the lowest rank in ``cand`` of the highest count, read
    from the planes top-down; a count of 0 means no rank in ``cand`` counts."""
    count = 0
    for i in range(len(planes) - 1, -1, -1):
        hit = cand & planes[i]
        if hit:
            cand, count = hit, count | 1 << i
    return (cand & -cand).bit_length() - 1, count


def grow_biclique(arows: dict, bcols: dict, seed: int):
    """One balanced biclique as (a_side, b_side) sorted rank tuples, grown
    from A rank ``seed`` as the module docstring describes. ``arows`` maps
    each live A rank to its mask over B ranks and ``bcols`` each live B rank
    to its mask over A ranks; the seed must have a neighbor."""
    side, t, common = 1 << seed, 1, arows[seed]
    planes: list[int] = []  # per-A-rank count of common neighbors, bit-sliced
    for b in _iter_bits(common):
        _plane_add(planes, bcols[b])
    while True:
        x, count = _plane_argmax(planes, ~side)
        if count <= t:
            break
        row = arows[x]
        side |= 1 << x
        t += 1
        for b in _iter_bits(common & ~row):
            _plane_sub(planes, bcols[b])
        common &= row
    return tuple(_iter_bits(side)), tuple(islice(_iter_bits(common), t))


def _remove(rows: dict, cols: dict, nodes) -> None:
    """Drop ``nodes`` from one side: pop their rows and clear their bits from
    the other side's rows that they touched."""
    gone = hit = 0
    for x in nodes:
        hit |= rows.pop(x)
        gone |= 1 << x
    keep = ~gone
    for y in _iter_bits(hit):
        cols[y] &= keep


def find_bicliques(a_nodes, b_nodes, rows, profile, n_ref: int) -> BicliqueDecomposition:
    """Run the stripping loop on the bipartite graph between ``a_nodes`` and
    ``b_nodes``, where ``rows[i]`` is the mask of ``a_nodes[i]``'s neighbors
    by node id."""
    profile = get_profile(profile)
    a_ids, rows = tuple(zip(*sorted(zip(a_nodes, rows, strict=True)))) or ((), ())
    b_ids = sorted(b_nodes)
    b_all = _mask_of(b_ids)
    if any(row & ~b_all for row in rows):
        raise ValueError("a row has a neighbor outside the B side")
    gather = gatherer(b_ids, b_all.bit_length())
    arows = dict(enumerate(map(gather, rows)))
    bcols = dict(enumerate(transpose(list(arows.values()), len(b_ids))))
    adeg: list[int] = []  # the degree of every A rank, bit-sliced
    for col in bcols.values():
        _plane_add(adeg, col)

    thr = profile.size_threshold(n_ref)
    bicliques = []
    while True:
        w = len(arows) + len(bcols)
        if not w > thr:
            termination = "size"
            break
        m = sum(p.bit_count() << i for i, p in enumerate(adeg))  # the edges
        if not profile.density_ok(w, m):
            termination = "density"
            break
        a_side, b_side = grow_biclique(arows, bcols, _plane_argmax(adeg, -1)[0])
        _remove(arows, bcols, a_side)
        keep = ~_mask_of(a_side)
        adeg = [p & keep for p in adeg]
        for b in b_side:
            _plane_sub(adeg, bcols[b])
        _remove(bcols, arows, b_side)
        bicliques.append(
            (tuple(a_ids[a] for a in a_side), tuple(b_ids[b] for b in b_side))
        )

    a_rest = tuple(a_ids[a] for a in arows)
    b_rest = tuple(b_ids[b] for b in bcols)
    b_left = _mask_of(b_rest)
    rest = {a_ids[a]: rows[a] & b_left for a in arows}
    for b, col in bcols.items():
        rest[b_ids[b]] = sum(1 << a_ids[a] for a in _iter_bits(col))
    return BicliqueDecomposition(
        bicliques=tuple(bicliques),
        a_rest=a_rest,
        b_rest=b_rest,
        rest=rest,
        termination=termination,
        n_ref=n_ref,
        profile=profile,
    )


def big_threshold(n_ref: int) -> float:
    """Rest degree from which a node counts as big after a density stop."""
    n = max(n_ref, 2)
    return n / math.log2(n) ** 3


def build_n_rest(dec: BicliqueDecomposition) -> dict[int, int]:
    """Per-node kept rest neighborhoods, as node-id masks.

    After a size stop every node keeps its full rest neighborhood. After a
    density stop, nodes with at least ``big_threshold(n_ref)`` rest edges
    keep only their big neighbors while the others keep everything; either
    way each rest edge survives in at least one endpoint's mask.
    """
    if dec.termination == "size":
        return dict(dec.rest)
    thr = big_threshold(dec.n_ref)
    big = _mask_of(u for u, nb in dec.rest.items() if nb.bit_count() >= thr)
    return {u: nb & big if big >> u & 1 else nb for u, nb in dec.rest.items()}
