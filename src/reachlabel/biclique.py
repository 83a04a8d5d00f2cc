"""Balanced biclique stripping for one layer pair of the flat DAG.

Repeatedly extracts a K_{q,q} from the bipartite graph between two
consecutive layers while the graph is both large (w = |A|+|B| above the size
threshold) and dense (|E| above w^2/log2^6 w), removing the biclique's nodes
with all their incident edges. What survives is the rest graph; its
neighborhoods get stored verbatim (or restricted to high-degree nodes after
a density stop) so the per-node leftovers stay small.

The search runs in rank space: A rank i is the i-th smallest A node id, B
rank j the j-th smallest B node id. Each live A node holds a mask over B
ranks and each live B node a mask over A ranks, so a common neighborhood is
one AND and "the q smallest common neighbors" are its q lowest set bits.
An extraction clears the removed nodes' bits only from the rows and columns
they touched, and lowers the kept degrees of exactly those nodes: each side
keeps its live nodes of nonzero degree, in rank order, with their degrees.
The finder takes its candidates from these, not from a pass over every row,
and at q = 1 each side's candidate degrees sum to the edge count. The rest
graph comes back as masks over node ids, one per unmatched node of either
side (``BicliqueDecomposition.rest``).

The target size q starts at max(1, floor(log2 w / max(1, log2(w^2/|E|))))
and decrements on failure; with at least one edge present, q = 1 always
succeeds, so the loop advances. This stand-in policy does not reproduce the
extremal guarantee for the biggest balanced biclique; label correctness
never depends on which bicliques are found.

Profiles: "paper" keeps the real thresholds: it strips while w is above
max(c_min = 64, n_ref^(3/4)), 178 at n_ref = 1000, and the density bound
holds, and leaves the edges among the nodes that remain to the rest graph.
That extracts plenty at desk scale: at n = 1000, a DAG with edge
probability 0.01 gives 412 bicliques over its 8 iterations, and a digraph
with 0.002 gives 127. "force" (c_min = 2, density condition reduced to
|E| >= 1) strips until no edge or at most two live nodes remain, so a rest
graph holds at most one edge and pair tables answer nearly every cross
edge. The tests run both; the dense-poset benchmark workload and the demos
run "force".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, islice

from .graph import _iter_bits, _mask_of, gatherer, transpose

EXHAUSTIVE_LIMIT = 24
_TRIALS = 40


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
    def rest_edges(self) -> frozenset[tuple[int, int]]:
        """The rest graph as (a, b) pairs, derived from ``rest``. The encoder
        never reads it; it exists for audits and for the benchmark tracer's
        rest-edge count."""
        return frozenset((a, b) for a in self.a_rest for b in _iter_bits(self.rest[a]))


def _qstar(w: int, m: int) -> int:
    if w < 2 or m < 1:
        return 1
    denom = max(1.0, math.log2(w * w / m))
    return max(1, int(math.log2(w) / denom))


def _degrees(rows: dict) -> dict:
    """Degree of each node with a nonzero row, in the rows' order."""
    return {x: row.bit_count() for x, row in rows.items() if row}


def find_biclique(arows: dict, bcols: dict, adeg: dict, bdeg: dict, q: int, m: int):
    """One K_{q,q} as (a_side, b_side) sorted rank tuples, or None.

    ``arows`` maps each live A rank to its mask over B ranks, ``bcols`` each
    live B rank to its mask over A ranks, ``adeg`` and ``bdeg`` the live
    ranks of nonzero degree to their degrees, in the rows' order, and ``m``
    is the edge count. Exhaustive over the smaller candidate side when the
    graph is tiny, otherwise a fixed number of seeded random neighborhood
    intersections.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if q == 1:
        ac, bc = list(adeg), list(bdeg)
    else:
        ac = [a for a, d in adeg.items() if d >= q]
        bc = [b for b, d in bdeg.items() if d >= q]
    if len(ac) < q or len(bc) < q:
        return None

    w = len(arows) + len(bcols)
    tiny = w <= EXHAUSTIVE_LIMIT
    if tiny:
        from_a = len(ac) <= len(bc)
    else:
        # at q = 1 every node of nonzero degree is a candidate, so each
        # side's candidate degrees sum to m
        sum_a = m if q == 1 else sum(map(adeg.__getitem__, ac))
        sum_b = m if q == 1 else sum(map(bdeg.__getitem__, bc))
        from_a = sum_a / len(ac) >= sum_b / len(bc)
    cands, adj = (ac, arows) if from_a else (bc, bcols)
    if tiny:
        subsets = combinations(cands, q)
    else:
        rng = random.Random((w << 40) ^ (m << 8) ^ q)
        subsets = (tuple(sorted(rng.sample(cands, q))) for _ in range(_TRIALS))
    for subset in subsets:
        common = adj[subset[0]]
        for x in subset[1:]:
            common &= adj[x]
        if common.bit_count() >= q:
            other = tuple(islice(_iter_bits(common), q))
            return (subset, other) if from_a else (other, subset)
    return None


def _remove(rows: dict, cols: dict, rdeg: dict, cdeg: dict, nodes) -> int:
    """Drop ``nodes`` from one side: pop their rows and degrees, clear their
    bits from the other side's rows that they touched and lower those rows'
    degrees, dropping any that reach 0. Returns the edges removed."""
    gone = hit = 0
    for x in nodes:
        hit |= rows.pop(x)
        rdeg.pop(x, None)
        gone |= 1 << x
    keep = ~gone
    removed = 0
    for y in _iter_bits(hit):
        col = cols[y]
        cols[y] = col & keep
        cut = (col & gone).bit_count()
        removed += cut
        if cdeg[y] == cut:
            del cdeg[y]
        else:
            cdeg[y] -= cut
    return removed


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
    adeg, bdeg = _degrees(arows), _degrees(bcols)
    m = sum(adeg.values())

    thr = profile.size_threshold(n_ref)
    bicliques = []
    while True:
        w = len(arows) + len(bcols)
        if not w > thr:
            termination = "size"
            break
        if not profile.density_ok(w, m):
            termination = "density"
            break
        got = None
        for q in range(min(_qstar(w, m), len(arows), len(bcols)), 0, -1):
            got = find_biclique(arows, bcols, adeg, bdeg, q, m)
            if got is not None:
                break
        assert got is not None, "q=1 with an edge present cannot fail"
        a_side, b_side = got
        m -= _remove(arows, bcols, adeg, bdeg, a_side)
        m -= _remove(bcols, arows, bdeg, adeg, b_side)
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
