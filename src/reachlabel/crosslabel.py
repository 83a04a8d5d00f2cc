"""Cross-group reachability labels via iterative biclique peeling.

The cross-group half of the closure is consumed over k-1 iterations, where
k is the number of super-layer groups. At iteration s the two lowest live
groups (the merged "front" and the next group up, the "second") span a
bipartite edge set; balanced bicliques are stripped from it, the matched
nodes retire, and the leftovers of both groups merge into the next front.
Each consumed edge is answered by exactly one of two per-iteration section
kinds that end up inside the node labels:

  near  edges between the matched sides (one bipartite sub-label over all
        matched nodes) plus edges between leftover nodes (an exact set of
        kept neighbor positions per node),

  far   every other consumed edge, rerouted through a small pair graph.
        The r-th matched pair of a biclique acts as one left node; every
        other live node is a right node. For right nodes above the two
        front groups, a per-biclique flag on the right node picks which
        endpoint the stored adjacency bit serves: when some matched
        second-group node of biclique i reaches the right node, matched
        front sources are answered by transitivity (the flag alone), and
        the bit serves the matched second-group side instead.

Every node also records the iteration that retired it, and enters at the
group after its intra group; together these pin down the single iteration
able to answer a query pair, so decoding touches one near and one far
section per label.

Edge sets are bitmask rows throughout: the biclique search takes each front
node's row into the second group, each iteration record keeps its consumed
near and far edges and its kept rest neighbors as node -> mask rows, and
both pair tables (near over the matched sides, far over the pair graph) are
built as A-side rows over ranks on the B side.

A node that retires at iteration r is live in iterations 1..min(r, k-1)
and holds sections for exactly those, the ones a query can read. Nothing
in a section says what it holds, and no offset says where it starts: a
node's class at iteration s follows from its entry group and retirement
(``node_class``), and the sizes and budgets of the iteration's two pair
instances follow from the count of pairs matched before and at s
(``instance_sizes``), which the blob keeps as a cumulative schedule. Each
section's length then follows from those, except a rest set's (its size
is stored inline) and an upper node's flags (one per biclique, counted by
a second cumulative schedule over the node's upper iterations), so a
decoder sums the lengths of the iterations before the one it reads. The
sections by class:

  near: matched -> embedded bipartite sub-label
        rest    -> exact neighbor-position set
        upper   -> nothing
  far:  matched -> biclique number + embedded pair label
        rest    -> embedded right label
        upper   -> embedded right label + one flag per biclique
        (a far section is empty when the iteration matched no pair)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple

from .bipartite import (
    BipartiteInstance,
    encode_bipartite,
    pair_window,
    read_embedded,
    write_embedded,
)
from .biclique import build_n_rest, find_bicliques, get_profile
from .bitio import BitString, BitWriter, Widths, count_width, index_width
from .dictionary import build_set, check_set, read_set, set_contains
from .graph import LayeredDag, _iter_bits, _mask_of, gatherer, transpose

# Node classes within one iteration; no label stores them (``node_class``).
CLS_FRONT_MATCH = 1
CLS_SECOND_MATCH = 2
CLS_FRONT_REST = 3
CLS_SECOND_REST = 4
CLS_UPPER = 5
MATCHED = (CLS_FRONT_MATCH, CLS_SECOND_MATCH)

VARIANTS = ("third", "average")


def node_class(s: int, entry: int, removed_iter: int) -> int:
    """A node's class at iteration s: group s+1 is the second group, the
    groups below it form the front, and a node is matched where it retires."""
    if s < entry - 1:
        return CLS_UPPER
    if s == entry - 1:
        return CLS_SECOND_MATCH if s == removed_iter else CLS_SECOND_REST
    return CLS_FRONT_MATCH if s == removed_iter else CLS_FRONT_REST


def instance_sizes(kind: str, p: int, live: int) -> tuple[int, int, int, int]:
    """(a, b, alpha, beta) of the near instance (``kind`` "near") or the far
    instance under size variant ``kind`` of an iteration that matched p pairs
    among ``live`` nodes; the far right side is every node not matched."""
    b = p if kind == "near" else live - 2 * p
    if p < 0 or b < 0:
        raise ValueError(f"pair schedule gives an instance of sizes {p} and {b}")
    if kind == "near":
        half = (p + 1) // 2 + 1
        return p, p, half, half
    if kind == "third":
        return p, b, (2 * live - 3 * p + 5) // 6, (2 * p + 2) // 3
    return p, b, 0, p + 1


@dataclass(eq=False)
class IterationRecord:
    """Everything one peeling iteration decided, for encoding and audits.

    ``near_rows`` and ``far_rows`` map a node to the mask of its out-edges
    that this iteration consumed; together they are exactly the edges the
    iteration removed from the live graph.
    ``pair_rows[j]`` is pair j's row in the pair graph, bit r standing for
    ``outside[r]``; ``pair_bic[j]`` is the biclique pair j came from.
    ``rest_rows`` maps each unmatched front or second node to the node-id
    mask of the rest neighbors its near section stores. ``via_second`` maps
    each upper node to its flags, bit i for biclique i.
    """

    s: int
    termination: str
    live: tuple[int, ...]
    front_match: tuple[int, ...]
    second_match: tuple[int, ...]
    bicliques: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    pairs: tuple[tuple[int, int], ...]
    pair_bic: tuple[int, ...]
    n_pairs: int
    outside: tuple[int, ...]
    via_second: dict[int, int]
    near_rows: dict[int, int]
    far_rows: dict[int, int]
    pair_rows: tuple[int, ...]
    rest_rows: dict[int, int]
    near_inst: BipartiteInstance | None
    far_inst: BipartiteInstance | None


@dataclass(eq=False)
class PeelResult:
    """One profile's peeling transcript, which both size variants share:
    the bicliques, retirements, pair graphs and rest rows, and the near
    instances. Only the far instances' budgets depend on the variant."""

    n: int
    k: int
    profile: str
    entry: tuple[int, ...]         # node -> 1-based group it starts in
    removed_iter: tuple[int, ...]  # node -> iteration that retired it (k if none)
    records: tuple[IterationRecord, ...]   # far_inst is None here
    pos: tuple[int, ...]           # node -> topological index


@dataclass(eq=False)
class CrossLabeling:
    """A peel encoded under one size variant: the peel's fields, its records
    with their far instances filled in, and each node's sections."""

    n: int
    k: int
    variant: str
    profile: str
    entry: tuple[int, ...]
    removed_iter: tuple[int, ...]
    records: tuple[IterationRecord, ...]
    # [node][near^1, far^1, ..., near^m, far^m], m = min(removed_iter, k-1)
    sections: tuple[tuple[BitString, ...], ...]


def peel_cross(layered: LayeredDag, slayer, profile="paper") -> PeelResult:
    """Strip the cross-group closure rows (each closure row less its own
    group's nodes) down to nothing, iteration by iteration, recording
    everything each iteration decided."""
    prof = get_profile(profile)
    n = layered.dag.n
    pos = layered.topo
    inv = layered.inv_topo
    k = slayer.count
    entry = tuple(slayer.group_of[u] + 1 for u in range(n))
    removed_iter = [k] * n
    groups = [tuple(inv[g.beg : g.end]) for g in slayer.groups]
    group_masks = [_mask_of(grp) for grp in groups]
    live_rows = [row & ~group_masks[grp] for row, grp in zip(layered.dag.rows, slayer.group_of)]
    total_cross = sum(r.bit_count() for r in live_rows)
    consumed_total = 0
    records = []

    front = list(groups[0]) if k else []
    for s in range(1, k):
        second = list(groups[s])
        upper = [u for grp in groups[s + 1 :] for u in grp]
        live = tuple(front) + tuple(second) + tuple(upper)
        second_mask = _mask_of(second)
        upper_mask = _mask_of(upper)

        dec = find_bicliques(front, second, [live_rows[a] & second_mask for a in front], prof, n)
        bicliques = tuple(
            (
                tuple(sorted(a_side, key=pos.__getitem__)),
                tuple(sorted(b_side, key=pos.__getitem__)),
            )
            for a_side, b_side in dec.bicliques
        )
        n_bic = len(bicliques)

        pairs = [pair for a_side, b_side in bicliques for pair in zip(a_side, b_side)]
        pair_bic = [i for i, sides in enumerate(bicliques) for _ in zip(*sides)]
        matched = {u for pair in pairs for u in pair}
        n_pairs = len(pairs)

        front_match = tuple(u for u in front if u in matched)
        front_rest = tuple(u for u in front if u not in matched)
        second_match = tuple(v for v in second if v in matched)
        second_rest = tuple(v for v in second if v not in matched)

        # Right side of the pair graph: every live node that is not matched,
        # in topological order (front < second < upper positions).
        outside = front_rest + second_rest + tuple(upper)

        # Per-biclique reach of its matched second side, restricted to upper
        # nodes, the only class whose far sections hold flags.
        upper_hit_mask = []
        for _, b_side in bicliques:
            m = 0
            for b in b_side:
                m |= live_rows[b]
            upper_hit_mask.append(m & upper_mask)
        flags = transpose(upper_hit_mask, n)
        via_second = {v: flags[v] for v in upper}

        sm_mask = _mask_of(second_match)
        sr_mask = _mask_of(second_rest)

        # Consumed edges as rows u -> mask of v. Near: matched-to-matched and
        # rest-to-rest front/second edges (the latter are the decomposition's
        # rest edges). Far: every other edge leaving a matched node, plus the
        # front rest nodes' edges into the matched second side.
        near_rows = {
            u: live_rows[u] & (sm_mask if u in matched else sr_mask) for u in front
        }
        far_rows = {
            u: live_rows[u] & (sr_mask | upper_mask if u in matched else sm_mask)
            for u in front
        }
        far_rows.update((v, live_rows[v] & upper_mask) for v in second_match)

        # Pair graph: row j is the j-th matched pair, bit r the r-th outside
        # node; the bit answers the one far edge case that applies to that
        # node's class (and, for upper nodes, to the flag). Front rest nodes
        # hold outside ranks 0..len(front_rest)-1, so the columns of their
        # rows into the matched second side are those bits.
        cols = transpose([live_rows[u] & sm_mask for u in front_rest], sm_mask.bit_length())
        to_outside = gatherer(outside, n)
        pair_rows = []
        for (aj, bj), i in zip(pairs, pair_bic):
            fluff = upper_hit_mask[i]
            row_a = live_rows[aj]
            hits = row_a & sr_mask | live_rows[bj] & fluff | row_a & upper_mask & ~fluff
            pair_rows.append(to_outside(hits) | cols[bj])

        near_inst = None
        if n_bic:
            to_second = gatherer(second_match, n)
            rows = tuple(to_second(near_rows[u]) for u in front_match)
            near_inst = BipartiteInstance(*instance_sizes("near", n_pairs, len(live)), rows)

        records.append(
            IterationRecord(
                s=s,
                termination=dec.termination,
                live=live,
                front_match=front_match,
                second_match=second_match,
                bicliques=bicliques,
                pairs=tuple(pairs),
                pair_bic=tuple(pair_bic),
                n_pairs=n_pairs,
                outside=outside,
                via_second=via_second,
                near_rows=near_rows,
                far_rows=far_rows,
                pair_rows=tuple(pair_rows),
                rest_rows=build_n_rest(dec),
                near_inst=near_inst,
                far_inst=None,
            )
        )

        consumed = sum(m.bit_count() for m in near_rows.values()) + sum(
            m.bit_count() for m in far_rows.values()
        )
        before = sum(r.bit_count() for r in live_rows)
        for u in front_match:
            removed_iter[u] = s
            live_rows[u] = 0
        for v in second_match:
            removed_iter[v] = s
            live_rows[v] = 0
        for u in front_rest:
            live_rows[u] &= ~(sr_mask | sm_mask)
        after = sum(r.bit_count() for r in live_rows)
        assert before - after == consumed, "consumed edges must leave the live graph"
        consumed_total += consumed

        front = sorted(front_rest + second_rest, key=pos.__getitem__)
        front_mask = _mask_of(front)
        assert all(live_rows[u] & front_mask == 0 for u in front), (
            "merged front must stay an antichain"
        )

    assert all(r == 0 for r in live_rows), "peeling must consume every cross edge"
    assert consumed_total == total_cross

    return PeelResult(
        n=n,
        k=k,
        profile=prof.name,
        entry=entry,
        removed_iter=tuple(removed_iter),
        records=tuple(records),
        pos=tuple(pos),
    )


def build_cross_labeling(peel: PeelResult, variant: str) -> CrossLabeling:
    """Encode a profile's peel under size ``variant``: each record gets its
    far instance and each node its sections. The peel is left as it is, so
    both variants can be built from one."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    records = tuple(
        replace(rec, far_inst=BipartiteInstance(
            *instance_sizes(variant, rec.n_pairs, len(rec.live)), rec.pair_rows
        ) if rec.n_pairs else None)
        for rec in peel.records
    )
    return CrossLabeling(
        n=peel.n,
        k=peel.k,
        variant=variant,
        profile=peel.profile,
        entry=peel.entry,
        removed_iter=peel.removed_iter,
        records=records,
        sections=_encode_sections(peel, records),
    )


def _encode_sections(peel: PeelResult, records) -> tuple[tuple[BitString, ...], ...]:
    """Each node's near and far section of every iteration it is live in,
    1..min(removed_iter, k-1), the ones a query can read, in blob order.
    Near: a matched node's sub-label, a rest node's neighbor-position set,
    nothing for an upper node. Far (empty when no pair matched): a matched
    node's biclique number and its pair's sub-label, an outside node's
    right sub-label, then an upper node's flags."""
    entry, removed, pos = peel.entry, peel.removed_iter, peel.pos
    per_node = [[] for _ in range(peel.n)]
    for rec in records:
        p = rec.n_pairs
        near, far, bic = {}, {}, {}
        if p:
            near.update(zip(rec.front_match + rec.second_match, encode_bipartite(rec.near_inst)))
            far_labels = encode_bipartite(rec.far_inst)
            far.update(zip(rec.outside, far_labels[p:]))
            for pair, i, lab in zip(rec.pairs, rec.pair_bic, far_labels):
                for u in pair:
                    far[u], bic[u] = lab, i
        for u in rec.live:
            cls = node_class(rec.s, entry[u], removed[u])
            w = BitWriter()
            if cls in MATCHED:
                write_embedded(w, near[u], near[u].a + near[u].b)
            elif cls != CLS_UPPER:
                build_set((pos[x] for x in _iter_bits(rec.rest_rows[u])), peel.n).write(w)
            per_node[u].append(w.finish())
            w = BitWriter()
            if p:
                lab = far[u]
                if cls in MATCHED:
                    w.write(bic[u], index_width(p))
                write_embedded(w, lab, lab.a + lab.b)
                if cls == CLS_UPPER:
                    w.write(rec.via_second[u], len(rec.bicliques))
            per_node[u].append(w.finish())
    return tuple(map(tuple, per_node))


# -- per-node blob assembly -------------------------------------------------
#
# blob := k[kf] removed_iter[cw] P_1..P_m[kf each] B_1..B_u[kf each]
#         near^1 far^1 ... near^m far^m
# with kf = count_width(n), cw = count_width(k), m = min(removed_iter, k-1)
# and u = max(0, min(entry-2, m)), the iterations where the node is upper.
# The blob holds no entry group: it is the intra section's group + 1.
# P_s is the number of pairs matched in iterations 1..s (P_0 = 0), so
# iteration s matched p = P_s - P_{s-1} pairs among n - 2*P_{s-1} live nodes;
# B_s is the number of bicliques found in iterations 1..s, so an upper node
# holds B_s - B_{s-1} flags at iteration s. The sections lie back to back.


def assemble_cross(cl: CrossLabeling, u: int) -> BitString:
    n, k = cl.n, cl.k
    kf = count_width(n)
    cw = count_width(k)
    secs = cl.sections[u]
    m = len(secs) // 2
    ups = max(0, min(cl.entry[u] - 2, m))
    w = BitWriter()
    w.write(k, kf)
    w.write(cl.removed_iter[u], cw)
    for counts in ([rec.n_pairs for rec in cl.records[:m]],
                   [len(rec.bicliques) for rec in cl.records[:ups]]):
        acc = 0
        for upto in accumulate(counts):
            acc = acc << kf | upto
        w.write(acc, len(counts) * kf)
    for sec in secs:
        w.append(sec)
    return w.finish()


# -- decode records ----------------------------------------------------------
#
# One record type serves both decode surfaces: an ``IterationView`` keeps a
# node's two sections of iteration s as offsets, indices and table ints,
# with the iteration's ``Shape``: the node's class, the instance sizes and
# the widths, which ``iteration_shape`` alone derives. The labels of one
# encoding share their pair schedule and biclique counts, so every blob with
# the same entry and retirement has the same shapes: ``blob_plan`` checks a
# blob head and derives its shapes once. Each field group has one reader,
# ``read_embedded`` for a sub-label and ``read_set`` for a rest set, which
# charges one word for the index or the size. ``CrossView.check`` reads
# every group through it, filling every record it walks, so bulk queries
# answer from those fields; a record built for a single query reads each
# group on first use, so the query pays only for the words it touches.


@functools.lru_cache(maxsize=256)
def section_layout(kind: str, p: int, live: int) -> tuple[tuple[int, int, int, int], int, int]:
    """``instance_sizes(kind, p, live)``, the width of a sub-label index
    into that instance and the width of a biclique number, computed once per
    iteration shape: the labels of one encoding share their schedule."""
    sizes = instance_sizes(kind, p, live)
    return sizes, index_width(sizes[0] + sizes[1]), index_width(p)


@functools.lru_cache(maxsize=256)
def schedule_layout(variant: str, n: int, cw: int, s: int, packed: int) -> tuple[tuple, tuple]:
    """P_0..P_s from the ``s`` cw-bit schedule entries ``packed``, which
    must not decrease or pair more than the n nodes, and for t = 1..s the
    bits that the far right labels of iterations 1..t-1 take: all labels of
    an encoding share their schedule, so this runs once per prefix."""
    mask = (1 << cw) - 1
    upto = (0,) + tuple(packed >> cw * i & mask for i in range(s - 1, -1, -1))
    if list(upto) != sorted(upto) or 2 * upto[-1] > n:
        raise ValueError("pair schedule decreases or pairs more than n nodes")
    far = [0]
    for t in range(1, s):
        p = upto[t] - upto[t - 1]
        sizes, iw, _ = section_layout(variant, p, n - 2 * upto[t - 1])
        far.append(far[-1] + (iw + sizes[3] if p else 0))  # empty when no pair matched
    return upto, tuple(far)


class Shape(NamedTuple):
    """What a node's iteration s looks like before any of its own fields
    is read: its class ``inf``, the ``p`` pairs the iteration matched and,
    for an upper node, its ``flags`` bicliques; a matched node's
    near instance sizes, index width and section bits (None, 0 and 0 for
    the other classes: a rest set's bits follow from its stored size); the
    far instance sizes, index width and biclique number width; and
    ``far_bits``, the bits of its far section (0 when p is 0)."""

    inf: int
    p: int
    flags: int
    near: tuple[int, int, int, int] | None
    near_iw: int
    near_bits: int
    far: tuple[int, int, int, int]
    far_iw: int
    bw: int
    far_bits: int


@functools.lru_cache(maxsize=1024)
def iteration_shape(variant: str, n: int, s: int, entry: int, removed_iter: int,
                    before: int, upto: int, flags: int) -> Shape:
    """The Shape of iteration s of a blob over n nodes with this entry and
    retirement, where P_{s-1} = ``before`` and P_s = ``upto``, under size
    ``variant``: the one derivation of classes, sizes and widths that the
    check walk and lazily read records share, computed once per shape."""
    inf = node_class(s, entry, removed_iter)
    p = upto - before
    live = n - 2 * before
    near, near_iw = section_layout("near", p, 0)[:2] if inf in MATCHED else (None, 0)
    far, far_iw, bw = section_layout(variant, p, live)
    far_bits = far_iw + (bw + far[2] if inf in MATCHED else far[3] + flags) if p else 0
    # both sides' near tables are equally wide
    return Shape(inf, p, flags, near, near_iw, near_iw + near[2] if near else 0,
                 far, far_iw, bw, far_bits)


@functools.lru_cache(maxsize=1024)
def blob_plan(variant: str, n: int, k: int, entry: int, removed_iter: int,
              sched: int, bics: int) -> tuple[Shape, ...]:
    """The Shapes of the m = min(removed_iter, k-1) iterations of a blob
    over n nodes whose entry and retirement ``CrossView.check`` has checked,
    from its head: ``sched`` packs P_1..P_m and ``bics`` B_1..B_u,
    count_width(n) bits each. Raises ValueError on a head no query could
    decode: a schedule that decreases or pairs more than the n nodes, or
    counts that do not step by 1 to p at an upper iteration that matched
    p > 0 pairs (each biclique holds a pair) and by 0 at one that matched
    none. The labels of an encoding share their heads, so this runs once per
    entry and retirement."""
    m = min(removed_iter, k - 1)
    u = max(0, min(entry - 2, m))
    cw = count_width(n)
    upto = schedule_layout(variant, n, cw, m, sched)[0]
    counts = [0] + [bics >> cw * i & (1 << cw) - 1 for i in range(u - 1, -1, -1)]
    flags = [b - a for a, b in zip(counts, counts[1:])] + [0] * (m - u)
    for s in range(1, u + 1):
        p, d = upto[s] - upto[s - 1], flags[s - 1]
        if not min(p, 1) <= d <= p:
            raise ValueError(f"{d} bicliques for {p} pairs at iteration {s}")
    return tuple(iteration_shape(variant, n, s, entry, removed_iter, upto[s - 1], upto[s],
                                 flags[s - 1]) for s in range(1, m + 1))


class IterationView:
    """A node's near and far sections of iteration s, laid out by the
    iteration's ``shape`` (whose class and flag count the record also keeps
    as ``inf`` and ``flags``, and ``is_empty`` for a p of 0, which every
    eager query reads). They start at label offset ``start``; ``mid`` and
    ``end``, where they end, follow from the shape and a rest set's size,
    which the record holds with its keys in ``near``.

    ``near`` keeps a matched node's sub-label as (index, end offset,
    instance sizes, table) or a rest node's set as (size, end offset, keys);
    an upper node's near section is empty. ``far`` keeps the far sub-label
    the same way, after a matched node's biclique number ``bic``, plus an
    upper node's flags; it is empty when p is 0. A sub-label index and a set
    size cost one word each; tables, keys and flags are ints taken from the
    label uncounted, and each probe of them is charged one word. A rest
    node's set is read as the record is built; the check walk then reads
    ``near``, ``bic`` and ``far`` (``read_near``, ``read_bic``,
    ``read_far``), and a record built for one query reads them on first use.
    """

    __slots__ = ("read", "wd", "shape", "inf", "flags", "start", "mid", "end",
                 "is_empty", "near", "far", "bic")

    def __init__(self, read, wd: Widths, shape: Shape, start: int):
        self.read = read
        self.wd = wd
        self.shape = shape
        self.inf = inf = shape.inf
        self.flags = shape.flags
        self.start = start
        if inf == CLS_FRONT_REST or inf == CLS_SECOND_REST:
            self.near = near = read_set(read, start, wd)
            self.mid = mid = near[1]
        else:
            self.near = None
            self.mid = mid = start + shape.near_bits
        self.end = mid + shape.far_bits
        self.is_empty = shape.p == 0
        self.far = self.bic = None

    def read_near(self) -> tuple:
        """Read a matched node's near sub-label into ``near``."""
        sh = self.shape
        side = "A" if self.inf == CLS_FRONT_MATCH else "B"
        index, end, table = read_embedded(self.read, self.start, sh.near_iw, side, sh.near)
        self.near = (index, end, sh.near, table)
        return self.near

    def read_far(self) -> tuple:
        """Read the far sub-label, after a matched node's biclique number,
        and keep it in ``far``, followed by an upper node's flags."""
        sh = self.shape
        if self.inf in MATCHED:
            at, side = self.mid + sh.bw, "A"
        else:
            at, side = self.mid, "B"
        index, end, table = read_embedded(self.read, at, sh.far_iw, side, sh.far)
        self.far = (index, end, sh.far, table)
        if self.inf == CLS_UPPER:
            self.far += (self.read.peek(end, self.flags),)
        return self.far

    def read_bic(self) -> int:
        """Read a matched node's far biclique number into ``bic``; it must
        name one of the p pairs' bicliques, so it is below p."""
        self.bic = bic = self.read(self.mid, self.shape.bw)
        if bic >= self.shape.p:
            raise ValueError(f"biclique number {bic} of {self.shape.p} pairs")
        return bic

    def contains(self, x: int) -> bool:
        """Whether a rest node's neighbor set holds position ``x``."""
        m, _, keys = self.near
        return set_contains(self.read, m, keys, self.wd, x)

    def via_second(self, i: int) -> int:
        """An upper node's flag of biclique i; the flags follow the far sub-label."""
        far = self.far or self.read_far()
        return self.read.table_bit(far[4], self.flags, far[1] + self.flags, i)


class CrossView:
    """One node's blob: group count, retirement, pair schedule and
    biclique counts, for the size ``variant`` of the label's scheme, and
    the node's ``entry`` group, which the label's intra section gives.

    The blob holds ``m`` = min(removed_iter, k-1) iterations of sections,
    the first ``u`` of them upper ones. Each ``iteration`` call builds a
    fresh record, placed by summing the lengths of the iterations before
    it, until ``check`` has walked them all; from then on the walked
    records answer.
    """

    __slots__ = ("read", "wd", "variant", "k", "removed_iter", "entry", "m", "u",
                 "_sched", "_bics", "_payload", "_iters")

    def __init__(self, read, base: int, wd: Widths, variant: str, entry: int):
        self.k = read(base, wd.cw)
        if self.k < 1:
            raise ValueError("corrupt blob: no groups")
        cw = count_width(self.k)
        self.removed_iter = read(base + wd.cw, cw)
        self.entry = entry
        self.m = min(self.removed_iter, self.k - 1)
        self.u = max(0, min(entry - 2, self.m))
        self.read, self.wd, self.variant = read, wd, variant
        self._sched = base + wd.cw + cw
        self._bics = self._sched + self.m * wd.cw
        self._payload = self._bics + self.u * wd.cw
        self._iters = ()

    def iteration(self, s: int) -> IterationView:
        """Iteration s's record. Built for one query, it reads P_1..P_s,
        and B_{j-1} and B_j for j = min(s, u): the upper iterations before
        s hold B_{s-1} flags, or B_u once s is past them, and s holds
        B_s - B_{s-1}. Each earlier rest iteration's set size costs a read,
        and so does the set of a rest node at s."""
        if self._iters:
            return self._iters[s - 1]
        if not 1 <= s <= self.m:
            raise ValueError(f"no iteration {s} in a blob of {self.m} iterations")
        read, wd, cw, ups = self.read, self.wd, self.wd.cw, self.u
        upto, far = schedule_layout(self.variant, wd.n, cw, s, read(self._sched, s * cw))
        j = min(s, ups)
        lo = max(j - 2, 0)  # B_{j-1} and B_j, or B_1 alone (B_0 = 0)
        both = read(self._bics + lo * cw, (j - lo) * cw) if j else 0
        mask = (1 << cw) - 1
        at = self._payload + (both >> cw if s == j else both & mask)
        sets = 0
        for t in range(ups + 1, s):  # the earlier rest iterations' sets
            sets += cw + wd.iw * read(at + far[t - 1] + sets, cw)
        flags = (both & mask) - (both >> cw) if s == j else 0
        shape = iteration_shape(self.variant, wd.n, s, self.entry, self.removed_iter,
                                upto[s - 1], upto[s], flags)
        return IterationView(read, wd, shape, at + far[s - 1] + sets)

    def check(self) -> int:
        """Walk every section, raising ValueError on a field a query could
        not decode, and keep one filled record per iteration; returns the
        bit offset where the blob ends, which must be where the label does.

        Entry and retirement must lie in the k groups, with the node retiring
        no earlier than the iteration ahead of its entry group, so the blob
        holds every section a query can ask for; this comes first, so a label
        cut inside the head that claims impossible ones raises this and not
        an overrun. The schedule and the biclique counts then take one
        counted read each, and ``blob_plan`` checks them and lays the
        iterations out. Each record starts where the last one ends and reads
        its fields through the same counted readers a lazy record uses; the
        walk also checks that a set's keys ascend and that a matched node's
        biclique number is below p (not below the biclique count, which only
        upper nodes' blobs hold: a query probing their flags refuses it).
        """
        read, wd, k, m, u = self.read, self.wd, self.k, self.m, self.u
        if not (1 <= self.entry <= k and max(1, self.entry - 1) <= self.removed_iter <= k):
            raise ValueError("entry or retirement outside the blob's groups")
        sched = read(self._sched, m * wd.cw)
        bics = read(self._bics, u * wd.cw) if u else 0
        at = self._payload
        iters = []
        for shape in blob_plan(self.variant, wd.n, k, self.entry, self.removed_iter, sched, bics):
            it = IterationView(read, wd, shape, at)
            if shape.inf in MATCHED:
                it.read_near()
                it.read_bic()
            elif it.near is not None:
                check_set(it.near[0], it.near[2], wd)
            if shape.p:
                it.read_far()
            iters.append(it)
            at = it.end
        self._iters = tuple(iters)
        return at

    def ledger(self) -> dict[str, int]:
        """The bits of the blob's fields, once ``check`` has walked it: k
        and ``removed_iter``, the pair schedule, the biclique counts, and
        the near and far sections summed over the walked records."""
        cw = self.wd.cw
        return {
            "k_removed_iter": cw + count_width(self.k),
            "schedule": self.m * cw,
            "biclique_counts": self.u * cw,
            "near_sections": sum(it.mid - it.start for it in self._iters),
            "far_sections": sum(it.end - it.mid for it in self._iters),
        }


# -- decoding ----------------------------------------------------------------


def _probe(sa: IterationView, a_side: tuple, sb: IterationView, b_side: tuple) -> bool:
    """Pair probe between an A-side and a B-side sub-label of two records,
    each given as (index, end offset, instance sizes, table, ...); the A
    side's sizes place the pair."""
    sizes = a_side[2]
    i = pair_window(a_side[0], b_side[0], sizes)
    if i >= 0:
        return bool(sa.read.table_bit(a_side[3], sizes[2], a_side[1], i))
    return bool(sb.read.table_bit(b_side[3], b_side[2][3], b_side[1], ~i))


def _probe_far(sa: IterationView, sb: IterationView) -> bool:
    return _probe(sa, sa.far or sa.read_far(), sb, sb.far or sb.read_far())


def decode_near(su, sv, pos_u: int, pos_v: int) -> bool:
    cu, cv = su.inf, sv.inf
    if cu == CLS_FRONT_MATCH and cv == CLS_SECOND_MATCH:
        return _probe(su, su.near or su.read_near(), sv, sv.near or sv.read_near())
    if cu == CLS_FRONT_REST and cv == CLS_SECOND_REST:
        return su.contains(pos_v) or sv.contains(pos_u)
    return False


def decode_far(su, sv) -> bool:
    if su.is_empty or sv.is_empty:
        return False
    cu, cv = su.inf, sv.inf
    if cu == CLS_FRONT_MATCH and cv == CLS_SECOND_REST:
        return _probe_far(su, sv)
    if cu == CLS_FRONT_REST and cv == CLS_SECOND_MATCH:
        return _probe_far(sv, su)
    if cu in MATCHED and cv == CLS_UPPER:
        # a set flag answers a matched front source by transitivity, and
        # sends a matched second source to the pair table
        via = sv.via_second(su.read_bic() if su.bic is None else su.bic)
        if cu == CLS_FRONT_MATCH:
            return bool(via) or _probe_far(su, sv)
        return bool(via) and _probe_far(su, sv)
    return False


def decode_cross(lu, lv, pos_u: int, pos_v: int) -> bool:
    """Cross-group edge membership from two blob views.

    Queries with u at or above v's entry group are never cross edges.
    ``scheme.query`` sends only pairs with u's group below v's here, so it
    views no blob for the others; this check keeps the answer right for a
    caller that passes any ordered pair. The answering iteration is v's
    entry (where v is still in the second group) unless u retired earlier.
    """
    if lu.k != lv.k:
        raise ValueError("blobs disagree on the group count")
    if lu.entry >= lv.entry:
        return False
    s = min(lu.removed_iter, lv.entry - 1)
    su, sv = lu.iteration(s), lv.iteration(s)
    return decode_near(su, sv, pos_u, pos_v) or decode_far(su, sv)
