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

Every node also records its entry group and the iteration that retired it;
together these pin down the single iteration able to answer a query pair,
so decoding touches one near and one far section per label.

Edge sets are bitmask rows throughout: the biclique search takes each front
node's row into the second group, each iteration record keeps its consumed
near and far edges and its kept rest neighbors as node -> mask rows, and
both pair tables (near over the matched sides, far over the pair graph) are
built as A-side rows over ranks on the B side.

A node that retires at iteration r is live in iterations 1..min(r, k-1)
and holds sections for exactly those, the ones a query can read. Their
offsets are kept in a small table, so a decoder can jump straight to one;
a far section repeats its near section's class:

  near: class[3]  then  matched -> embedded bipartite sub-label
                        leftover -> exact neighbor-position set
                        upper -> nothing
  far:  class[3]  then  matched -> biclique number + embedded pair label
                        leftover -> embedded right label
                        upper -> embedded right label + one flag per biclique
        (a far section is bare when the iteration found no biclique)
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bipartite import (
    BipartiteInstance,
    EmbeddedView,
    encode_bipartite,
    probe_pair,
    write_embedded,
)
from .biclique import build_n_rest, find_bicliques, get_profile
from .bitio import BitString, BitWriter, TableView, Widths, count_width, index_width
from .dictionary import SetView, build_set
from .graph import LayeredDag, _iter_bits, _mask_of, gatherer, transpose

# Node classes within one iteration, stored in 3 bits at each section start;
# codes 0, 6 and 7 do not occur.
CLS_FRONT_MATCH = 1
CLS_SECOND_MATCH = 2
CLS_FRONT_REST = 3
CLS_SECOND_REST = 4
CLS_UPPER = 5

CLASS_BITS = 3
RATE_BITS = 6  # width of the offset-width field

VARIANTS = ("third", "average")


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
    cls: dict[int, int]
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
class CrossLabeling:
    n: int
    k: int
    variant: str
    profile: str
    entry: tuple[int, ...]         # node -> 1-based group it starts in
    removed_iter: tuple[int, ...]  # node -> iteration that retired it (k if none)
    records: tuple[IterationRecord, ...]
    # [node][near^1, far^1, ..., near^m, far^m], m = min(removed_iter, k-1)
    sections: tuple[tuple[BitString, ...], ...]
    pos: tuple[int, ...]           # node -> topological index


@dataclass(eq=False)
class PeelResult:
    """Variant-independent half of the labeling: the peeling transcript.

    Both size variants share the peeling, the matched-pair tables and the
    membership sets; only the pair-graph budgets (and hence the far
    sections) differ. ``near_sections`` is filled on first use and reused.
    """

    n: int
    k: int
    profile: str
    entry: tuple[int, ...]
    removed_iter: tuple[int, ...]
    records: tuple[IterationRecord, ...]   # far_inst is None here
    pos: tuple[int, ...]
    near_sections: tuple[tuple[BitString, ...], ...] | None = None


def peel_cross(
    layered: LayeredDag,
    slayer,
    cross_rows: list[int],
    profile="paper",
) -> PeelResult:
    """Strip the cross-group closure rows down to nothing, iteration by
    iteration, recording everything each iteration decided."""
    prof = get_profile(profile)
    n = layered.dag.n
    pos = layered.topo
    inv = layered.inv_topo
    k = slayer.count
    entry = tuple(slayer.group_of[u] + 1 for u in range(n))
    removed_iter = [k] * n
    live_rows = list(cross_rows)
    groups = [tuple(inv[g.beg : g.end]) for g in slayer.groups]
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

        cls = {u: CLS_FRONT_MATCH if u in matched else CLS_FRONT_REST for u in front}
        cls.update((v, CLS_SECOND_MATCH if v in matched else CLS_SECOND_REST) for v in second)
        cls.update(dict.fromkeys(upper, CLS_UPPER))

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
            half = (n_pairs + 1) // 2 + 1
            near_inst = BipartiteInstance(n_pairs, n_pairs, half, half, rows)

        records.append(
            IterationRecord(
                s=s,
                termination=dec.termination,
                live=live,
                front_match=front_match,
                second_match=second_match,
                cls=cls,
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


def _far_instance(rec: IterationRecord, variant: str) -> BipartiteInstance | None:
    """Pair-graph budgets for one iteration under the chosen size variant."""
    if not rec.n_pairs:
        return None
    n_pairs = rec.n_pairs
    if variant == "third":
        a_bits = (2 * len(rec.live) - 3 * n_pairs + 5) // 6
        b_bits = (2 * n_pairs + 2) // 3
        assert a_bits >= 1
    else:
        a_bits = 0
        b_bits = n_pairs + 1
    return BipartiteInstance(n_pairs, len(rec.outside), a_bits, b_bits, rec.pair_rows)


def build_cross_labeling(
    layered: LayeredDag,
    slayer,
    cross_rows: list[int],
    profile="paper",
    variant: str = "third",
    peel: PeelResult | None = None,
) -> CrossLabeling:
    """Peel the cross-group rows and encode all per-node sections.

    Pass an existing ``peel`` to reuse the profile's peeling (and its near
    sections) across both size variants.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if peel is None:
        peel = peel_cross(layered, slayer, cross_rows, profile)
    n, k, pos = peel.n, peel.k, peel.pos
    records = tuple(
        replace(rec, far_inst=_far_instance(rec, variant)) for rec in peel.records
    )
    if peel.near_sections is None:
        peel.near_sections = _encode_near_sections(n, pos, peel.records)
    far = _encode_far_sections(n, records)
    near = peel.near_sections
    sections = tuple(
        tuple(sec for pair in zip(near[u], far[u]) for sec in pair) for u in range(n)
    )
    return CrossLabeling(
        n=n,
        k=k,
        variant=variant,
        profile=peel.profile,
        entry=peel.entry,
        removed_iter=peel.removed_iter,
        records=records,
        sections=sections,
        pos=pos,
    )


def _encode_near_sections(n, pos, records):
    """Each node's near sections, one per iteration it is live in: those
    are iterations 1..min(removed_iter, k-1), the ones a query can read."""
    per_node = [[] for _ in range(n)]
    for rec in records:
        near_labels = encode_bipartite(rec.near_inst) if rec.n_pairs else []
        sub = dict(zip(rec.front_match + rec.second_match, near_labels))
        for u in rec.live:
            w = BitWriter()
            w.write(rec.cls[u], CLASS_BITS)
            if u in sub:
                write_embedded(w, sub[u], n)
            elif u in rec.rest_rows:
                build_set((pos[x] for x in _iter_bits(rec.rest_rows[u])), n).write(w)
            per_node[u].append(w.finish())
    return tuple(tuple(secs) for secs in per_node)


def _encode_far_sections(n, records):
    """Each node's far sections, iteration by iteration as above: matched
    nodes get their pair's label, walked pair by pair, and outside nodes
    their right label, followed by flags for an upper node."""
    iw = index_width(n)
    per_node = [[] for _ in range(n)]
    for rec in records:
        far_labels = encode_bipartite(rec.far_inst) if rec.n_pairs else []
        for pair, i, lab in zip(rec.pairs, rec.pair_bic, far_labels):
            for u in pair:
                w = BitWriter()
                w.write(rec.cls[u] << iw | i, CLASS_BITS + iw)
                write_embedded(w, lab, n)
                per_node[u].append(w.finish())
        nb = len(rec.bicliques)
        for r, u in enumerate(rec.outside, rec.n_pairs):
            w = BitWriter()
            w.write(rec.cls[u], CLASS_BITS)
            if rec.n_pairs:
                write_embedded(w, far_labels[r], n)
                if u in rec.via_second:
                    w.write(rec.via_second[u], nb)
            per_node[u].append(w.finish())
    return tuple(tuple(secs) for secs in per_node)


# -- per-node blob assembly -------------------------------------------------
#
# blob := k[count_width(n)] ow[6] removed_iter[cw] entry[cw] bounds payload
# with cw = count_width(k), ow = count_width(total payload bits), and
# bounds = 2m+1 cumulative section boundaries of ow bits each, where
# m = min(removed_iter, k-1); sections are laid out near^1, far^1, ...,
# near^m, far^m with boundary fenceposts around them.


def assemble_cross(cl: CrossLabeling, u: int) -> BitString:
    n, k = cl.n, cl.k
    kf = count_width(n)
    cw = count_width(k)
    secs = cl.sections[u]
    payload = sum(len(b) for b in secs)
    ow = count_width(payload)
    w = BitWriter()
    w.write(k, kf)
    w.write(ow, RATE_BITS)
    w.write(cl.removed_iter[u], cw)
    w.write(cl.entry[u], cw)
    bound = 0
    acc = 0
    for sec in secs:
        bound += len(sec)
        acc = acc << ow | bound
    w.write(acc, (len(secs) + 1) * ow)  # leading fencepost is zero
    for sec in secs:
        w.append(sec)
    return w.finish()


# -- decode views ----------------------------------------------------------
#
# One family of views serves both decode surfaces. A section view is built
# from its bounds and its class; it reads its other fields, and builds its
# sub-label or set view, on first use, so a single query pays only for the
# words it touches. ``CrossView.check`` reads the bounds table and every
# section's class once each, builds each section's content view and checks
# it against the bounds, and keeps the views, which bulk queries then answer
# from. Field widths come from the label's Widths, computed once per n.


class NearView:
    """One near section: its class, then a sub-label or a neighbor set."""

    __slots__ = ("_read", "_off", "_wd", "inf", "_bip", "_keys")

    def __init__(self, read, off: int, wd: Widths, inf: int):
        self._read = read
        self._off = off
        self._wd = wd
        self.inf = inf
        self._bip = self._keys = None

    def bip(self) -> EmbeddedView:
        if self._bip is None:
            side = "A" if self.inf == CLS_FRONT_MATCH else "B"
            self._bip = EmbeddedView(self._read, self._off + CLASS_BITS, self._wd, side)
        return self._bip

    def keys(self) -> SetView:
        if self._keys is None:
            self._keys = SetView(self._read, self._off + CLASS_BITS, self._wd)
        return self._keys


class FarView:
    """One far section: its class, then (when the iteration found bicliques)
    a biclique number and pair sub-label, or a right sub-label and, for an
    upper node, flags."""

    __slots__ = ("_read", "_off", "_end", "_wd", "inf", "is_empty", "_bic", "_bip", "_flags")

    def __init__(self, read, off: int, end: int, wd: Widths, inf: int):
        self._read = read
        self._off = off
        self._end = end
        self._wd = wd
        self.inf = inf
        self.is_empty = end - off == CLASS_BITS
        self._bic = self._bip = self._flags = None

    def bic(self) -> int:
        if self._bic is None:
            self._bic = self._read(self._off + CLASS_BITS, self._wd.iw)
        return self._bic

    def bip(self) -> EmbeddedView:
        if self._bip is None:
            if self.inf in (CLS_FRONT_MATCH, CLS_SECOND_MATCH):
                start = self._off + CLASS_BITS + self._wd.iw
                self._bip = EmbeddedView(self._read, start, self._wd, "A")
            else:
                self._bip = EmbeddedView(self._read, self._off + CLASS_BITS, self._wd, "B")
        return self._bip

    def flags(self) -> TableView:
        """The flags: every bit between the sub-label and the section end."""
        if self._flags is None:
            start = self.bip().end_offset
            if start > self._end:
                raise ValueError("far section length mismatch")
            self._flags = TableView(self._read, start, self._end - start)
        return self._flags

    def via_second(self, i: int) -> int:
        return (self._flags or self.flags()).bit(i)


class CrossView:
    """One node's blob: group count, retirement, entry and section bounds.

    The blob holds ``m`` = min(removed_iter, k-1) iterations of sections.
    Each section access reads its two bounds and its class and builds a
    fresh view until ``check`` has walked them all; from then on the walked
    views answer.
    """

    __slots__ = ("_read", "_wd", "k", "_ow", "removed_iter", "entry", "m", "_tab",
                 "_payload", "_near", "_far")

    def __init__(self, read, base: int, wd: Widths):
        head = read(base, wd.cw + RATE_BITS)
        self.k = head >> RATE_BITS
        if self.k < 1:
            raise ValueError("corrupt blob: no groups")
        self._ow = head & (1 << RATE_BITS) - 1
        cw = count_width(self.k)
        both = read(base + wd.cw + RATE_BITS, 2 * cw)
        self.removed_iter = both >> cw
        self.entry = both & (1 << cw) - 1
        self.m = min(self.removed_iter, self.k - 1)
        self._read = read
        self._wd = wd
        self._tab = base + wd.cw + RATE_BITS + 2 * cw
        self._payload = self._tab + (2 * self.m + 1) * self._ow
        self._near = self._far = ()

    def _section(self, idx: int) -> tuple[int, int, int]:
        """(start, end, class) of section ``idx``."""
        if not 0 <= idx < 2 * self.m:
            raise ValueError(f"no section {idx} in a blob of {self.m} iterations")
        ow = self._ow
        both = self._read(self._tab + idx * ow, 2 * ow)
        start = self._payload + (both >> ow)
        return start, self._payload + (both & (1 << ow) - 1), self._read(start, CLASS_BITS)

    def sec_near(self, s: int) -> NearView:
        if self._near:
            return self._near[s - 1]
        start, _, inf = self._section(2 * s - 2)
        return NearView(self._read, start, self._wd, inf)

    def sec_far(self, s: int) -> FarView:
        if self._far:
            return self._far[s - 1]
        start, end, inf = self._section(2 * s - 1)
        return FarView(self._read, start, end, self._wd, inf)

    def check(self) -> int:
        """Walk every section, raising ValueError unless its content exactly
        fills its bounds, and keep the views; returns the bit offset where
        the blob ends.

        The bounds table and the section classes take one read each; the
        table's leading fencepost must be 0, so no bit lies between the
        table and the first section. A node cannot retire before the
        iteration ahead of its entry group, so the table holds every section
        a query can ask for. Each section view is built from its bounds and
        a defined class, which its far section repeats, and its content ends
        where its sub-label or checked set view says (``end_offset``); only
        an upper node's far section has flags, which take the rest of it.
        The views keep their sub-labels, sets and flags for the queries to
        come.
        """
        k, ow, read, wd = self.k, self._ow, self._read, self._wd
        if not (1 <= self.entry <= k and max(1, self.entry - 1) <= self.removed_iter <= k):
            raise ValueError("entry or retirement outside the blob's groups")
        last = 2 * self.m
        table = read(self._tab, (last + 1) * ow)
        if table >> last * ow:
            raise ValueError("bounds table does not start at 0")
        mask = (1 << ow) - 1
        payload = self._payload
        at = [payload + (table >> ow * i & mask) for i in range(last, -1, -1)]
        cls = read.fields(at[:last], CLASS_BITS)
        near = []
        far = []
        for i in range(0, last, 2):
            start, mid, end = at[i], at[i + 1], at[i + 2]
            inf = cls[i]
            if not CLS_FRONT_MATCH <= inf <= CLS_UPPER:
                raise ValueError(f"undefined class {inf}")
            sec = NearView(read, start, wd, inf)
            if inf in (CLS_FRONT_MATCH, CLS_SECOND_MATCH):
                got = sec.bip().end_offset
            elif inf in (CLS_FRONT_REST, CLS_SECOND_REST):
                got = sec.keys().check()
            else:
                got = start + CLASS_BITS
            if got != mid:
                raise ValueError(f"near section length {mid - start}, parsed {got - start}")
            near.append(sec)
            if cls[i + 1] != inf:
                raise ValueError(f"far class {cls[i + 1]} differs from near class {inf}")
            sec = FarView(read, mid, end, wd, inf)
            if not sec.is_empty:
                if inf == CLS_UPPER:
                    sec.flags()
                elif sec.bip().end_offset != end:
                    raise ValueError("far section length mismatch")
            far.append(sec)
        self._near, self._far = tuple(near), tuple(far)
        return at[last]


# -- decoding ----------------------------------------------------------------


def decode_near(su, sv, pos_u: int, pos_v: int) -> bool:
    cu, cv = su.inf, sv.inf
    if cu == CLS_FRONT_MATCH and cv == CLS_SECOND_MATCH:
        return probe_pair(su.bip(), sv.bip())
    if cu == CLS_FRONT_REST and cv == CLS_SECOND_REST:
        return su.keys().contains(pos_v) or sv.keys().contains(pos_u)
    return False


def decode_far(su, sv) -> bool:
    if su.is_empty or sv.is_empty:
        return False
    cu, cv = su.inf, sv.inf
    if cu == CLS_FRONT_MATCH and cv == CLS_SECOND_REST:
        return probe_pair(su.bip(), sv.bip())
    if cu == CLS_FRONT_REST and cv == CLS_SECOND_MATCH:
        return probe_pair(sv.bip(), su.bip())
    if cu == CLS_FRONT_MATCH and cv == CLS_UPPER:
        if sv.via_second(su.bic()):
            return True
        return probe_pair(su.bip(), sv.bip())
    if cu == CLS_SECOND_MATCH and cv == CLS_UPPER:
        if sv.via_second(su.bic()):
            return probe_pair(su.bip(), sv.bip())
        return False
    return False


def decode_cross(lu, lv, pos_u: int, pos_v: int) -> bool:
    """Cross-group edge membership from two blob views.

    Queries with u at or above v's entry group are never cross edges. The
    answering iteration is v's entry (where v is still in the second group)
    unless u retired earlier.
    """
    if lu.k != lv.k:
        raise ValueError("blobs disagree on the group count")
    if lu.entry >= lv.entry:
        return False
    s = min(lu.removed_iter, lv.entry - 1)
    if decode_near(lu.sec_near(s), lv.sec_near(s), pos_u, pos_v):
        return True
    return decode_far(lu.sec_far(s), lv.sec_far(s))
