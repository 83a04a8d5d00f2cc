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

Edge sets are bitmask rows throughout: each iteration record keeps its
consumed near and far edges as node -> mask-of-targets rows, and both pair
tables (near over the matched sides, far over the pair graph) are built as
A-side rows over ranks on the B side.

Section layout (offsets into the per-node blob are kept in a small table,
so the lazy reader can jump straight to one section):

  near: class[3]  then  matched -> embedded bipartite sub-label
                        leftover -> exact neighbor-position set
                        upper/retired -> nothing
  far:  class[3]  then  matched -> biclique number + embedded pair label
                        other live -> embedded right label + flag bits
        (a far section is bare when the iteration found no biclique)
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bipartite import (
    BipartiteInstance,
    LazyEmbedded,
    encode_bipartite,
    probe_pair,
    read_embedded,
    write_embedded,
)
from .biclique import build_n_rest, find_bicliques, get_profile
from .bitio import BitString, BitWriter, count_width, index_width, read_fixed
from .dictionary import StaticSet, build_set, probe_serialized
from .graph import LayeredDag, _iter_bits

# Node classes within one iteration, stored in 3 bits at each section start.
CLS_RETIRED = 0
CLS_FRONT_MATCH = 1
CLS_SECOND_MATCH = 2
CLS_FRONT_REST = 3
CLS_SECOND_REST = 4
CLS_UPPER = 5

CLASS_BITS = 3
RATE_BITS = 6  # width of the offset-width field

VARIANTS = ("third", "average")


def _mask_of(nodes) -> int:
    m = 0
    for u in nodes:
        m |= 1 << u
    return m


def _ranked(mask: int, rank: dict[int, int]) -> int:
    """A node mask renumbered through ``rank`` (node -> bit position)."""
    m = 0
    for v in _iter_bits(mask):
        m |= 1 << rank[v]
    return m


@dataclass(eq=False)
class IterationRecord:
    """Everything one peeling iteration decided, for encoding and audits.

    ``near_rows`` and ``far_rows`` map a node to the mask of its out-edges
    that this iteration consumed; together they are exactly the edges the
    iteration removed from the live graph.
    ``pair_rows[j]`` is pair j's row in the pair graph, bit r standing for
    ``outside[r]``.
    """

    s: int
    termination: str
    live: tuple[int, ...]
    front_match: tuple[int, ...]
    second_match: tuple[int, ...]
    front_rest: tuple[int, ...]
    second_rest: tuple[int, ...]
    cls: dict[int, int]
    bicliques: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    pairs: tuple[tuple[int, int], ...]
    pair_of: dict[int, int]
    bic_of: dict[int, int]
    pair_bic: tuple[int, ...]
    n_pairs: int
    outside: tuple[int, ...]
    outside_rank: dict[int, int]
    via_second: dict[int, int]
    near_rows: dict[int, int]
    far_rows: dict[int, int]
    pair_rows: tuple[int, ...]
    rest_map: object
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
    sections: tuple[tuple[BitString, ...], ...]  # [node][near^1, far^1, near^2, ...]
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

        edges_here = [
            (a, b) for a in front for b in _iter_bits(live_rows[a] & second_mask)
        ]
        dec = find_bicliques(front, second, edges_here, prof, n)
        bicliques = tuple(
            (
                tuple(sorted(a_side, key=pos.__getitem__)),
                tuple(sorted(b_side, key=pos.__getitem__)),
            )
            for a_side, b_side in dec.bicliques
        )
        n_bic = len(bicliques)

        pairs: list[tuple[int, int]] = []
        pair_of: dict[int, int] = {}
        bic_of: dict[int, int] = {}
        pair_bic: list[int] = []
        for i, (a_side, b_side) in enumerate(bicliques):
            for aj, bj in zip(a_side, b_side):
                pair_of[aj] = pair_of[bj] = len(pairs)
                bic_of[aj] = bic_of[bj] = i
                pair_bic.append(i)
                pairs.append((aj, bj))
        n_pairs = len(pairs)

        front_match = tuple(u for u in front if u in pair_of)
        front_rest = tuple(u for u in front if u not in pair_of)
        second_match = tuple(v for v in second if v in pair_of)
        second_rest = tuple(v for v in second if v not in pair_of)

        cls: dict[int, int] = {}
        for u in front_match:
            cls[u] = CLS_FRONT_MATCH
        for u in front_rest:
            cls[u] = CLS_FRONT_REST
        for v in second_match:
            cls[v] = CLS_SECOND_MATCH
        for v in second_rest:
            cls[v] = CLS_SECOND_REST
        for v in upper:
            cls[v] = CLS_UPPER

        # Right side of the pair graph: every live node that is not matched,
        # in topological order (front < second < upper positions).
        outside = front_rest + second_rest + tuple(upper)
        outside_rank = {v: r for r, v in enumerate(outside)}

        # Per-biclique reach of its matched second side, restricted to upper
        # nodes; rest-class flags stay zero (nothing ever reads them).
        via_second: dict[int, int] = {v: 0 for v in outside}
        upper_hit_mask = []
        for _, b_side in bicliques:
            m = 0
            for b in b_side:
                m |= live_rows[b]
            m &= upper_mask
            upper_hit_mask.append(m)
        for i, m in enumerate(upper_hit_mask):
            for v in _iter_bits(m):
                via_second[v] |= 1 << i

        sm_mask = _mask_of(second_match)
        sr_mask = _mask_of(second_rest)

        # Consumed edges as rows u -> mask of v. Near: matched-to-matched and
        # rest-to-rest front/second edges (the latter are the decomposition's
        # rest edges). Far: every other edge leaving a matched node, plus the
        # front rest nodes' edges into the matched second side.
        near_rows = {
            u: live_rows[u] & (sm_mask if u in pair_of else sr_mask) for u in front
        }
        far_rows = {
            u: live_rows[u] & (sr_mask | upper_mask if u in pair_of else sm_mask)
            for u in front
        }
        far_rows.update((v, live_rows[v] & upper_mask) for v in second_match)

        # Pair graph: row j is the j-th matched pair, bit r the r-th outside
        # node; the bit answers the one far edge case that applies to that
        # node's class (and, for upper nodes, to the flag).
        pair_rows = []
        for j, (aj, bj) in enumerate(pairs):
            fluff = upper_hit_mask[pair_bic[j]]
            row_a = live_rows[aj]
            hits = row_a & sr_mask | live_rows[bj] & fluff | row_a & upper_mask & ~fluff
            pair_rows.append(_ranked(hits, outside_rank))
        for u in front_rest:
            bit = 1 << outside_rank[u]
            for bj in _iter_bits(live_rows[u] & sm_mask):
                pair_rows[pair_of[bj]] |= bit

        rest_map = build_n_rest(dec)

        near_inst = None
        if n_bic:
            sm_rank = {v: r for r, v in enumerate(second_match)}
            rows = tuple(_ranked(near_rows[u], sm_rank) for u in front_match)
            half = (n_pairs + 1) // 2 + 1
            near_inst = BipartiteInstance(n_pairs, n_pairs, half, half, rows)

        records.append(
            IterationRecord(
                s=s,
                termination=dec.termination,
                live=live,
                front_match=front_match,
                second_match=second_match,
                front_rest=front_rest,
                second_rest=second_rest,
                cls=cls,
                bicliques=bicliques,
                pairs=tuple(pairs),
                pair_of=pair_of,
                bic_of=bic_of,
                pair_bic=tuple(pair_bic),
                n_pairs=n_pairs,
                outside=outside,
                outside_rank=outside_rank,
                via_second=via_second,
                near_rows=near_rows,
                far_rows=far_rows,
                pair_rows=tuple(pair_rows),
                rest_map=rest_map,
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
        peel.near_sections = _encode_near_sections(n, k, pos, peel.records)
    far = _encode_far_sections(n, k, records)
    near = peel.near_sections
    sections = tuple(
        tuple(
            near[u][i // 2] if i % 2 == 0 else far[u][i // 2]
            for i in range(2 * (k - 1))
        )
        for u in range(n)
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


def _retired_code() -> BitString:
    w = BitWriter()
    w.write(CLS_RETIRED, CLASS_BITS)
    return w.finish()


def _encode_near_sections(n, k, pos, records):
    retired_bits = _retired_code()
    per_node = [[retired_bits] * (k - 1) for _ in range(n)]
    for rec in records:
        near_labels = encode_bipartite(rec.near_inst) if rec.n_pairs else []
        fm_rank = {u: r for r, u in enumerate(rec.front_match)}
        sm_rank = {v: r for r, v in enumerate(rec.second_match)}
        for u in rec.live:
            c = rec.cls[u]
            w = BitWriter()
            w.write(c, CLASS_BITS)
            if c == CLS_FRONT_MATCH:
                write_embedded(w, near_labels[fm_rank[u]], n)
            elif c == CLS_SECOND_MATCH:
                write_embedded(w, near_labels[rec.n_pairs + sm_rank[u]], n)
            elif c in (CLS_FRONT_REST, CLS_SECOND_REST):
                build_set((pos[x] for x in rec.rest_map.get(u)), n).write(w)
            per_node[u][rec.s - 1] = w.finish()
    return tuple(tuple(secs) for secs in per_node)


def _encode_far_sections(n, k, records):
    iw = index_width(n)
    retired_bits = _retired_code()
    per_node = [[retired_bits] * (k - 1) for _ in range(n)]
    for rec in records:
        far_labels = encode_bipartite(rec.far_inst) if rec.n_pairs else []
        nb = len(rec.bicliques)
        for u in rec.live:
            c = rec.cls[u]
            w = BitWriter()
            w.write(c, CLASS_BITS)
            if rec.n_pairs:
                if c in (CLS_FRONT_MATCH, CLS_SECOND_MATCH):
                    w.write(rec.bic_of[u], iw)
                    write_embedded(w, far_labels[rec.pair_of[u]], n)
                else:
                    write_embedded(
                        w, far_labels[rec.n_pairs + rec.outside_rank[u]], n
                    )
                    if nb:
                        flags = rec.via_second[u]
                        w.write(int(format(flags, f"0{nb}b")[::-1], 2), nb)
            per_node[u][rec.s - 1] = w.finish()
    return tuple(tuple(secs) for secs in per_node)


# -- per-node blob assembly and parsing -------------------------------------
#
# blob := k[count_width(n)] ow[6] removed_iter[cw] entry[cw] bounds payload
# with cw = count_width(k), ow = count_width(total payload bits), and
# bounds = 2(k-1)+1 cumulative section boundaries of ow bits each; sections
# are laid out near^1, far^1, near^2, far^2, ... with boundary fenceposts
# around them.


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
        if len(sec):
            w.write(read_fixed(sec, 0, len(sec)), len(sec))
    return w.finish()


@dataclass(frozen=True)
class NearSection:
    inf: int
    _bip: object = None
    keys: StaticSet | None = None

    def bip(self):
        return self._bip

    def contains(self, x: int) -> bool:
        return self.keys.contains(x)


@dataclass(frozen=True)
class FarSection:
    inf: int
    is_empty: bool
    bic: int | None = None
    _bip: object = None
    flag_mask: int = 0
    flag_len: int = 0

    def bip(self):
        return self._bip

    def via_second(self, i: int) -> int:
        if not 0 <= i < self.flag_len:
            raise ValueError(f"flag probe {i} out of range {self.flag_len}")
        return self.flag_mask >> i & 1


@dataclass(eq=False)
class ParsedCross:
    k: int
    removed_iter: int
    entry: int
    nears: tuple[NearSection, ...]
    fars: tuple[FarSection, ...]

    def sec_near(self, s: int) -> NearSection:
        return self.nears[s - 1]

    def sec_far(self, s: int) -> FarSection:
        return self.fars[s - 1]


def _parse_near(bits: BitString, off: int, length: int, n: int) -> NearSection:
    inf = read_fixed(bits, off, CLASS_BITS)
    used = CLASS_BITS
    if inf in (CLS_FRONT_MATCH, CLS_SECOND_MATCH):
        side = "A" if inf == CLS_FRONT_MATCH else "B"
        emb, w = read_embedded(bits, off + CLASS_BITS, n, side)
        used += w
        sec = NearSection(inf, _bip=emb)
    elif inf in (CLS_FRONT_REST, CLS_SECOND_REST):
        ss, w = StaticSet.read(bits, off + CLASS_BITS, n)
        used += w
        sec = NearSection(inf, keys=ss)
    else:
        sec = NearSection(inf)
    if used != length:
        raise ValueError(f"near section length {length}, parsed {used}")
    return sec


def _parse_far(bits: BitString, off: int, length: int, n: int) -> FarSection:
    inf = read_fixed(bits, off, CLASS_BITS)
    if length == CLASS_BITS:
        return FarSection(inf, is_empty=True)
    iw = index_width(n)
    if inf in (CLS_FRONT_MATCH, CLS_SECOND_MATCH):
        bic = read_fixed(bits, off + CLASS_BITS, iw)
        emb, w = read_embedded(bits, off + CLASS_BITS + iw, n, "A")
        if CLASS_BITS + iw + w != length:
            raise ValueError("far section length mismatch")
        return FarSection(inf, is_empty=False, bic=bic, _bip=emb)
    emb, w = read_embedded(bits, off + CLASS_BITS, n, "B")
    flag_len = length - CLASS_BITS - w
    if flag_len < 0:
        raise ValueError("far section length mismatch")
    p = off + CLASS_BITS + w
    mask = 0
    if flag_len:
        raw = read_fixed(bits, p, flag_len)
        mask = int(format(raw, f"0{flag_len}b")[::-1], 2)
    return FarSection(inf, is_empty=False, _bip=emb, flag_mask=mask, flag_len=flag_len)


def parse_cross(bits: BitString, offset: int, n: int) -> tuple[ParsedCross, int]:
    """Eager parse of one node's blob; returns (parsed, bits consumed)."""
    kf = count_width(n)
    k = read_fixed(bits, offset, kf)
    if k < 1:
        raise ValueError("corrupt blob: no groups")
    ow = read_fixed(bits, offset + kf, RATE_BITS)
    cw = count_width(k)
    p = offset + kf + RATE_BITS
    both = read_fixed(bits, p, 2 * cw)
    removed = both >> cw
    ent = both & (1 << cw) - 1
    p += 2 * cw
    nb = 2 * (k - 1) + 1
    block = read_fixed(bits, p, nb * ow)
    omask = (1 << ow) - 1
    bounds = [block >> ow * (nb - 1 - i) & omask for i in range(nb)]
    payload = p + nb * ow
    nears = []
    fars = []
    for s in range(1, k):
        i = 2 * (s - 1)
        nears.append(
            _parse_near(bits, payload + bounds[i], bounds[i + 1] - bounds[i], n)
        )
        fars.append(
            _parse_far(bits, payload + bounds[i + 1], bounds[i + 2] - bounds[i + 1], n)
        )
    parsed = ParsedCross(k, removed, ent, tuple(nears), tuple(fars))
    return parsed, payload + bounds[-1] - offset


# -- lazy, read-counted views ------------------------------------------------


class LazyNearSection:
    __slots__ = ("_read", "_off", "_n", "inf")

    def __init__(self, read, off: int, n: int):
        self._read = read
        self._off = off
        self._n = n
        self.inf = read(off, CLASS_BITS)

    def bip(self):
        side = "A" if self.inf == CLS_FRONT_MATCH else "B"
        return LazyEmbedded(self._read, self._off + CLASS_BITS, self._n, side)

    def contains(self, x: int) -> bool:
        return probe_serialized(self._read, self._off + CLASS_BITS, self._n, x)


class LazyFarSection:
    __slots__ = ("_read", "_off", "_end", "_n", "inf", "is_empty", "_emb")

    def __init__(self, read, off: int, end: int, n: int):
        self._read = read
        self._off = off
        self._end = end
        self._n = n
        self.inf = read(off, CLASS_BITS)
        self.is_empty = end - off == CLASS_BITS
        self._emb = None

    @property
    def bic(self) -> int:
        return self._read(self._off + CLASS_BITS, index_width(self._n))

    def bip(self):
        if self._emb is None:
            if self.inf in (CLS_FRONT_MATCH, CLS_SECOND_MATCH):
                start = self._off + CLASS_BITS + index_width(self._n)
                self._emb = LazyEmbedded(self._read, start, self._n, "A")
            else:
                self._emb = LazyEmbedded(
                    self._read, self._off + CLASS_BITS, self._n, "B"
                )
        return self._emb

    def via_second(self, i: int) -> int:
        base = self.bip().end_offset()
        if not 0 <= i < self._end - base:
            raise ValueError(f"flag probe {i} out of range {self._end - base}")
        return self._read(base + i, 1)


class CrossView:
    """Navigates one node's blob through a read(offset, width) callable."""

    __slots__ = ("_read", "_base", "_n", "k", "_ow", "removed_iter", "entry", "_tab", "_payload")

    def __init__(self, read, base: int, n: int):
        kf = count_width(n)
        self._read = read
        self._base = base
        self._n = n
        head = read(base, kf + RATE_BITS)
        self.k = head >> RATE_BITS
        self._ow = head & (1 << RATE_BITS) - 1
        cw = count_width(self.k)
        both = read(base + kf + RATE_BITS, 2 * cw)
        self.removed_iter = both >> cw
        self.entry = both & (1 << cw) - 1
        self._tab = base + kf + RATE_BITS + 2 * cw
        self._payload = self._tab + (2 * (self.k - 1) + 1) * self._ow

    def _bounds(self, idx: int) -> tuple[int, int]:
        ow = self._ow
        both = self._read(self._tab + idx * ow, 2 * ow)
        return both >> ow, both & (1 << ow) - 1

    def sec_near(self, s: int) -> LazyNearSection:
        b0, _ = self._bounds(2 * (s - 1))
        return LazyNearSection(self._read, self._payload + b0, self._n)

    def sec_far(self, s: int) -> LazyFarSection:
        b0, b1 = self._bounds(2 * (s - 1) + 1)
        return LazyFarSection(self._read, self._payload + b0, self._payload + b1, self._n)


# -- decoding ----------------------------------------------------------------


def decode_near(su, sv, pos_u: int, pos_v: int) -> bool:
    cu, cv = su.inf, sv.inf
    if cu == CLS_FRONT_MATCH and cv == CLS_SECOND_MATCH:
        return probe_pair(su.bip(), sv.bip())
    if cu == CLS_FRONT_REST and cv == CLS_SECOND_REST:
        return su.contains(pos_v) or sv.contains(pos_u)
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
        if sv.via_second(su.bic):
            return True
        return probe_pair(su.bip(), sv.bip())
    if cu == CLS_SECOND_MATCH and cv == CLS_UPPER:
        if sv.via_second(su.bic):
            return probe_pair(su.bip(), sv.bip())
        return False
    return False


def decode_cross(lu, lv, pos_u: int, pos_v: int) -> bool:
    """Cross-group edge membership from two blob views (parsed or lazy).

    Queries with u at or above v's entry group are never cross edges. The
    answering iteration is v's entry (where v is still in the second group)
    unless u retired earlier.
    """
    if lu.entry >= lv.entry:
        return False
    s = min(lu.removed_iter, lv.entry - 1)
    if decode_near(lu.sec_near(s), lv.sec_near(s), pos_u, pos_v):
        return True
    return decode_far(lu.sec_far(s), lv.sec_far(s))
