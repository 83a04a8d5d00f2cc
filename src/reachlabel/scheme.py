"""Top-level label assembly and the unified two-label query.

Three schemes share one self-describing container:

  warmup  (id 1)  topological index plus a half-range comparability window;
  third   (id 2)  grouped layers with per-node half-windows over each
                  group, plus peeled cross-group sections holding pair
                  tables on both sides;
  average (id 3)  same pipeline with the pair-graph budget shifted entirely
                  onto the unmatched side, so retired nodes keep no pair
                  table bits.

Label layouts (MSB-first bit fields, see bitio)::

    warmup:    scheme[8] n[32] | scc[iw] | index[iw] | window[n//2]
    composite: scheme[8] n[32] | intra | blob
      intra =  topo[iw] grp[iw] beg[iw] end[cw] thick[1] table[(end-beg)//2]
               (the table, a half-window over the group, is present only
               for thin groups)

with iw = index_width(n), cw = count_width(n). Each strongly connected
component is labeled once and its members share that label. A warm-up
label's ``scc`` holds the component id; a composite label stores none, as
its ``topo`` is just as unique per component and serves as its ``scc``.
The header is scheme[8] n[32] for every scheme; its n is the component
count for the composite schemes and the node count for the warm-up, whose
window runs over graph nodes. No offset is stored: the intra section
starts after the header, and the blob where the intra section ends.

One decoder reads every label: a label is an int in memory (bytes only in
the label file), and a LabelView, its own word-counting reader, reads its
fields by shift and mask while counting 64-bit words. It holds the intra
section (or a warm-up window), views the blob, and keeps one record per
blob iteration holding that iteration's section offsets, sub-label
indices, set size, and the tables, keys and flags as ints.
Each field group has one reader, which both ways of reading below share:
``query_lazy`` builds two fresh views whose records read each field group
on first use, so a single query reads only the bits it touches and reports
the words read (a pair that needs no blob builds just the two views); a
record finds its sections by summing the lengths of the iterations before
it. ``parse_label`` first walks the whole view: it
checks the blob's entry (the intra group + 1) and retirement, and reads
the pair schedule and the biclique counts with one read each.
``crosslabel.blob_plan`` checks those and derives each iteration's shape,
the node's class, instance sizes, index widths and flag count (no offset,
class or size is stored); the labels of one encoding share their schedule
and counts, so this runs once per distinct head. The walk then reads what
differs between labels, sub-label indices and tables, rest sets and
flags, through the readers a lazy record uses, and lays the sections out
back to back: the last section must end where the label does. That
rejects a corrupt label with ValueError, whatever heads were planned
before, and keeps the walked records for bulk queries. Field widths are
computed once per n (``bitio.widths``). ``query`` answers from either
kind, and routes a composite pair by component, then by group order,
then by intra table or blob: one component answers True, and a pair
whose u group is not below v's answers from the intra sections, which the
view read with the header, once their group intervals agree. Only a pair
with u's group below v's views the two blobs, so only such a pair reads a
blob word.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

from .bitio import (
    WARMUP_ID,
    BitString,
    BitWriter,
    LabelHeader,
    LabelReader,
    index_width,
    overrun_error,
    widths,
)
from .crosslabel import (
    CrossLabeling,
    CrossView,
    PeelResult,
    assemble_cross,
    build_cross_labeling,
    decode_cross,
    peel_cross,
)
from .flatten import (
    GroupLabel,
    build_superlayers,
    decode_inner,
    encode_inner,
    write_inner,
)
from .graph import Digraph, longest_path_layers, scc_condense, transitive_closure
from .warmup import WarmupLabel, decode_warmup, encode_warmup

SCHEME_IDS = {"warmup": WARMUP_ID, "third": 2, "average": 3}
SCHEME_NAMES = {i: s for s, i in SCHEME_IDS.items()}


class Pipeline:
    """Per-graph encoding stages, computed once and shared across schemes.

    The condensation, closure, layering, grouping and intra-group tables are
    identical for every scheme and biclique profile, so one Pipeline can feed
    any number of encode() calls on the same graph. The peel is made once per
    profile name and shared by both composite schemes; each of them encodes
    its own cross sections from it. The intra-group tables and the peel both
    read the closure rows in place, so the closure is the only row matrix a
    Pipeline holds. Every stage after ``scc`` runs on the quotient DAG and
    is indexed by component, except ``inner_labels`` and ``warm_labels``,
    which are indexed by graph node.
    """

    def __init__(self, g: Digraph):
        self.g = g
        self._cross: dict[tuple[str, str], CrossLabeling] = {}
        self._peels: dict[str, PeelResult] = {}

    @cached_property
    def scc(self):
        return scc_condense(self.g)

    @cached_property
    def closed(self):
        return transitive_closure(self.scc.dag)

    @cached_property
    def layered(self):
        return longest_path_layers(self.closed, self.scc.dag.rows)

    @cached_property
    def slayer(self):
        return build_superlayers(self.layered)

    @cached_property
    def inner_labels(self) -> list[GroupLabel]:
        inner = encode_inner(self.layered, self.slayer)
        return self.scc.expand(inner)

    @cached_property
    def warm_labels(self) -> list[WarmupLabel]:
        sizes = Counter(self.scc.scc_id)  # members per component
        return self.scc.expand(encode_warmup(self.layered, sizes))

    def peel(self, profile: str) -> PeelResult:
        if profile not in self._peels:
            self._peels[profile] = peel_cross(self.layered, self.slayer, profile)
        return self._peels[profile]

    def cross_labeling(self, profile: str, variant: str) -> CrossLabeling:
        key = (profile, variant)
        if key not in self._cross:
            self._cross[key] = build_cross_labeling(self.peel(profile), variant)
        return self._cross[key]


@dataclass(eq=False)
class LabelSet:
    """Encoder output: one bit-string label per node, plus build artifacts.

    ``pipeline`` and ``cross`` are conveniences for audits and statistics;
    decoding never touches them. ``cross`` is the pipeline's cross labeling
    with its per-node tuples indexed by graph node; its records stay
    indexed by component.
    """

    scheme: str
    scheme_id: int
    n: int
    labels: list[BitString]
    pipeline: Pipeline | None = None
    cross: CrossLabeling | None = None


def encode(
    g: Digraph,
    scheme: str,
    profile: str = "paper",
    *,
    pipeline: Pipeline | None = None,
) -> LabelSet:
    """Label every node of ``g``; deterministic given (g, scheme, profile).

    Each component of the condensation is labeled once, and all its members
    get that same label.
    """
    if scheme not in SCHEME_IDS:
        raise ValueError(f"unknown scheme {scheme!r}")
    sid = SCHEME_IDS[scheme]
    pl = pipeline if pipeline is not None else Pipeline(g)
    lead = pl.scc.leaders  # a member of each component, by component id
    labels: list[BitString] = []

    if sid == WARMUP_ID:
        iw = index_width(g.n)
        warm = pl.warm_labels
        for c, u in enumerate(lead):
            w = BitWriter()
            LabelHeader(sid, g.n).write(w)
            w.write(c, iw)
            wl = warm[u]
            w.write(wl.index, iw)
            w.write(wl.table, wl.table_len)
            labels.append(w.finish())
        return LabelSet(scheme, sid, g.n, pl.scc.expand(labels), pipeline=pl)

    variant = "third" if scheme == "third" else "average"
    cl = pl.cross_labeling(profile, variant)
    inner = pl.inner_labels
    n = len(lead)
    for c, u in enumerate(lead):
        w = BitWriter()
        LabelHeader(sid, n).write(w)
        write_inner(w, inner[u], n)
        w.append(assemble_cross(cl, c))
        labels.append(w.finish())
    x = pl.scc.expand
    by_node = replace(cl, entry=x(cl.entry), removed_iter=x(cl.removed_iter),
                      sections=x(cl.sections))
    return LabelSet(scheme, sid, g.n, x(labels), pipeline=pl, cross=by_node)


# -- decoding ------------------------------------------------------------------


class LabelView(LabelReader):
    """Decode view of one label, and its own word-counting reader.

    Construction reads the header and, by one more shift of the label int,
    a warm-up label's ``scc`` and ``index`` or a composite label's intra
    fields ``topo grp beg end thick`` (``topo`` serves as ``scc``, and
    ``place`` holds grp to thick as one int), each checked for overrun and
    charged as one counted read. The warm-up or intra window is kept
    uncounted as an int of ``width`` bits ending at offset ``end_offset``,
    where a blob starts. ``inner`` and ``warm`` are the view itself for its
    scheme, else None.

    ``words`` counts the 64-bit words a pointer-based decoder would fetch,
    and one per table probe: a blob-free query, the header and placement
    words and, in a shared thin group with u first, one window probe. A
    cross pair views the blob over the view (``view_cross``), dropped with
    the query. ``check`` walks it through a LabelReader of its own, sharing
    ``probes``, and keeps it in ``cross``, so that no view refers back to
    itself; ``words`` adds the walk's words, and later blob reads count on
    ``cross.read``.
    """

    __slots__ = ("scheme_id", "n", "scc", "topo", "grp", "beg", "end", "thick", "index",
                 "table", "width", "end_offset", "cross", "place")

    def __init__(self, bits: BitString):
        self.value = value = bits.value
        self.length = length = bits.length
        self.probes = self.cross = None
        p = LabelHeader.HEADER_FIXED_BITS
        if length < p:
            raise overrun_error(0, p, length)
        head = value >> length - p
        self.n = n = head & 0xFFFFFFFF
        self.scheme_id = sid = head >> 32
        if sid not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme id {sid}")
        wd = widths(n)
        iw, imask = wd.iw, wd.imask
        span = 2 * iw if sid == WARMUP_ID else wd.placement
        at = p + span
        if at > length:
            raise overrun_error(p, span, length)
        fields = value >> length - at
        if sid == WARMUP_ID:
            self.scc = fields >> iw & imask
            self.index = fields & imask
            self.width = width = n >> 1
            self.words = wd.warm_words
        else:
            self.place = fields & (1 << wd.placement - iw) - 1  # grp beg end thick
            self.thick = thick = fields & 1
            self.end = end = fields >> 1 & wd.cmask
            fields >>= wd.cw + 1
            self.beg = beg = fields & imask
            self.grp = fields >> iw & imask
            self.scc = self.topo = fields >> 2 * iw & imask
            self.width = width = 0 if thick else end - beg >> 1  # end < beg stays < 0
            self.words = wd.head_words
        self.end_offset = stop = at + width
        if width < 0 or stop > length:
            raise overrun_error(at, width, length)
        self.table = value >> length - stop & (1 << width) - 1 if width else 0

    @property
    def inner(self) -> LabelView | None:
        return None if self.scheme_id == WARMUP_ID else self

    @property
    def warm(self) -> LabelView | None:
        return self if self.scheme_id == WARMUP_ID else None

    def view_cross(self, read: LabelReader | None = None) -> CrossView:
        """The blob, after the intra section, of a node entering at the group
        after its own, read through ``read`` (by default this view), unkept."""
        return CrossView(read or self, self.end_offset, widths(self.n),
                         SCHEME_NAMES[self.scheme_id], self.grp + 1)

    def check(self) -> None:
        """Raise ValueError unless a warm-up index is below n, each blob section
        decodes where the one before it ends (``CrossView.check``, keeping one
        record per iteration) and the label ends where its last section does."""
        if self.scheme_id == WARMUP_ID:
            if self.index >= self.n:
                raise ValueError("warm-up index outside 0..n-1")
            end = self.end_offset
        else:
            read = LabelReader(self)
            read.probes = self.probes
            self.cross = self.view_cross(read)
            end = self.cross.check()
            self.words += read.words
        if end != self.length:
            raise ValueError("label length mismatch")


def parse_label(bits: BitString) -> LabelView:
    """A checked view for bulk queries: every section is walked once, so a
    corrupt label fails here with ValueError, and the walked records are kept."""
    lab = LabelView(bits)
    lab.check()
    return lab


def query(lu, lv) -> bool:
    """Reachability u -> v from two label views.

    A composite pair is routed by component, then by group order: a pair
    in one component answers True; a pair whose u group is not below v's
    answers from the intra fields alone (``decode_inner``); only a pair
    with u's group below v's views both blobs and decodes across, through
    the walked blob views of checked labels and otherwise through blob
    views over the label views, dropped with the query.
    """
    if lu.scheme_id != lv.scheme_id or lu.n != lv.n:
        raise ValueError("labels disagree on scheme or node count")
    if lu.scc == lv.scc:
        return True
    if lu.scheme_id == WARMUP_ID:
        return decode_warmup(lu, lv)
    if lu.grp >= lv.grp:
        return decode_inner(lu, lv)
    return decode_cross(lu.cross or lu.view_cross(), lv.cross or lv.view_cross(),
                        lu.topo, lv.topo)


def query_lazy(bits_u: BitString, bits_v: BitString) -> tuple[bool, int]:
    """Answer one query from raw labels, reading only the fields it needs;
    also return total word reads."""
    lu = LabelView(bits_u)
    lv = LabelView(bits_v)
    ans = query(lu, lv)
    return ans, lu.words + lv.words


# -- measurement ---------------------------------------------------------------


def _agg(vals) -> dict:
    vals = list(vals)
    if not vals:
        return {"max": 0, "mean": 0.0}
    return {"max": max(vals), "mean": sum(vals) / len(vals)}


def ledger(lab: LabelView) -> dict[str, int]:
    """The bits of each field of a checked label view (``parse_label``),
    in label order; they sum to the label's length. A warm-up label has
    header, scc, index and window; a composite label has header,
    intra_placement, intra_table and the blob's fields (``CrossView.ledger``)."""
    wd = widths(lab.n)
    out = {"header": LabelHeader.HEADER_FIXED_BITS}
    if lab.scheme_id == WARMUP_ID:
        return out | {"scc": wd.iw, "index": wd.iw, "window": lab.width}
    return out | {"intra_placement": wd.placement, "intra_table": lab.width} | lab.cross.ledger()


def stats(ls: LabelSet) -> dict:
    """Exact bit counts, total, per section and per field (``ledger``, from
    each distinct label's checked view), straight from the labels.

    Field widths follow each label's header n, which for the composite
    schemes is the component count, not ``ls.n``. A composite label's
    sections are the header, the intra section and the blob.
    """
    lens = [len(b) for b in ls.labels]
    fields = {b: ledger(parse_label(b)) for b in dict.fromkeys(ls.labels)}
    rows = [fields[b] for b in ls.labels]
    names = rows[0] if rows else {}
    led = {name: _agg(r[name] for r in rows) for name in names}
    if ls.scheme_id == WARMUP_ID:
        sections = led
    else:
        intra = [r["intra_placement"] + r["intra_table"] for r in rows]
        sections = {"header": _agg(r["header"] for r in rows), "intra": _agg(intra),
                    "cross": _agg(k - r["header"] - i for k, r, i in zip(lens, rows, intra))}
    return {
        "scheme": ls.scheme,
        "n": ls.n,
        "max_bits": max(lens, default=0),
        "mean_bits": sum(lens) / len(lens) if lens else 0.0,
        "sections": sections,
        "ledger": led,
    }
