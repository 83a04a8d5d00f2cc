"""Top-level label assembly and the unified two-label query.

Three schemes share one self-describing container:

  warmup  (id 1)  topological index plus a half-range comparability window;
  third   (id 2)  grouped layers with per-node interval tables, plus peeled
                  cross-group sections holding pair tables on both sides;
  average (id 3)  same pipeline with the pair-graph budget shifted entirely
                  onto the unmatched side, so retired nodes keep no pair
                  table bits.

Label layouts (MSB-first bit fields, see bitio)::

    warmup:    header | scc[iw] | index[iw] | window[n//2]
    composite: header | scc[iw] | intra | blob
      intra =  topo[iw] grp[iw] beg[iw] end[cw] thick[1] table[end-beg]
               (the table is present only for thin groups)

with iw = index_width(n), cw = count_width(n). Each strongly connected
component is labeled once and its members share that label; ``scc`` holds
the component id. The header n is the component count for the composite
schemes and the node count for the warm-up, whose window runs over graph
nodes. A composite header records the absolute bit offsets of the intra
section and the blob, so the decoder can jump without scanning.

One decoder reads every label: a label is an int in memory (bytes only in
the label file), and a LabelView reads its fields by shift and mask while
counting 64-bit words, and builds the views of its sections (intra, blob,
near and far sections, embedded sub-labels, neighbor sets) as a query
needs them. ``query_lazy`` builds two fresh views, so a single query reads
only the bits it touches and reports the words read. ``parse_label`` first
walks the whole view: it checks the header offsets and the intra section,
reads the blob's bounds table and its section classes with one read each,
and builds each section's view from its bounds and class, checking that
the content the view decodes exactly fills the section. That rejects a
corrupt label with ValueError and keeps the walked views for bulk queries.
Field widths that follow from the header n are computed once per n
(``bitio.widths``). ``query`` answers from either kind.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

from .biclique import get_profile
from .bitio import (
    BitString,
    BitWriter,
    LabelHeader,
    LabelReader,
    count_width,
    index_width,
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
    InnerView,
    build_superlayers,
    decode_inner,
    encode_inner,
    split_rows,
    write_inner,
)
from .graph import Digraph, longest_path_layers, scc_condense, transitive_closure
from .warmup import WarmupLabel, WindowView, decode_warmup, encode_warmup

SCHEME_IDS = {"warmup": 1, "third": 2, "average": 3}
SCHEME_NAMES = {i: s for s, i in SCHEME_IDS.items()}
PROFILES = ("paper", "force")

_WARMUP = SCHEME_IDS["warmup"]


class Pipeline:
    """Per-graph encoding stages, computed once and shared across schemes.

    The condensation, closure, layering, grouping and intra-group tables are
    identical for every scheme and biclique profile, so one Pipeline can feed
    any number of encode() calls on the same graph. Every stage after ``scc``
    runs on the quotient DAG and is indexed by component, except
    ``inner_labels`` and ``warm_labels``, which are indexed by graph node.
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
        return longest_path_layers(self.closed)

    @cached_property
    def slayer(self):
        return build_superlayers(self.layered)

    @cached_property
    def _split(self):
        return split_rows(self.layered, self.slayer)

    @property
    def inner_rows(self) -> list[int]:
        return self._split[0]

    @property
    def cross_rows(self) -> list[int]:
        return self._split[1]

    @cached_property
    def inner_labels(self) -> list[GroupLabel]:
        inner = encode_inner(self.layered, self.slayer, self.inner_rows)
        return self.scc.expand(inner)

    @cached_property
    def warm_labels(self) -> list[WarmupLabel]:
        sizes = Counter(self.scc.scc_id)  # members per component
        return self.scc.expand(encode_warmup(self.layered, sizes))

    def peel(self, profile: str) -> PeelResult:
        name = get_profile(profile).name
        if name not in self._peels:
            self._peels[name] = peel_cross(
                self.layered, self.slayer, self.cross_rows, profile=profile
            )
        return self._peels[name]

    def cross_labeling(self, profile: str, variant: str) -> CrossLabeling:
        key = (get_profile(profile).name, variant)
        if key not in self._cross:
            self._cross[key] = build_cross_labeling(
                self.layered,
                self.slayer,
                self.cross_rows,
                profile=profile,
                variant=variant,
                peel=self.peel(profile),
            )
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

    if sid == _WARMUP:
        iw = index_width(g.n)
        warm = pl.warm_labels
        for c, u in enumerate(lead):
            w = BitWriter()
            LabelHeader(sid, g.n).write(w)
            w.write(c, iw)
            wl = warm[u]
            w.write(wl.index, iw)
            w.write_table(wl.table, wl.table_len)
            labels.append(w.finish())
        return LabelSet(scheme, sid, g.n, pl.scc.expand(labels), pipeline=pl)

    variant = "third" if scheme == "third" else "average"
    cl = pl.cross_labeling(profile, variant)
    inner = pl.inner_labels
    n = len(lead)
    iw = index_width(n)
    cw = count_width(n)
    intra_off = LabelHeader.HEADER_FIXED_BITS + 2 * LabelHeader.OFFSET_BITS + iw
    for c, u in enumerate(lead):
        gl = inner[u]
        blob = assemble_cross(cl, c)
        blob_off = intra_off + 3 * iw + cw + 1 + (0 if gl.thick else gl.end - gl.beg)
        w = BitWriter()
        LabelHeader(sid, n, (intra_off, blob_off)).write(w)
        w.write(c, iw)
        write_inner(w, gl, n)
        w.append(blob)
        labels.append(w.finish())
    x = pl.scc.expand
    by_node = replace(cl, entry=x(cl.entry), removed_iter=x(cl.removed_iter),
                      sections=x(cl.sections), pos=x(cl.pos))
    return LabelSet(scheme, sid, g.n, x(labels), pipeline=pl, cross=by_node)


# -- decoding ------------------------------------------------------------------


class LabelView:
    """Decode view of one label, read through a word-counting LabelReader.

    The header, the component id and (warm-up) the index and window are
    read on construction. A composite label's intra section and blob are
    viewed on first use (``view_inner``, ``view_cross``) and kept in
    ``inner`` and ``cross``, which stay None until then. ``words`` is the
    number of 64-bit word fetches a pointer-based decoder would have made
    so far.
    """

    __slots__ = ("read", "scheme_id", "n", "scc", "warm", "_offsets", "inner", "cross")

    def __init__(self, bits: BitString):
        r = LabelReader(bits)
        self.read = r
        head = r(0, LabelHeader.HEADER_FIXED_BITS)
        noff = head & 0xFF
        self.n = head >> 8 & 0xFFFFFFFF
        self.scheme_id = head >> 40
        if self.scheme_id not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme id {self.scheme_id}")
        if noff != (0 if self.scheme_id == _WARMUP else 2):
            raise ValueError(f"{noff} section offsets for scheme id {self.scheme_id}")
        # composite labels carry exactly two 32-bit section offsets
        packed = r(LabelHeader.HEADER_FIXED_BITS, 2 * LabelHeader.OFFSET_BITS) if noff else 0
        self._offsets = (packed >> 32, packed & 0xFFFFFFFF)[:noff]
        iw = index_width(self.n)
        p = LabelHeader.HEADER_FIXED_BITS + LabelHeader.OFFSET_BITS * noff
        if self.scheme_id == _WARMUP:
            both = r(p, 2 * iw)
            self.scc = both >> iw
            self.warm = WindowView(r, self.n, both & (1 << iw) - 1, p + 2 * iw)
        else:
            self.scc = r(p, iw)
            self.warm = None
        self.inner = None
        self.cross = None

    def view_inner(self) -> InnerView:
        self.inner = InnerView(self.read, widths(self.n), self._offsets[0])
        return self.inner

    def view_cross(self) -> CrossView:
        self.cross = CrossView(self.read, self._offsets[1], widths(self.n))
        return self.cross

    @property
    def words(self) -> int:
        return self.read.words

    def check(self) -> None:
        """Raise ValueError unless a warm-up index is below n, the header
        offsets match the layout, the intra section ends where the blob begins, every blob section
        exactly fills its bounds (``CrossView.check``, which keeps the
        section views) and the label ends where its last section does."""
        iw = index_width(self.n)
        if self.warm is not None:
            if self.warm.index >= self.n:
                raise ValueError("warm-up index outside 0..n-1")
            end = LabelHeader.HEADER_FIXED_BITS + 2 * iw + self.n // 2
        else:
            intra_off, blob_off = self._offsets
            if intra_off != LabelHeader.HEADER_FIXED_BITS + 2 * LabelHeader.OFFSET_BITS + iw:
                raise ValueError("intra section offset mismatch")
            if self.view_inner().end_offset != blob_off:
                raise ValueError("blob offset mismatch")
            end = self.view_cross().check()
        if end != self.read.length:
            raise ValueError("label length mismatch")


def parse_label(bits: BitString) -> LabelView:
    """A checked view for bulk queries: every section is walked once, so a
    corrupt label fails here with ValueError, and the walked views are kept."""
    lab = LabelView(bits)
    lab.check()
    return lab


def query(lu, lv) -> bool:
    """Reachability u -> v from two label views."""
    if lu.scheme_id != lv.scheme_id or lu.n != lv.n:
        raise ValueError("labels disagree on scheme or node count")
    if lu.scc == lv.scc:
        return True
    if lu.scheme_id == _WARMUP:
        return decode_warmup(lu.warm, lv.warm)
    iu = lu.inner or lu.view_inner()
    iv = lv.inner or lv.view_inner()
    if decode_inner(iu, iv):
        return True
    cu = lu.cross or lu.view_cross()
    cv = lv.cross or lv.view_cross()
    return decode_cross(cu, cv, iu.topo, iv.topo)


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


def stats(ls: LabelSet) -> dict:
    """Exact bit counts, total and per section, straight from the labels.

    Field widths follow each label's header n, which for the composite
    schemes is the component count, not ``ls.n``.
    """
    lens = [len(b) for b in ls.labels]
    out = {
        "scheme": ls.scheme,
        "n": ls.n,
        "max_bits": max(lens, default=0),
        "mean_bits": sum(lens) / len(lens) if lens else 0.0,
    }
    hdrs = [LabelHeader.read(b) for b in ls.labels]
    sections = {
        "header": _agg(h.bit_length for h in hdrs),
        "scc": _agg(index_width(h.n) for h in hdrs),
    }
    if ls.scheme_id == _WARMUP:
        sections["index"] = sections["scc"]
        sections["window"] = _agg(h.n // 2 for h in hdrs)
    else:
        offs = [h.offsets for h in hdrs]
        sections["intra"] = _agg(i1 - i0 for i0, i1 in offs)
        sections["cross"] = _agg(len(b) - i1 for b, (_, i1) in zip(ls.labels, offs))
    out["sections"] = sections
    return out
