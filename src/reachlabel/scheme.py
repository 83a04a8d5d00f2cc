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
section and the blob, so the decoder can jump without scanning. Two decode
surfaces exist: an eager parse for bulk verification and a lazy view that
reads only the bits a single query touches (used to bound word reads).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .biclique import get_profile
from .bitio import (
    BitString,
    BitWriter,
    LabelHeader,
    count_width,
    index_width,
    read_fixed,
)
from .crosslabel import (
    CrossLabeling,
    CrossView,
    PeelResult,
    assemble_cross,
    build_cross_labeling,
    decode_cross,
    parse_cross,
    peel_cross,
)
from .flatten import GroupLabel, build_superlayers, decode_inner, encode_inner, split_rows
from .graph import Digraph, longest_path_layers, scc_condense, transitive_closure
from .warmup import WarmupLabel, decode_warmup, encode_warmup

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
        self._scc = None
        self._closed = None
        self._layered = None
        self._slayer = None
        self._split = None
        self._inner = None
        self._warm = None
        self._cross: dict[tuple[str, str], CrossLabeling] = {}
        self._peels: dict[str, PeelResult] = {}

    @property
    def scc(self):
        if self._scc is None:
            self._scc = scc_condense(self.g)
        return self._scc

    @property
    def closed(self):
        if self._closed is None:
            self._closed = transitive_closure(self.scc.dag)
        return self._closed

    @property
    def layered(self):
        if self._layered is None:
            self._layered = longest_path_layers(self.closed)
        return self._layered

    @property
    def slayer(self):
        if self._slayer is None:
            self._slayer = build_superlayers(self.layered)
        return self._slayer

    def _rows(self):
        if self._split is None:
            self._split = split_rows(self.layered, self.slayer)
        return self._split

    @property
    def inner_rows(self) -> list[int]:
        return self._rows()[0]

    @property
    def cross_rows(self) -> list[int]:
        return self._rows()[1]

    @property
    def inner_labels(self) -> list[GroupLabel]:
        if self._inner is None:
            inner = encode_inner(self.layered, self.slayer, self.inner_rows)
            self._inner = self.scc.expand(inner)
        return self._inner

    @property
    def warm_labels(self) -> list[WarmupLabel]:
        if self._warm is None:
            sizes = Counter(self.scc.scc_id)  # members per component
            self._warm = self.scc.expand(encode_warmup(self.layered, sizes))
        return self._warm

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
            tl = wl.table_len
            if tl:
                w.write(int(format(wl.table, f"0{tl}b")[::-1], 2), tl)
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
        tlen = 0 if gl.thick else gl.end - gl.beg
        blob_off = intra_off + 3 * iw + cw + 1 + tlen
        w = BitWriter()
        LabelHeader(sid, n, (intra_off, blob_off)).write(w)
        w.write(c, iw)
        w.write(gl.topo, iw)
        w.write(gl.grp, iw)
        w.write(gl.beg, iw)
        w.write(gl.end, cw)
        w.write(1 if gl.thick else 0, 1)
        if not gl.thick and tlen:
            w.write(int(format(gl.table, f"0{tlen}b")[::-1], 2), tlen)
        if len(blob):
            w.write(read_fixed(blob, 0, len(blob)), len(blob))
        labels.append(w.finish())
    x = pl.scc.expand
    by_node = replace(cl, entry=x(cl.entry), removed_iter=x(cl.removed_iter),
                      sections=x(cl.sections), pos=x(cl.pos))
    return LabelSet(scheme, sid, g.n, x(labels), pipeline=pl, cross=by_node)


def encode_average(g: Digraph, profile: str = "paper", **kw) -> LabelSet:
    """The variant whose retired nodes store no pair-table bits."""
    return encode(g, "average", profile, **kw)


# -- eager decoding ----------------------------------------------------------


class ParsedLabel:
    """Fully materialized label, cheap to query many times."""

    __slots__ = ("scheme_id", "n", "scc", "warm", "inner", "cross")

    def __init__(self, scheme_id, n, scc, warm=None, inner=None, cross=None):
        self.scheme_id = scheme_id
        self.n = n
        self.scc = scc
        self.warm = warm
        self.inner = inner
        self.cross = cross


def _unpack_lsb(bits: BitString, offset: int, width: int) -> int:
    """Read a table stored bit j at offset+j into an int with bit j low."""
    if width == 0:
        return 0
    val = read_fixed(bits, offset, width)
    return int(format(val, f"0{width}b")[::-1], 2)


def parse_label(bits: BitString) -> ParsedLabel:
    hdr = LabelHeader.read(bits)
    n = hdr.n
    iw = index_width(n)
    p = hdr.bit_length
    scc = read_fixed(bits, p, iw)
    p += iw
    if hdr.scheme_id == _WARMUP:
        if hdr.offsets:
            raise ValueError("warm-up labels carry no section offsets")
        idx = read_fixed(bits, p, iw)
        p += iw
        half = n // 2
        table = _unpack_lsb(bits, p, half)
        if p + half != len(bits):
            raise ValueError("label length mismatch")
        return ParsedLabel(hdr.scheme_id, n, scc, warm=WarmupLabel(n, idx, table))
    if hdr.scheme_id not in SCHEME_NAMES:
        raise ValueError(f"unknown scheme id {hdr.scheme_id}")
    if len(hdr.offsets) != 2:
        raise ValueError("composite labels need two section offsets")
    intra_off, blob_off = hdr.offsets
    if intra_off != p:
        raise ValueError("intra section offset mismatch")
    cw = count_width(n)
    topo = read_fixed(bits, p, iw)
    grp = read_fixed(bits, p + iw, iw)
    beg = read_fixed(bits, p + 2 * iw, iw)
    end = read_fixed(bits, p + 3 * iw, cw)
    thick = bool(read_fixed(bits, p + 3 * iw + cw, 1))
    p += 3 * iw + cw + 1
    table = 0
    if not thick:
        table = _unpack_lsb(bits, p, end - beg)
        p += end - beg
    if p != blob_off:
        raise ValueError("blob offset mismatch")
    gl = GroupLabel(topo, grp, beg, end, thick, table)
    cross, used = parse_cross(bits, blob_off, n)
    if blob_off + used != len(bits):
        raise ValueError("label length mismatch")
    return ParsedLabel(hdr.scheme_id, n, scc, inner=gl, cross=cross)


def query(lu, lv) -> bool:
    """Reachability u -> v from two label views (parsed or lazy)."""
    if lu.scheme_id != lv.scheme_id or lu.n != lv.n:
        raise ValueError("labels disagree on scheme or node count")
    if lu.scc == lv.scc:
        return True
    if lu.scheme_id == _WARMUP:
        return decode_warmup(lu.warm, lv.warm)
    iu = lu.inner
    iv = lv.inner
    if decode_inner(iu, iv):
        return True
    return decode_cross(lu.cross, lv.cross, iu.topo, iv.topo)


# -- lazy, read-counted decoding ----------------------------------------------


class CountingReader:
    """read(offset, width) over one BitString, counting 64-bit word reads."""

    __slots__ = ("bits", "words")

    def __init__(self, bits: BitString):
        self.bits = bits
        self.words = 0

    def __call__(self, offset: int, width: int) -> int:
        self.words += max(1, (width + 63) // 64)
        return read_fixed(self.bits, offset, width)


class _LazyWarm:
    __slots__ = ("_read", "n", "index", "_woff")

    def __init__(self, read, n: int, index: int, woff: int):
        self._read = read
        self.n = n
        self.index = index
        self._woff = woff

    def bit(self, j: int) -> int:
        if not 0 <= j < self.n // 2:
            raise ValueError(f"window probe {j} out of range {self.n // 2}")
        return self._read(self._woff + j, 1)


class _LazyInner:
    __slots__ = ("_read", "topo", "grp", "beg", "end", "thick", "_toff")

    def __init__(self, read, n: int, off: int):
        iw = index_width(n)
        cw = count_width(n)
        width = 3 * iw + cw + 1
        packed = read(off, width)
        self.thick = bool(packed & 1)
        packed >>= 1
        self.end = packed & (1 << cw) - 1
        packed >>= cw
        self.beg = packed & (1 << iw) - 1
        packed >>= iw
        self.grp = packed & (1 << iw) - 1
        self.topo = packed >> iw
        self._read = read
        self._toff = off + width

    def interval_bit(self, j: int) -> int:
        if self.thick:
            raise ValueError("thick groups store no table")
        if not 0 <= j < self.end - self.beg:
            raise ValueError(f"table probe {j} out of range {self.end - self.beg}")
        return self._read(self._toff + j, 1)


class LazyLabel:
    """Label view that reads only the bits a query touches.

    All reads funnel through a CountingReader, so ``words`` after a query
    is the number of 64-bit word fetches a pointer-based decoder would do.
    """

    __slots__ = ("reader", "scheme_id", "n", "scc", "_offsets", "_warm", "_inner", "_cross")

    def __init__(self, bits: BitString):
        r = CountingReader(bits)
        self.reader = r
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
            self._warm = _LazyWarm(r, self.n, both & (1 << iw) - 1, p + 2 * iw)
        else:
            self.scc = r(p, iw)
            self._warm = None
        self._inner = None
        self._cross = None

    @property
    def words(self) -> int:
        return self.reader.words

    @property
    def warm(self):
        return self._warm

    @property
    def inner(self):
        if self._inner is None:
            self._inner = _LazyInner(self.reader, self.n, self._offsets[0])
        return self._inner

    @property
    def cross(self):
        if self._cross is None:
            self._cross = CrossView(self.reader, self._offsets[1], self.n)
        return self._cross


def query_lazy(bits_u: BitString, bits_v: BitString) -> tuple[bool, int]:
    """Answer one query from raw labels; also return total word reads."""
    lu = LazyLabel(bits_u)
    lv = LazyLabel(bits_v)
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
