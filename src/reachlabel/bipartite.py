"""Adjacency labels for unbalanced bipartite graphs.

Sides A and B are numbered 0..a-1 and a..a+b-1. Each A node stores an
``alpha``-bit window of its adjacency row starting at a rotating offset
ceil(b*u/a); each B node stores a ``beta``-bit window of its column starting
at ceil(a*(v-a)/b). Whenever a*alpha + b*beta > a*b (strictly), every pair
(u, v) falls inside at least one of the two windows, so the decoder can
always find the bit:

    i = (i_b - ceil(b*i_a / a)) mod b      probe T_u[i] when i < alpha
    j = (i_a - ceil(a*i_b / b)) mod a      probe T_v[j] otherwise

Tables are written at exactly alpha (resp. beta) bits even when that exceeds
the far side's size; the surplus bits are zeros and are never probed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitio import BitString, BitWriter, count_width, index_width, read_fixed
from .graph import _iter_bits


def ceil_div(p: int, q: int) -> int:
    return -(-p // q)


@dataclass(frozen=True)
class BipartiteInstance:
    """Bipartite graph plus the table budgets.

    ``rows[u]`` is A node u's adjacency as a bitmask: bit j set means an edge
    to B node a+j.
    """

    a: int
    b: int
    alpha: int
    beta: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if min(self.a, self.b, self.alpha, self.beta) < 0:
            raise ValueError("sizes and budgets must be non-negative")
        if self.a > 0 and self.b > 0:
            if self.a * self.alpha + self.b * self.beta <= self.a * self.b:
                raise ValueError(
                    f"budget violated: {self.a}*{self.alpha} + {self.b}*{self.beta}"
                    f" <= {self.a}*{self.b}"
                )
        if len(self.rows) != self.a:
            raise ValueError(f"{len(self.rows)} rows for a={self.a} A nodes")
        for u, row in enumerate(self.rows):
            if row < 0 or row >> self.b:
                raise ValueError(f"row {u} has bits outside B for b={self.b}")


@dataclass(frozen=True)
class BipartiteLabel:
    index: int          # node number within the instance
    a: int
    b: int
    alpha: int
    beta: int
    table: int          # MSB-free int; bit i is (table >> i) & 1
    side: str           # "A" or "B"

    @property
    def table_len(self) -> int:
        return self.alpha if self.side == "A" else self.beta

    def bit(self, i: int) -> int:
        if not 0 <= i < self.table_len:
            raise ValueError(f"table probe {i} out of range {self.table_len}")
        return self.table >> i & 1


def index_pair(i_a: int, i_b: int, a: int, b: int) -> tuple[int, int]:
    """Window positions of pair (i_a, i_b); python % keeps both non-negative."""
    i = (i_b - ceil_div(b * i_a, a)) % b
    j = (i_a - ceil_div(a * i_b, b)) % a
    return i, j


def _window(mask: int, start: int, width: int, size: int) -> int:
    """Bits start, start+1, ... (mod size) of a size-bit mask, as bits 0, 1, ..."""
    r = start % size
    return (mask >> r | mask << (size - r)) & (1 << min(width, size)) - 1


def encode_bipartite(inst: BipartiteInstance) -> list[BipartiteLabel]:
    """Labels for all a+b nodes, A side first."""
    a, b, alpha, beta = inst.a, inst.b, inst.alpha, inst.beta
    cols = [0] * b
    for u, row in enumerate(inst.rows):
        for j in _iter_bits(row):
            cols[j] |= 1 << u
    labels = []
    for u, row in enumerate(inst.rows):
        t = _window(row, ceil_div(b * u, a), alpha, b) if b else 0
        labels.append(BipartiteLabel(u, a, b, alpha, beta, t, "A"))
    for j, col in enumerate(cols):
        t = _window(col, ceil_div(a * j, b), beta, a) if a else 0
        labels.append(BipartiteLabel(a + j, a, b, alpha, beta, t, "B"))
    return labels


def _check_params(lu: BipartiteLabel, lv: BipartiteLabel) -> None:
    if (lu.a, lu.b, lu.alpha, lu.beta) != (lv.a, lv.b, lv.alpha, lv.beta):
        raise ValueError("labels carry mismatched instance parameters")


def decode_bipartite(lu: BipartiteLabel, lv: BipartiteLabel) -> bool:
    """Adjacency from two labels alone. Same-side pairs are never adjacent."""
    _check_params(lu, lv)
    if lu.side == lv.side:
        return False
    if lu.side == "B":
        lu, lv = lv, lu
    return probe_pair(lu, lv)


def probe_pair(la, lb) -> bool:
    """Adjacency probe with la known to be A-side and lb B-side.

    Works on any objects exposing .index/.a/.b/.alpha/.beta/.bit(i); used
    both standalone and by the composite scheme's section views.
    """
    a, b, alpha, beta = la.a, la.b, la.alpha, la.beta
    if a < 1 or b < 1:
        raise ValueError(f"empty side in pair probe: a={a}, b={b}")
    i, j = index_pair(la.index, lb.index - a, a, b)
    if i < alpha:
        return bool(la.bit(i))
    if j >= beta:
        raise ValueError("pair covered by neither window; budget was violated")
    return bool(lb.bit(j))


# -- embedded serialization ------------------------------------------------
#
# Inside a composite label a sub-label is stored as
#   index[iw] a[pw] b[pw] alpha[pw] beta[pw] table[alpha or beta]
# with iw = index_width(limit) and pw = count_width(limit); ``limit`` is the
# enclosing scheme's node count, which bounds every parameter here.


def embedded_width(limit: int, alpha_or_beta: int) -> int:
    return index_width(limit) + 4 * count_width(limit) + alpha_or_beta


def write_embedded(w: BitWriter, lab: BipartiteLabel, limit: int) -> None:
    iw = index_width(limit)
    pw = count_width(limit)
    w.write(lab.index, iw)
    w.write(lab.a, pw)
    w.write(lab.b, pw)
    w.write(lab.alpha, pw)
    w.write(lab.beta, pw)
    tl = lab.table_len
    if tl:
        # table bit 0 streams first, so it goes at the high end of the write
        w.write(int(format(lab.table, f"0{tl}b")[::-1], 2), tl)


def read_embedded(bits: BitString, offset: int, limit: int, side: str) -> tuple[BipartiteLabel, int]:
    """Eager parse; returns (label, bits consumed)."""
    iw = index_width(limit)
    pw = count_width(limit)
    head = read_fixed(bits, offset, iw + 4 * pw)
    pm = (1 << pw) - 1
    beta = head & pm
    alpha = head >> pw & pm
    b = head >> 2 * pw & pm
    a = head >> 3 * pw & pm
    idx = head >> 4 * pw
    pos = offset + iw + 4 * pw
    tl = alpha if side == "A" else beta
    t = int(format(read_fixed(bits, pos, tl), f"0{tl}b")[::-1], 2) if tl else 0
    pos += tl
    return BipartiteLabel(idx, a, b, alpha, beta, t, side), pos - offset


class LazyEmbedded:
    """Bit-backed view with the same probe surface as BipartiteLabel."""

    __slots__ = ("_read", "_off", "index", "a", "b", "alpha", "beta", "side", "_table_off")

    def __init__(self, read, offset: int, limit: int, side: str):
        iw = index_width(limit)
        pw = count_width(limit)
        self._read = read
        self._off = offset
        # one batched read for the whole fixed header
        head = read(offset, iw + 4 * pw)
        pm = (1 << pw) - 1
        self.beta = head & pm
        self.alpha = head >> pw & pm
        self.b = head >> 2 * pw & pm
        self.a = head >> 3 * pw & pm
        self.index = head >> 4 * pw
        self.side = side
        self._table_off = offset + iw + 4 * pw

    @property
    def table_len(self) -> int:
        return self.alpha if self.side == "A" else self.beta

    def bit(self, i: int) -> int:
        if not 0 <= i < self.table_len:
            raise ValueError(f"table probe {i} out of range {self.table_len}")
        return self._read(self._table_off + i, 1)

    def end_offset(self) -> int:
        return self._table_off + self.table_len
