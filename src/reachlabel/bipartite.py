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
Embedded in a composite label, a sub-label is its index and its table only:
the label derives a, b, alpha and beta from fields it has already read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitio import BitWriter, index_width
from .graph import cyclic_window, transpose


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


def index_pair(i_a: int, i_b: int, a: int, b: int) -> tuple[int, int]:
    """Window positions of pair (i_a, i_b); python % keeps both non-negative."""
    i = (i_b - ceil_div(b * i_a, a)) % b
    j = (i_a - ceil_div(a * i_b, b)) % a
    return i, j


def encode_bipartite(inst: BipartiteInstance) -> list[BipartiteLabel]:
    """Labels for all a+b nodes, A side first."""
    a, b, alpha, beta = inst.a, inst.b, inst.alpha, inst.beta
    labels = []
    for u, row in enumerate(inst.rows):
        t = cyclic_window(row, ceil_div(b * u, a), alpha, b) if b else 0
        labels.append(BipartiteLabel(u, a, b, alpha, beta, t, "A"))
    for j, col in enumerate(transpose(inst.rows, b)):
        t = cyclic_window(col, ceil_div(a * j, b), beta, a) if a else 0
        labels.append(BipartiteLabel(a + j, a, b, alpha, beta, t, "B"))
    return labels


def pair_window(i_a: int, i_b: int, sizes: tuple[int, int, int, int]) -> int:
    """Where pair (i_a, i_b) of an instance of ``sizes`` (a, b, alpha, beta)
    is stored, i_b counted from a: i >= 0 for bit i of the A node's window,
    or ~j < 0 for bit j of the B node's."""
    a, b, alpha, beta = sizes
    if a < 1 or b < 1:
        raise ValueError(f"empty side in pair probe: a={a}, b={b}")
    i, j = index_pair(i_a, i_b - a, a, b)
    if i < alpha:
        return i
    if j >= beta:
        raise ValueError("pair covered by neither window; budget was violated")
    return ~j


# -- embedded serialization ------------------------------------------------
#
# Inside a composite label a sub-label is stored as
#   index[index_width(limit)] table[alpha or beta]
# where ``limit`` bounds the index: the enclosing label derives the
# instance's a, b, alpha and beta from fields it has already read, and
# writes with limit = a + b.


def embedded_width(limit: int, alpha_or_beta: int) -> int:
    return index_width(limit) + alpha_or_beta


def write_embedded(w: BitWriter, lab: BipartiteLabel, limit: int) -> None:
    iw = index_width(limit)
    if lab.index >> iw:
        raise ValueError(f"sub-label index {lab.index} does not fit the width of limit {limit}")
    w.write(lab.index, iw)
    w.write(lab.table, lab.table_len)


def read_embedded(read, offset: int, iw: int, side: str,
                  sizes: tuple[int, int, int, int]) -> tuple[int, int, int]:
    """(index, end offset, table) of the sub-label at ``offset`` of a label
    read through ``read``, whose instance has ``sizes`` (a, b, alpha, beta)
    and whose index is ``iw`` = index_width(a + b) bits wide. Both fields
    come from one shift and mask of the label's int; the index is charged
    one word and the table none (a decoder keeps it as that int). Raises
    ValueError, in this order, on an index that overruns the label, on an
    index off ``side``, and on a table that overruns the label."""
    a, b, alpha, beta = sizes
    width = alpha if side == "A" else beta
    end = offset + iw + width
    if end <= read.length:
        read.words += 1
        both = read.value >> read.length - end
        index, table = both >> width & (1 << iw) - 1, both & (1 << width) - 1
    else:  # the label ends inside the sub-label: read the index alone
        index, table = read(offset, iw), None
    if not (index < a if side == "A" else a <= index < a + b):
        raise ValueError(f"sub-label index {index} outside side {side} (a={a}, b={b})")
    if table is None:
        read.peek(offset + iw, width)  # raises: the table overruns the label
    return index, end, table
