"""Static membership sets: a sorted array of keys, probed by binary search.

A set is the plain list of m keys of log n bits each that the paper counts
for a leftover node's kept neighbours: its size, then its keys in ascending
order. A probe reads at most ceil(log2(m+1)) keys.

Serialized form (key width kw = index_width(universe_bound))::

    m      count_width(universe_bound) bits
    keys   m x kw bits, ascending
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitio import BitWriter, Widths, count_width, index_width


@dataclass(frozen=True)
class StaticSet:
    """Frozen membership set over integers in [0, universe_bound)."""

    universe_bound: int
    keys: tuple[int, ...]  # ascending, distinct

    # Every set is sorted. The constant stays because the benchmark's tracer
    # counts ``dictionary.sorted_sets`` from it.
    mode = 1

    @property
    def size(self) -> int:
        return len(self.keys)

    def write(self, w: BitWriter) -> None:
        kw = index_width(self.universe_bound)
        acc = self.size
        for k in self.keys:
            acc = acc << kw | k
        w.write(acc, self.bit_length())

    def bit_length(self) -> int:
        return count_width(self.universe_bound) + self.size * index_width(self.universe_bound)


# A serialized set is read from the label it lies in, by shift and mask of
# the label's int: ``read_set`` charges one word for its size and none for
# its key array, which a decoder keeps as one int, as it keeps a table.
# ``wd`` holds the widths of a label over the universe bound ``wd.n``. A key
# is at most 32 bits wide (the universe bound is a 32-bit header field), so
# a probe fetches one word per key.


def read_set(read, offset: int, wd: Widths) -> tuple[int, int, int]:
    """(size, end offset, keys) of the set at ``offset``, key i of the m
    at bits kw*(m-1-i) of ``keys``. Raises ValueError if the size or the
    keys overrun the label."""
    m = read(offset, wd.cw)
    return m, offset + wd.cw + wd.iw * m, read.peek(offset + wd.cw, wd.iw * m)


def check_set(m: int, keys: int, wd: Widths) -> None:
    """Raise ValueError unless the ``m`` keys ascend below the universe
    bound, as the binary search assumes. A label's check walk calls this, a
    lazy probe does not."""
    kw = wd.iw
    kmask = (1 << kw) - 1
    ks = [keys >> kw * i & kmask for i in range(m - 1, -1, -1)] + [wd.n]
    if any(a >= b for a, b in zip(ks, ks[1:])):
        raise ValueError(f"set keys do not ascend below {wd.n}")


def set_contains(read, m: int, keys: int, wd: Widths, x: int) -> bool:
    """Whether the ``m`` keys hold ``x``, charging one word for each key a
    pointer-based binary search would fetch."""
    if not 0 <= x < wd.n:
        raise ValueError(f"key {x} outside universe [0,{wd.n})")
    kw = wd.iw
    kmask = (1 << kw) - 1
    lo, hi = 0, m - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        read.words += 1
        k = keys >> kw * (m - 1 - mid) & kmask
        if k == x:
            return True
        if k < x:
            lo = mid + 1
        else:
            hi = mid - 1
    return False


def build_set(keys, universe_bound: int) -> StaticSet:
    """The set of ``keys``, each in [0, universe_bound)."""
    ks = sorted(set(keys))
    if ks and (ks[0] < 0 or ks[-1] >= universe_bound):
        bad = next(k for k in ks if not 0 <= k < universe_bound)
        raise ValueError(f"key {bad} outside universe [0,{universe_bound})")
    return StaticSet(universe_bound, tuple(ks))
