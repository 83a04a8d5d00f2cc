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


class SetView:
    """Decode view of a serialized set.

    ``wd`` holds the widths of a label over the universe bound ``wd.n``.
    The size costs one counted read and the key array is taken from the
    label once; ``contains`` charges one word for each key a pointer-based
    binary search would fetch. A key is at most 32 bits wide (the universe
    bound is a 32-bit header field), so one word each.
    """

    __slots__ = ("_read", "_bound", "_kw", "_m", "_keys", "end_offset")

    def __init__(self, read, offset: int, wd: Widths):
        kw = wd.iw
        m = read(offset, wd.cw)
        self._read = read
        self._bound = wd.n
        self._kw = kw
        self._m = m
        pos = offset + wd.cw
        self._keys = read.peek(pos, kw * m)
        self.end_offset = pos + kw * m

    def contains(self, x: int) -> bool:
        if not 0 <= x < self._bound:
            raise ValueError(f"key {x} outside universe [0,{self._bound})")
        read, keys, kw, m = self._read, self._keys, self._kw, self._m
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
