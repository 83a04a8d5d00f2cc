"""Static membership dictionary with O(1) expected probes.

Two-level hash-and-displace: keys are bucketed by a first hash; buckets are
processed largest first, each searching a short deterministic seed sequence
for a displacement that lands all its keys on free slots. Slots store the key
itself, so answers are exact in both directions. If any bucket exhausts the
seed budget the whole set falls back to a sorted array with binary search.

Placement is memoised per encode (``SetMemo``): the bucket hash of a key and
its slot hash under each displacement tried do not depend on the set, so the
sets of one encode share them, and a repeated key set is placed once. The
seeds, slots and fallback are the same as placing every set afresh, which is
what ``build_set`` does when it is given no memo.

Serialized form (key width kw = index_width(universe_bound))::

    m      count_width(universe_bound) bits
    mode   1 bit (0 hashed, 1 sorted)
    hashed: m seeds x 8 bits, m occupancy bits, m keys x kw bits
    sorted: m keys x kw bits
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitio import BitWriter, Widths, count_width, index_width

_BUCKET_SEED = 0x9E3779B97F4A7C15
_SLOT_SALT = 0xC2B2AE3D27D4EB4F
_MAX_DISPLACEMENT = 255
_MASK64 = (1 << 64) - 1


def _mix(x: int, seed: int) -> int:
    z = (x * 0x9E3779B97F4A7C15 + seed) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


@dataclass(frozen=True)
class StaticSet:
    """Frozen membership structure over integers in [0, universe_bound)."""

    universe_bound: int
    size: int
    mode: int                      # 0 hashed, 1 sorted
    seeds: tuple[int, ...]         # hashed mode, one per bucket
    occupied: int                  # hashed mode, slot occupancy bitmask
    slots: tuple[int, ...]         # hashed: slot -> key; sorted: ascending keys

    # -- serialization ----------------------------------------------------

    def write(self, w: BitWriter) -> None:
        kw = index_width(self.universe_bound)
        m = self.size
        w.write(self.size, count_width(self.universe_bound))
        w.write(self.mode, 1)
        if self.mode == 0 and m:
            acc = 0
            for s in self.seeds:
                acc = acc << 8 | s
            w.write(acc, 8 * m)
            w.write_table(self.occupied, m)
        if self.slots:
            acc = 0
            for k in self.slots:
                acc = acc << kw | k
            w.write(acc, kw * len(self.slots))

    def bit_length(self) -> int:
        base = count_width(self.universe_bound) + 1
        kw = index_width(self.universe_bound)
        if self.mode == 0:
            return base + self.size * (8 + 1 + kw)
        return base + self.size * kw


class SetView:
    """Decode view of a serialized set.

    ``wd`` holds the widths of a label over the universe bound ``wd.n``.
    Size and mode cost one counted read; the seed, occupancy and key arrays
    are taken from the label once, and ``contains`` charges one word for
    each field a pointer-based probe would fetch: O(1) of them hashed,
    O(log m) sorted. A key is at most 32 bits wide (the universe bound is
    a 32-bit header field), so one word each.
    """

    __slots__ = ("_read", "_bound", "_kw", "_m", "_mode", "_seeds", "_occ", "_keys", "end_offset")

    def __init__(self, read, offset: int, wd: Widths):
        cw = wd.cw
        kw = wd.iw
        head = read(offset, cw + 1)  # size and mode batched into one read
        m = head >> 1
        self._read = read
        self._bound = wd.n
        self._kw = kw
        self._m = m
        self._mode = head & 1
        pos = offset + cw + 1
        self._seeds = self._occ = 0
        if self._mode == 0:
            self._seeds = read.peek(pos, 8 * m)
            self._occ = read.peek(pos + 8 * m, m)
            pos += 9 * m
        self._keys = read.peek(pos, kw * m)
        self.end_offset = pos + kw * m

    def contains(self, x: int) -> bool:
        if not 0 <= x < self._bound:
            raise ValueError(f"key {x} outside universe [0,{self._bound})")
        m = self._m
        if m == 0:
            return False
        read, keys, kw = self._read, self._keys, self._kw
        kmask = (1 << kw) - 1
        if self._mode == 0:
            b = _mix(x, _BUCKET_SEED) % m
            d = self._seeds >> 8 * (m - 1 - b) & 0xFF
            slot = _mix(x, _SLOT_SALT + d) % m
            if not self._occ >> m - 1 - slot & 1:
                read.words += 2  # the seed and the occupancy bit
                return False
            read.words += 3  # and the key in the slot
            return keys >> kw * (m - 1 - slot) & kmask == x
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


class SetMemo:
    """Hashes and finished sets shared by the ``build_set`` calls of one
    encode, with entries only for the keys seen and the (key, d) pairs
    probed. Make one per encode and drop it after: kept across encodes, it
    would make every encode after the first cheaper than a single one is."""

    __slots__ = ("bucket", "slot", "sets")

    def __init__(self):
        self.bucket: dict[int, int] = {}  # key -> _mix(key, _BUCKET_SEED)
        self.slot: dict[int, int] = {}  # key << 8 | d -> _mix(key, _SLOT_SALT + d), d < 256
        self.sets: dict[tuple[int, ...], StaticSet] = {}  # (bound, *keys) -> set


def build_set(keys, universe_bound: int, memo: SetMemo | None = None) -> StaticSet:
    """The set of ``keys``, placed through ``memo`` (a fresh one if None)."""
    ks = sorted(set(keys))
    if ks and (ks[0] < 0 or ks[-1] >= universe_bound):
        bad = next(k for k in ks if not 0 <= k < universe_bound)
        raise ValueError(f"key {bad} outside universe [0,{universe_bound})")
    m = len(ks)
    if m == 0:
        return StaticSet(universe_bound, 0, 1, (), 0, ())
    if memo is None:
        memo = SetMemo()
    whole = (universe_bound, *ks)
    done = memo.sets.get(whole)
    if done is None:
        done = memo.sets[whole] = _place(ks, universe_bound, memo)
    return done


def _place(ks: list[int], universe_bound: int, memo: SetMemo) -> StaticSet:
    """Hash-and-displace placement of the sorted, distinct keys ``ks``."""
    m = len(ks)
    bucket_of = memo.bucket
    slot_of = memo.slot
    buckets: list[list[int]] = [[] for _ in range(m)]
    for k in ks:
        h = bucket_of.get(k)
        if h is None:
            h = bucket_of[k] = _mix(k, _BUCKET_SEED)
        buckets[h % m].append(k)
    order = sorted((b for b in range(m) if buckets[b]), key=lambda b: (-len(buckets[b]), b))

    seeds = [0] * m
    slots = [0] * m
    occ = 0
    for b in order:
        bk = buckets[b]
        for d in range(_MAX_DISPLACEMENT + 1):
            taken = occ
            for k in bk:
                kd = k << 8 | d
                z = slot_of.get(kd)
                if z is None:
                    z = slot_of[kd] = _mix(k, _SLOT_SALT + d)
                s = 1 << z % m
                if taken & s:
                    break
                taken |= s
            else:
                break
        else:
            return StaticSet(universe_bound, m, 1, (), 0, tuple(ks))
        seeds[b] = d
        occ = taken
        for k in bk:
            slots[slot_of[k << 8 | d] % m] = k
    return StaticSet(universe_bound, m, 0, tuple(seeds), occ, tuple(slots))
