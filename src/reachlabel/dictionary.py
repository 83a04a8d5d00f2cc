"""Static membership dictionary with O(1) expected probes.

Two-level hash-and-displace: keys are bucketed by a first hash; buckets are
processed largest first, each searching a short deterministic seed sequence
for a displacement that lands all its keys on free slots. Slots store the key
itself, so answers are exact in both directions. If any bucket exhausts the
seed budget the whole set falls back to a sorted array with binary search.

Serialized form (key width kw = index_width(universe_bound))::

    m      count_width(universe_bound) bits
    mode   1 bit (0 hashed, 1 sorted)
    hashed: m seeds x 8 bits, m occupancy bits, m keys x kw bits
    sorted: m keys x kw bits
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitio import BitString, BitWriter, count_width, index_width, read_fixed

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

    def contains(self, x: int) -> bool:
        if not 0 <= x < self.universe_bound:
            raise ValueError(f"key {x} outside universe [0,{self.universe_bound})")
        m = self.size
        if m == 0:
            return False
        if self.mode == 1:
            import bisect

            i = bisect.bisect_left(self.slots, x)
            return i < m and self.slots[i] == x
        b = _mix(x, _BUCKET_SEED) % m
        slot = _mix(x, _SLOT_SALT + self.seeds[b]) % m
        return bool(self.occupied >> slot & 1) and self.slots[slot] == x

    def members(self) -> list[int]:
        if self.mode == 1:
            return list(self.slots)
        return sorted(
            self.slots[i] for i in range(self.size) if self.occupied >> i & 1
        )

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
            # occupancy bit i streams i-th, so it sits at the high end
            w.write(int(format(self.occupied, f"0{m}b")[::-1], 2), m)
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

    @classmethod
    def read(cls, bits: BitString, offset: int, universe_bound: int) -> tuple["StaticSet", int]:
        """Parse from ``offset``; returns (set, bits consumed)."""
        cw = count_width(universe_bound)
        kw = index_width(universe_bound)
        m = read_fixed(bits, offset, cw)
        mode = read_fixed(bits, offset + cw, 1)
        pos = offset + cw + 1
        seeds: tuple[int, ...] = ()
        occ = 0
        if mode == 0 and m:
            block = read_fixed(bits, pos, 8 * m)
            seeds = tuple(block >> 8 * (m - 1 - i) & 0xFF for i in range(m))
            pos += 8 * m
            occ = int(format(read_fixed(bits, pos, m), f"0{m}b")[::-1], 2)
            pos += m
        if m:
            block = read_fixed(bits, pos, kw * m)
            kmask = (1 << kw) - 1
            slots = tuple(block >> kw * (m - 1 - i) & kmask for i in range(m))
        else:
            slots = ()
        pos += kw * m
        return cls(universe_bound, m, mode, seeds, occ, slots), pos - offset


def probe_serialized(read, offset: int, universe_bound: int, x: int) -> bool:
    """Membership probe straight off a serialized set.

    ``read(offset, width)`` supplies bits; only the fields on the probe path
    are touched (O(1) reads hashed, O(log m) reads sorted).
    """
    if not 0 <= x < universe_bound:
        raise ValueError(f"key {x} outside universe [0,{universe_bound})")
    cw = count_width(universe_bound)
    kw = index_width(universe_bound)
    head = read(offset, cw + 1)  # size and mode batched into one read
    m = head >> 1
    mode = head & 1
    pos = offset + cw + 1
    if m == 0:
        return False
    if mode == 0:
        b = _mix(x, _BUCKET_SEED) % m
        d = read(pos + 8 * b, 8)
        slot = _mix(x, _SLOT_SALT + d) % m
        if not read(pos + 8 * m + slot, 1):
            return False
        return read(pos + 9 * m + kw * slot, kw) == x
    lo, hi = 0, m - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        k = read(pos + kw * mid, kw)
        if k == x:
            return True
        if k < x:
            lo = mid + 1
        else:
            hi = mid - 1
    return False


def build_set(keys, universe_bound: int) -> StaticSet:
    ks = sorted(set(keys))
    for k in ks:
        if not 0 <= k < universe_bound:
            raise ValueError(f"key {k} outside universe [0,{universe_bound})")
    m = len(ks)
    if m == 0:
        return StaticSet(universe_bound, 0, 1, (), 0, ())

    buckets: list[list[int]] = [[] for _ in range(m)]
    for k in ks:
        buckets[_mix(k, _BUCKET_SEED) % m].append(k)
    order = sorted((b for b in range(m) if buckets[b]), key=lambda b: (-len(buckets[b]), b))

    seeds = [0] * m
    slots = [0] * m
    occ = 0
    for b in order:
        bk = buckets[b]
        placed = None
        for d in range(_MAX_DISPLACEMENT + 1):
            salt = _SLOT_SALT + d
            taken = occ
            # inlined _mix; keep the constants in sync with it
            for k in bk:
                z = (k * 0x9E3779B97F4A7C15 + salt) & _MASK64
                z ^= z >> 30
                z = (z * 0xBF58476D1CE4E5B9) & _MASK64
                z ^= z >> 27
                z = (z * 0x94D049BB133111EB) & _MASK64
                z ^= z >> 31
                s = 1 << (z % m)
                if taken & s:
                    break
                taken |= s
            else:
                placed = d
                break
        if placed is None:
            return StaticSet(universe_bound, m, 1, (), 0, tuple(ks))
        seeds[b] = placed
        for k in bk:
            s = _mix(k, _SLOT_SALT + placed) % m
            slots[s] = k
            occ |= 1 << s
    return StaticSet(universe_bound, m, 0, tuple(seeds), occ, tuple(slots))
