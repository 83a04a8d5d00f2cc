"""MSB-first bit packing for labels and the on-disk label file format.

Every label is a contiguous bit string: fields are written most significant
bit first, one after another, with no alignment padding between fields. The
last byte of a serialized string is zero-padded on the low side. All integer
fields are fixed width; widths are pure functions of values already decoded
(usually the node count), which keeps labels self-describing.

Label file layout (little endian where noted)::

    magic    4 bytes  b"RLBL"
    version  1 byte   (currently 2)
    scheme   1 byte
    n        4 bytes  u32 LE
    offsets  8n bytes, u64 LE per node in id order: the file position of
             that node's record, so a reader can seek straight to it
    then, per node in id order, one record:
      bitlen 4 bytes  u32 LE
      bits   ceil(bitlen/8) bytes, MSB-first, zero padded
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass

MAGIC = b"RLBL"
FILE_VERSION = 2


def index_width(n: int) -> int:
    """Bits needed for a value in [0, n); at least 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return max(1, (max(n, 2) - 1).bit_length())


def count_width(n: int) -> int:
    """Bits needed for a value in [0, n]; at least 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return max(1, n.bit_length())


class BitString:
    """Immutable bit sequence backed by bytes."""

    __slots__ = ("data", "length")

    def __init__(self, data: bytes, length: int):
        if length < 0 or length > 8 * len(data):
            raise ValueError("bit length out of range for buffer")
        self.data = data
        self.length = length

    def __len__(self) -> int:
        return self.length

    def _canonical(self) -> bytes:
        nbytes = (self.length + 7) // 8
        raw = bytearray(self.data[:nbytes])
        if self.length % 8:
            raw[-1] &= 0xFF << (8 - self.length % 8) & 0xFF
        return bytes(raw)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self.length == other.length
            and self._canonical() == other._canonical()
        )

    def __hash__(self) -> int:
        return hash((self._canonical(), self.length))

    def __repr__(self) -> str:
        return f"BitString({self.length} bits)"


EMPTY = BitString(b"", 0)


class BitWriter:
    """Append-only MSB-first bit accumulator."""

    def __init__(self):
        self._out = bytearray()
        self._acc = 0
        self._nacc = 0

    @property
    def bit_length(self) -> int:
        return 8 * len(self._out) + self._nacc

    def write(self, value: int, width: int) -> None:
        if width < 0:
            raise ValueError("negative width")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        if width == 0:
            return
        acc = (self._acc << width) | value
        nacc = self._nacc + width
        rem = nacc & 7
        nbytes = nacc >> 3
        if nbytes:
            self._out += (acc >> rem).to_bytes(nbytes, "big")
        self._acc = acc & (1 << rem) - 1
        self._nacc = rem

    def finish(self) -> BitString:
        total = self.bit_length
        if self._nacc:
            self._out.append((self._acc << (8 - self._nacc)) & 0xFF)
            self._acc = 0
            self._nacc = 0
        return BitString(bytes(self._out), total)


def read_fixed(bits: BitString, offset: int, width: int) -> int:
    """Read ``width`` bits starting at bit ``offset``."""
    if width < 0 or offset < 0:
        raise ValueError("negative offset or width")
    if offset + width > bits.length:
        raise ValueError(
            f"read of {width} bits at offset {offset} overruns {bits.length}-bit string"
        )
    if width == 0:
        return 0
    start = offset >> 3
    end = (offset + width + 7) >> 3
    chunk = int.from_bytes(bits.data[start:end], "big")
    drop = end * 8 - (offset + width)
    return (chunk >> drop) & ((1 << width) - 1)


@dataclass(frozen=True)
class LabelHeader:
    """Self-describing front matter of every label.

    ``offsets`` holds absolute bit offsets of the label's named sections
    (empty for the warm-up scheme, (l1, l2) for the composite schemes).
    """

    scheme_id: int
    n: int
    offsets: tuple[int, ...] = ()

    HEADER_FIXED_BITS = 8 + 32 + 8
    OFFSET_BITS = 32

    @property
    def bit_length(self) -> int:
        return self.HEADER_FIXED_BITS + self.OFFSET_BITS * len(self.offsets)

    def write(self, w: BitWriter) -> None:
        if not 0 <= self.scheme_id < 256:
            raise ValueError("scheme_id out of range")
        if not 0 <= self.n < (1 << 32):
            raise ValueError("n out of range")
        if len(self.offsets) > 255:
            raise ValueError("too many sections")
        w.write(self.scheme_id, 8)
        w.write(self.n, 32)
        w.write(len(self.offsets), 8)
        for off in self.offsets:
            w.write(off, self.OFFSET_BITS)

    @classmethod
    def read(cls, bits: BitString) -> "LabelHeader":
        scheme_id = read_fixed(bits, 0, 8)
        n = read_fixed(bits, 8, 32)
        noff = read_fixed(bits, 40, 8)
        offs = tuple(
            read_fixed(bits, 48 + i * cls.OFFSET_BITS, cls.OFFSET_BITS)
            for i in range(noff)
        )
        return cls(scheme_id, n, offs)


def write_label_file(path: str, scheme_id: int, n: int, labels: list[BitString]) -> None:
    if len(labels) != n:
        raise ValueError("label count does not match n")
    offsets = [10 + 8 * n]
    for lb in labels:
        offsets.append(offsets[-1] + 4 + (lb.length + 7) // 8)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(bytes([FILE_VERSION, scheme_id]))
        f.write(struct.pack("<I", n))
        f.write(struct.pack(f"<{n}Q", *offsets[:n]))
        for lb in labels:
            f.write(struct.pack("<I", lb.length))
            f.write(lb.data[: (lb.length + 7) // 8])


def _read_file_header(f: io.BufferedReader) -> tuple[int, int, int]:
    """(scheme_id, n, file size) after checking magic and version."""
    head = f.read(10)
    if len(head) != 10 or head[:4] != MAGIC:
        raise ValueError("not a label file (bad magic)")
    version = head[4]
    if version != FILE_VERSION:
        raise ValueError(f"unsupported label file version {version}")
    (n,) = struct.unpack("<I", head[6:10])
    return head[5], n, os.fstat(f.fileno()).st_size


def _read_record(f: io.BufferedReader, i: int, off: int, end: int, n: int, size: int) -> BitString:
    """Node i's record, which must start past the offset table (right after
    it for node 0) and fill the file bytes [off, end), where ``end`` is the
    next node's offset or the file size."""
    first = 10 + 8 * n
    if off < first or (i == 0 and off != first) or not off + 4 <= end <= size:
        raise ValueError(f"offset table entry of node {i} is out of range")
    f.seek(off)
    (bitlen,) = struct.unpack("<I", f.read(4))
    if off + 4 + (bitlen + 7) // 8 != end:
        raise ValueError(f"offset table entry of node {i} disagrees with its record")
    return BitString(f.read(end - off - 4), bitlen)


def read_label_file(path: str) -> tuple[int, int, list[BitString]]:
    """Read all labels; returns (scheme_id, n, labels)."""
    with open(path, "rb") as f:
        scheme_id, n, size = _read_file_header(f)
        table = f.read(8 * n)
        if len(table) != 8 * n:
            raise ValueError("truncated label file offset table")
        offs = struct.unpack(f"<{n}Q", table) + (size,)
        return scheme_id, n, [_read_record(f, i, offs[i], offs[i + 1], n, size) for i in range(n)]


def read_labels_at(path: str, indices: list[int]) -> tuple[int, int, dict[int, BitString]]:
    """Read only the requested labels, seeking through the offset table."""
    out: dict[int, BitString] = {}
    with open(path, "rb") as f:
        scheme_id, n, size = _read_file_header(f)
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"node {i} out of range for n={n}")
            f.seek(10 + 8 * i)
            want = 16 if i + 1 < n else 8
            raw = f.read(want)
            if len(raw) != want:
                raise ValueError("truncated label file offset table")
            off, *nxt = struct.unpack(f"<{want // 8}Q", raw)
            out[i] = _read_record(f, i, off, nxt[0] if nxt else size, n, size)
    return scheme_id, n, out
