"""MSB-first bit packing for labels and the on-disk label file format.

Every label is a contiguous bit string: fields are written most significant
bit first, one after another, with no alignment padding between fields. In
memory a label is an int and its bit length (``BitString``); fields are
written by shifting that int and read by shift and mask. Only the label file
holds bytes: there the last byte of a label is zero-padded on the low side,
and a reader refuses a label whose padding bits are not zero. All integer
fields are fixed width; widths are pure functions of values already decoded
(usually the node count), which keeps labels self-describing.

Label file layout (little endian where noted)::

    magic    4 bytes  b"RLBL"
    version  1 byte   (currently 3)
    scheme   1 byte
    n        4 bytes  u32 LE
    offsets  8n bytes, u64 LE per node in id order: the file position of
             that node's record, so a reader can seek straight to it
    then, per node in id order, one record:
      bitlen 4 bytes  u32 LE
      bits   ceil(bitlen/8) bytes, MSB-first, padding bits zero
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

MAGIC = b"RLBL"
FILE_VERSION = 3


def index_width(n: int) -> int:
    """Bits needed for a value in [0, n); at least 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return (n - 1).bit_length() if n > 2 else 1


def count_width(n: int) -> int:
    """Bits needed for a value in [0, n]; at least 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return n.bit_length() or 1


class Widths:
    """The two field widths of a label over ``n`` nodes: ``iw`` for a value
    in [0, n), ``cw`` for a value in [0, n]. Decoders take them from
    ``widths(n)``, which the labels of one encoding share."""

    __slots__ = ("n", "iw", "cw")

    def __init__(self, n: int):
        self.n = n
        self.iw = index_width(n)
        self.cw = count_width(n)


@functools.lru_cache(maxsize=16)
def widths(n: int) -> Widths:
    """The Widths of labels over ``n`` nodes, computed once per n."""
    return Widths(n)


class BitString:
    """An immutable label: ``length`` bits held as the int ``value``, the
    first bit most significant. Bytes appear only in the label file
    (``to_bytes``, ``from_bytes``)."""

    __slots__ = ("value", "length")

    def __init__(self, value: int, length: int):
        if length < 0 or value < 0 or value >> length:
            raise ValueError(f"value does not fit in {length} bits")
        self.value = value
        self.length = length

    @classmethod
    def from_bytes(cls, data: bytes, length: int) -> "BitString":
        """The first ``length`` bits of ``data``, which must be zero past
        them and end in the byte that holds the last bit."""
        pad = 8 * len(data) - length
        if not 0 <= pad < 8:
            raise ValueError(f"{len(data)} bytes do not hold exactly {length} bits")
        value = int.from_bytes(data, "big")
        if value & (1 << pad) - 1:
            raise ValueError("padding bits are not zero")
        return cls(value >> pad, length)

    def to_bytes(self) -> bytes:
        """The bits MSB first, zero padded to a whole byte."""
        pad = -self.length % 8
        return (self.value << pad).to_bytes((self.length + pad) >> 3, "big")

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self.length == other.length
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.value, self.length))

    def __repr__(self) -> str:
        return f"BitString({self.length} bits)"


class BitWriter:
    """Append-only MSB-first bit accumulator: each field shifts the bits so
    far left by its width and fills the freed low bits."""

    __slots__ = ("_acc", "_len")

    def __init__(self):
        self._acc = 0
        self._len = 0

    def write(self, value: int, width: int) -> None:
        if width < 0:
            raise ValueError("negative width")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._acc = self._acc << width | value
        self._len += width

    def append(self, bits: BitString) -> None:
        """Write a finished string as it is."""
        self._acc = self._acc << bits.length | bits.value
        self._len += bits.length

    def write_table(self, table: int, width: int) -> None:
        """Write bits 0..width-1 of ``table`` in that order, bit 0 first."""
        if width:
            self.write(int(format(table, f"0{width}b")[::-1], 2), width)

    def finish(self) -> BitString:
        return BitString(self._acc, self._len)


def _overrun(offset: int, width: int, length: int) -> ValueError:
    return ValueError(f"read of {width} bits at offset {offset} overruns {length}-bit string")


def read_fixed(bits: BitString, offset: int, width: int) -> int:
    """Read ``width`` bits starting at bit ``offset``."""
    end = offset + width
    if width < 0 or offset < 0 or end > bits.length:
        raise _overrun(offset, width, bits.length)
    return bits.value >> (bits.length - end) & (1 << width) - 1


class LabelReader:
    """One label read field by field from its int, taken as it is.

    ``read(offset, width)`` takes a field by shift and mask and counts the
    64-bit words a pointer-based decoder would fetch for it, at least one
    per read; ``fields`` takes one field at each of several offsets, counted
    the same way. ``peek`` takes a field without counting, for a TableView.
    """

    __slots__ = ("value", "length", "words")

    def __init__(self, bits: BitString):
        self.value = bits.value
        self.length = bits.length
        self.words = 0

    def __call__(self, offset: int, width: int) -> int:
        self.words += (width + 63) >> 6 or 1
        end = offset + width
        if width < 0 or offset < 0 or end > self.length:
            raise _overrun(offset, width, self.length)
        return self.value >> (self.length - end) & (1 << width) - 1

    def fields(self, offsets: list[int], width: int) -> list[int]:
        """The ``width``-bit field at each of ``offsets``, counted as one
        read per field."""
        self.words += len(offsets) * ((width + 63) >> 6 or 1)
        top = self.length - width
        if offsets and (min(offsets) < 0 or max(offsets) > top):
            bad = next((o for o in offsets if not 0 <= o <= top), offsets[0])
            raise _overrun(bad, width, self.length)
        value, mask = self.value, (1 << width) - 1
        return [value >> top - o & mask for o in offsets]

    peek = read_fixed  # a reader has the value and length a BitString has


class TableView:
    """A ``width``-bit table at ``offset`` of a label, bit i stored i-th.

    The table is taken from the label once; each ``bit`` probe is charged
    one word, the fetch a pointer-based decoder would make for it.
    """

    __slots__ = ("_read", "_table", "_len")

    def __init__(self, read: LabelReader, offset: int, width: int):
        self._read = read
        self._len = width
        self._table = read.peek(offset, width)

    def bit(self, i: int) -> int:
        self._read.words += 1
        if not 0 <= i < self._len:
            raise ValueError(f"table probe {i} out of range {self._len}")
        return self._table >> self._len - 1 - i & 1


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
            f.write(lb.to_bytes())


def _file_header(head: bytes, size: int) -> tuple[int, int]:
    """(scheme_id, n) from a file's first bytes after checking magic and
    version, and that a file of no labels ends with its header (for n > 0
    the records must fill the file, which ``_record`` checks)."""
    if len(head) < 10 or head[:4] != MAGIC:
        raise ValueError("not a label file (bad magic)")
    version = head[4]
    if version != FILE_VERSION:
        raise ValueError(f"unsupported label file version {version}")
    n = int.from_bytes(head[6:10], "little")
    if n == 0 and size != 10:
        raise ValueError("label file of 0 nodes has bytes past its header")
    return head[5], n


def _record_span(i: int, off: int, end: int, n: int, size: int) -> None:
    """Node i's record must start past the offset table (right after it for
    node 0) and end at ``end``, the next node's offset or the file size."""
    first = 10 + 8 * n
    if off < first or (i == 0 and off != first) or not off + 4 <= end <= size:
        raise ValueError(f"offset table entry of node {i} is out of range")


def _record(i: int, rec: bytes) -> BitString:
    """Node i's label from its record, which must fill ``rec`` exactly and
    leave the padding bits of its last byte zero."""
    bitlen = int.from_bytes(rec[:4], "little")
    if 4 + (bitlen + 7) // 8 != len(rec):
        raise ValueError(f"offset table entry of node {i} disagrees with its record")
    return BitString.from_bytes(rec[4:], bitlen)


def read_label_file(path: str) -> tuple[int, int, list[BitString]]:
    """Read all labels; returns (scheme_id, n, labels)."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        scheme_id, n = _file_header(f.read(10), size)
        if 10 + 8 * n > size:
            raise ValueError("truncated label file offset table")
        offs = struct.unpack(f"<{n}Q", f.read(8 * n)) + (size,)
        labels = []
        for i in range(n):
            off, end = offs[i], offs[i + 1]
            _record_span(i, off, end, n, size)
            f.seek(off)
            labels.append(_record(i, f.read(end - off)))
        return scheme_id, n, labels


def read_labels_at(path: str, indices: list[int]) -> tuple[int, int, dict[int, BitString]]:
    """Read only the requested labels: per label, one positioned read of its
    offset table entries and one of its record."""
    out: dict[int, BitString] = {}
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        scheme_id, n = _file_header(os.pread(fd, 10, 0), size)
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"node {i} out of range for n={n}")
            want = 16 if i + 1 < n else 8
            raw = os.pread(fd, want, 10 + 8 * i)
            if len(raw) != want:
                raise ValueError("truncated label file offset table")
            off = int.from_bytes(raw[:8], "little")
            end = int.from_bytes(raw[8:], "little") if want == 16 else size
            _record_span(i, off, end, n, size)
            out[i] = _record(i, os.pread(fd, end - off, off))
    finally:
        os.close(fd)
    return scheme_id, n, out
