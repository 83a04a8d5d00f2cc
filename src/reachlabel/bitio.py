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
    version  1 byte   (currently 8)
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
FILE_VERSION = 8
WARMUP_ID = 1  # the one scheme whose labels have no intra section or blob


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
    """The field widths of a label over ``n`` nodes: ``iw`` for a value in
    [0, n), ``cw`` for a value in [0, n], and ``placement`` for a composite
    label's intra placement fields topo[iw] grp[iw] beg[iw] end[cw]
    thick[1]; masks ``imask``, ``cmask``; and the words charged for the
    header and then those fields (``head_words``) or a warm-up label's
    scc[iw] index[iw] (``warm_words``). Decoders take them from
    ``widths(n)``, which the labels of one encoding share."""

    __slots__ = ("n", "iw", "cw", "placement", "imask", "cmask", "head_words", "warm_words")

    def __init__(self, n: int):
        self.n = n
        self.iw = iw = index_width(n)
        self.cw = cw = count_width(n)
        self.placement = 3 * iw + cw + 1
        self.imask, self.cmask = (1 << iw) - 1, (1 << cw) - 1
        self.head_words = 1 + ((self.placement + 63) >> 6 or 1)
        self.warm_words = 1 + ((2 * iw + 63) >> 6 or 1)


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

    def finish(self) -> BitString:
        return BitString(self._acc, self._len)


def overrun_error(offset: int, width: int, length: int) -> ValueError:
    return ValueError(f"read of {width} bits at offset {offset} overruns {length}-bit string")


def read_fixed(bits: BitString, offset: int, width: int) -> int:
    """Read ``width`` bits starting at bit ``offset``."""
    end = offset + width
    if width < 0 or offset < 0 or end > bits.length:
        raise overrun_error(offset, width, bits.length)
    return bits.value >> (bits.length - end) & (1 << width) - 1


class LabelReader:
    """One label read field by field from its int, taken as it is.

    ``read(offset, width)`` takes a field by shift and mask and counts the
    64-bit words a pointer-based decoder would fetch for it, at least one
    per read. ``peek`` takes a field without counting, for a table, which a
    decoder keeps as that int and its width; ``table_bit`` probes one bit of
    such a table, charged one word. ``probes`` is None, or a set to which
    each ``table_bit`` adds the label offset of the bit it reads: the
    record of which bits a query depends on.
    ``scheme.LabelView``, a label's view, is a LabelReader; blob views
    read through that view, or through a LabelReader of their own.
    """

    __slots__ = ("value", "length", "words", "probes")

    def __init__(self, bits: BitString):
        self.value = bits.value
        self.length = bits.length
        self.words = 0
        self.probes = None

    def __call__(self, offset: int, width: int) -> int:
        self.words += (width + 63) >> 6 or 1
        end = offset + width
        if width < 0 or offset < 0 or end > self.length:
            raise overrun_error(offset, width, self.length)
        return self.value >> (self.length - end) & (1 << width) - 1

    def table_bit(self, table: int, width: int, end: int, i: int) -> int:
        """Bit i of a ``width``-bit table taken by ``peek`` that ends at
        label offset ``end`` (written as the int whose bit i is table bit i,
        at field position width-1-i, so at offset end-1-i), charged one word,
        the fetch a pointer-based decoder would make."""
        self.words += 1
        if not 0 <= i < width:
            raise ValueError(f"table probe {i} out of range {width}")
        if self.probes is not None:
            self.probes.add(end - 1 - i)
        return table >> i & 1

    peek = read_fixed  # a reader has the value and length a BitString has


@dataclass(frozen=True)
class LabelHeader:
    """Self-describing front matter of every label: scheme[8] n[32].

    ``offsets`` holds the absolute bit offsets of a composite label's intra
    section and blob, which ``read`` derives rather than reads: the intra
    section follows the header, and the blob follows the intra section's
    placement fields and a thin group's end - beg bit table. A warm-up
    label has none. ``write`` writes the scheme id and n alone.
    """

    scheme_id: int
    n: int
    offsets: tuple[int, ...] = ()

    HEADER_FIXED_BITS = 8 + 32
    bit_length = HEADER_FIXED_BITS

    def write(self, w: BitWriter) -> None:
        if not 0 <= self.scheme_id < 256:
            raise ValueError("scheme_id out of range")
        if not 0 <= self.n < (1 << 32):
            raise ValueError("n out of range")
        w.write(self.scheme_id, 8)
        w.write(self.n, 32)

    @classmethod
    def read(cls, bits: BitString) -> "LabelHeader":
        head = read_fixed(bits, 0, cls.HEADER_FIXED_BITS)
        scheme_id, n = head >> 32, head & 0xFFFFFFFF
        if scheme_id == WARMUP_ID:
            return cls(scheme_id, n)
        wd, intra = widths(n), cls.HEADER_FIXED_BITS
        fields = read_fixed(bits, intra, wd.placement)  # ... beg[iw] end[cw] thick[1]
        table = 0 if fields & 1 else (fields >> 1 & wd.cmask) - (fields >> wd.cw + 1 & wd.imask)
        return cls(scheme_id, n, (intra, intra + wd.placement + table))


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
