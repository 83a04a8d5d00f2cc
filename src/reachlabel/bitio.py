"""MSB-first bit packing for labels and the on-disk label file format.

Every label is a contiguous bit string: fields are written most significant
bit first, one after another, with no alignment padding between fields. The
last byte of a serialized string is zero-padded on the low side. All integer
fields are fixed width; widths are pure functions of values already decoded
(usually the node count), which keeps labels self-describing.

Label file layout (little endian where noted)::

    magic    4 bytes  b"RLBL"
    version  1 byte   (currently 1)
    scheme   1 byte
    n        4 bytes  u32 LE
    then, per node in id order:
      bitlen 4 bytes  u32 LE
      bits   ceil(bitlen/8) bytes, MSB-first, zero padded
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass

MAGIC = b"RLBL"
FILE_VERSION = 1


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
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(bytes([FILE_VERSION, scheme_id]))
        f.write(struct.pack("<I", n))
        for lb in labels:
            f.write(struct.pack("<I", lb.length))
            f.write(lb.data[: (lb.length + 7) // 8])


def _read_file_header(f: io.BufferedReader) -> tuple[int, int]:
    head = f.read(10)
    if len(head) != 10 or head[:4] != MAGIC:
        raise ValueError("not a label file (bad magic)")
    version = head[4]
    if version != FILE_VERSION:
        raise ValueError(f"unsupported label file version {version}")
    scheme_id = head[5]
    (n,) = struct.unpack("<I", head[6:10])
    return scheme_id, n


def read_label_file(path: str) -> tuple[int, int, list[BitString]]:
    """Read all labels; returns (scheme_id, n, labels)."""
    with open(path, "rb") as f:
        scheme_id, n = _read_file_header(f)
        labels = []
        for _ in range(n):
            raw = f.read(4)
            if len(raw) != 4:
                raise ValueError("truncated label file")
            (bitlen,) = struct.unpack("<I", raw)
            nbytes = (bitlen + 7) // 8
            data = f.read(nbytes)
            if len(data) != nbytes:
                raise ValueError("truncated label file")
            labels.append(BitString(data, bitlen))
        return scheme_id, n, labels


def read_labels_at(path: str, indices: list[int]) -> tuple[int, int, dict[int, BitString]]:
    """Read only the requested labels, skipping everything else."""
    want = set(indices)
    out: dict[int, BitString] = {}
    with open(path, "rb") as f:
        scheme_id, n = _read_file_header(f)
        for i in want:
            if not 0 <= i < n:
                raise ValueError(f"node {i} out of range for n={n}")
        for i in range(n):
            raw = f.read(4)
            if len(raw) != 4:
                raise ValueError("truncated label file")
            (bitlen,) = struct.unpack("<I", raw)
            nbytes = (bitlen + 7) // 8
            if i in want:
                data = f.read(nbytes)
                if len(data) != nbytes:
                    raise ValueError("truncated label file")
                out[i] = BitString(data, bitlen)
                if len(out) == len(want):
                    break
            else:
                f.seek(nbytes, io.SEEK_CUR)
        if len(out) != len(want):
            raise ValueError("label file ended before all requested labels")
    return scheme_id, n, out
