"""Bit packing, headers, and the label file format."""

from __future__ import annotations

import struct
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reachlabel.bitio import (
    FILE_VERSION,
    BitString,
    BitWriter,
    LabelHeader,
    LabelReader,
    count_width,
    index_width,
    read_fixed,
    read_label_file,
    read_labels_at,
    write_label_file,
)
from reachlabel.flatten import GroupLabel, write_inner


def test_index_width_values():
    assert index_width(1) == 1
    assert index_width(2) == 1
    assert index_width(3) == 2
    assert index_width(4) == 2
    assert index_width(5) == 3
    assert index_width(1024) == 10
    assert index_width(1025) == 11


def test_count_width_values():
    assert count_width(0) == 1
    assert count_width(1) == 1
    assert count_width(2) == 2
    assert count_width(7) == 3
    assert count_width(8) == 4


def test_width_rejects_negative():
    with pytest.raises(ValueError):
        index_width(-1)
    with pytest.raises(ValueError):
        count_width(-3)


@given(st.integers(min_value=1, max_value=10**6))
def test_index_width_covers_range(n):
    w = index_width(n)
    assert (1 << w) >= n
    assert w == 1 or (1 << (w - 1)) < n


fields = st.lists(
    st.integers(min_value=1, max_value=40).flatmap(
        lambda w: st.tuples(st.integers(min_value=0, max_value=(1 << w) - 1), st.just(w))
    ),
    min_size=1,
    max_size=30,
)


@given(fields)
def test_writer_reader_round_trip(vals):
    w = BitWriter()
    for value, width in vals:
        w.write(value, width)
    bits = w.finish()
    assert len(bits) == sum(width for _, width in vals)
    off = 0
    for value, width in vals:
        assert read_fixed(bits, off, width) == value
        off += width
    # appending the finished string writes the same bits as its fields
    outer, direct = BitWriter(), BitWriter()
    for wr in (outer, direct):
        wr.write(1, 1)
    outer.append(bits)
    for value, width in vals:
        direct.write(value, width)
    for wr in (outer, direct):
        wr.write(1, 2)
    assert outer.finish() == direct.finish()


@given(fields)
def test_adjacent_fields_read_as_one_value(vals):
    # Batched decode: one wide read must see earlier fields in higher bits.
    w = BitWriter()
    for value, width in vals:
        w.write(value, width)
    bits = w.finish()
    total = sum(width for _, width in vals)
    combined = read_fixed(bits, 0, total)
    expect = 0
    for value, width in vals:
        expect = (expect << width) | value
    assert combined == expect


def test_read_fixed_bounds():
    bits = BitWriter().finish()
    assert len(bits) == 0
    with pytest.raises(ValueError):
        read_fixed(bits, 0, 1)


def test_table_probes_name_their_label_offsets():
    # a 5-bit table 0b10110 at offsets 3..7 of a 10-bit label: bit i at 7 - i
    read = LabelReader(BitString(0b101_10110_01, 10))
    table = read.peek(3, 5)
    assert read.probes is None
    assert read.table_bit(table, 5, 8, 1) == 1  # logs nothing by default
    read.probes = set()
    assert [read.table_bit(table, 5, 8, i) for i in (0, 1, 4)] == [0, 1, 1]
    assert read.probes == {7, 6, 3}
    assert [read.value >> (10 - 1 - off) & 1 for off in (7, 6, 3)] == [0, 1, 1]
    with pytest.raises(ValueError):
        read.table_bit(table, 5, 8, 5)
    assert read.probes == {7, 6, 3}  # a refused probe reads no bit
    assert read.words == 5


def test_bitstring_rejects_a_value_wider_than_its_length():
    assert BitString(0b101, 3) == BitString(0b101, 3)
    assert hash(BitString(0b101, 3)) == hash(BitString(0b101, 3))
    assert BitString(0b101, 3) != BitString(0b101, 4)
    for value, length in ((0b1000, 3), (1, 0), (-1, 8), (0, -1)):
        with pytest.raises(ValueError):
            BitString(value, length)
    with pytest.raises(ValueError):
        BitString.from_bytes(b"\xa0\x00", 3)  # a byte past the last bit


def test_label_file_padding_bits_must_be_zero(tmp_path):
    w = BitWriter()
    w.write(0b101, 3)
    labels = [w.finish()] * 2
    path = tmp_path / "pad.rlbl"
    write_label_file(str(path), 2, 2, labels)
    good = path.read_bytes()
    assert good[-5] == 0b10100000  # node 1's only byte, before its CRC-32
    for bit in range(5):  # each padding bit of that byte
        path.write_bytes(good[:-5] + bytes([good[-5] | 1 << bit]) + good[-4:])
        with pytest.raises(ValueError, match="padding"):
            read_label_file(str(path))
        with pytest.raises(ValueError, match="padding"):
            read_labels_at(str(path), [1])
        assert read_labels_at(str(path), [0])[2] == {0: labels[0]}


def test_header_round_trip():
    # every header is scheme[8] n[32]; a warm-up label has no sections
    w = BitWriter()
    LabelHeader(1, 777).write(w)
    bits = w.finish()
    assert len(bits) == LabelHeader.HEADER_FIXED_BITS == 40
    assert LabelHeader.read(bits) == LabelHeader(1, 777)
    # a composite header's offsets are derived: the intra section follows
    # the header, and the blob follows its 41 placement bits and, for a thin
    # group, its (end - beg)//2 window bits
    for thick, table_bits in ((False, 2), (True, 0)):
        w = BitWriter()
        LabelHeader(2, 777).write(w)
        write_inner(w, GroupLabel(12, 2, 10, 15, thick, 0 if thick else 0b10), 777)
        w.write(0b11, 2)  # a blob stub
        back = LabelHeader.read(w.finish())
        assert back == LabelHeader(2, 777, (40, 40 + 41 + table_bits))
        assert back.bit_length == 40


def test_header_rejects_out_of_range():
    w = BitWriter()
    with pytest.raises(ValueError):
        LabelHeader(300, 5).write(w)
    with pytest.raises(ValueError):
        LabelHeader(1, 1 << 32).write(w)


label_lists = st.lists(
    st.integers(min_value=0, max_value=96).flatmap(
        lambda n: st.builds(BitString, st.integers(min_value=0, max_value=(1 << n) - 1), st.just(n))
    ),
    min_size=1,
    max_size=9,
)


@given(labels=label_lists, sid=st.integers(min_value=1, max_value=3))
def test_label_file_round_trip(tmp_path_factory, labels, sid):
    for b in labels:
        raw = b.to_bytes()
        pad = 8 * len(raw) - len(b)
        assert 0 <= pad < 8
        assert int.from_bytes(raw, "big") == b.value << pad  # zero padded
        assert BitString.from_bytes(raw, len(b)) == b
    path = tmp_path_factory.mktemp("rt") / "labels.rlbl"
    write_label_file(str(path), sid, len(labels), labels)
    got_sid, got_n, back = read_label_file(str(path))
    assert (got_sid, got_n) == (sid, len(labels))
    assert back == labels


def test_label_file_round_trip_concrete(tmp_path):
    labels = [
        BitString(0b1011, 4),
        BitString(0, 0),
        BitString(0xFF01, 16),
    ]
    path = tmp_path / "x.rlbl"
    write_label_file(str(path), 2, 3, labels)
    sid, n, back = read_label_file(str(path))
    assert (sid, n) == (2, 3)
    assert back == labels


def test_read_labels_at_loads_subset(tmp_path):
    labels = [BitString(i, 8) for i in range(6)]
    path = tmp_path / "y.rlbl"
    write_label_file(str(path), 1, 6, labels)
    sid, n, got = read_labels_at(str(path), [4, 1])
    assert (sid, n) == (1, 6)
    assert set(got) == {1, 4}
    assert got[4] == labels[4]
    assert got[1] == labels[1]


def test_read_labels_at_rejects_bad_index(tmp_path):
    path = tmp_path / "z.rlbl"
    write_label_file(str(path), 1, 2, [BitString(0, 0)] * 2)
    with pytest.raises(ValueError):
        read_labels_at(str(path), [2])


def test_label_file_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.rlbl"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        read_label_file(str(path))


def test_empty_label_file_must_end_at_its_header(tmp_path):
    path = tmp_path / "empty.rlbl"
    write_label_file(str(path), 2, 0, [])
    good = path.read_bytes()
    assert len(good) == 10
    assert read_label_file(str(path)) == (2, 0, [])
    path.write_bytes(good + b"\xde\xad\xbe\xef")
    with pytest.raises(ValueError):
        read_label_file(str(path))
    with pytest.raises(ValueError):
        read_labels_at(str(path), [])


def test_label_file_offset_table_points_at_each_record(tmp_path):
    labels = [BitString(0b101, 3), BitString(0, 0), BitString(0xFF01, 16)]
    path = tmp_path / "t.rlbl"
    write_label_file(str(path), 2, 3, labels)
    raw = path.read_bytes()
    assert raw[4] == FILE_VERSION == 9
    offsets = struct.unpack("<3Q", raw[10:34])
    assert offsets == (34, 34 + 4 + 1 + 4, 34 + 4 + 1 + 4 + 4 + 4)
    assert len(raw) == offsets[2] + 4 + 2 + 4
    # each record ends in the CRC-32 of its bitlen and bits
    for start, stop in zip(offsets, offsets[1:] + (len(raw),)):
        assert raw[stop - 4 : stop] == struct.pack("<I", zlib.crc32(raw[start : stop - 4]))


def test_corrupted_offset_table_raises_value_error(tmp_path):
    labels = [  # the first 8i + 3 bits of the bytes 0, 1, ..., i
        BitString(int.from_bytes(bytes(range(i + 1)), "big") >> 5, 8 * i + 3) for i in range(4)
    ]
    path = tmp_path / "c.rlbl"
    write_label_file(str(path), 3, 4, labels)
    good = path.read_bytes()
    table = range(10, 10 + 8 * 4)

    def corrupt(data):
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            read_label_file(str(path))

    # every single-bit flip of the table: the whole-file reader and a seek to
    # the entry's own node both refuse
    for byte in table:
        for bit in range(8):
            data = bytearray(good)
            data[byte] ^= 1 << bit
            corrupt(data)
            with pytest.raises(ValueError):
                read_labels_at(str(path), [(byte - 10) // 8])
    # an in-range offset that names another node's record
    data = bytearray(good)
    data[18:26] = good[26:34]  # node 1's entry := node 2's
    corrupt(data)
    with pytest.raises(ValueError):
        read_labels_at(str(path), [1])
    with pytest.raises(ValueError):
        read_labels_at(str(path), [0])
    # a table cut short, and files of versions 1 to 8
    corrupt(good[:10 + 8 * 2 + 3])
    with pytest.raises(ValueError):
        read_labels_at(str(path), [3])
    for old in range(1, 9):
        corrupt(good[:4] + bytes([old]) + good[5:])
        with pytest.raises(ValueError, match="version"):
            read_labels_at(str(path), [0])
    # the untouched file still reads back
    path.write_bytes(good)
    assert read_label_file(str(path))[2] == labels
    assert read_labels_at(str(path), [3, 0])[2] == {0: labels[0], 3: labels[3]}
