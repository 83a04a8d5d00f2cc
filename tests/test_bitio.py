"""Bit packing, headers, and the label file format."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reachlabel.bitio import (
    FILE_VERSION,
    BitString,
    BitWriter,
    LabelHeader,
    count_width,
    index_width,
    read_fixed,
    read_label_file,
    read_labels_at,
    write_label_file,
)


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


def test_bitstring_equality_ignores_padding():
    a = BitString(bytes([0b10100000]), 3)
    b = BitString(bytes([0b10111111]), 3)
    assert a == b
    assert hash(a) == hash(b)
    assert a != BitString(bytes([0b11100000]), 3)


def test_header_round_trip():
    w = BitWriter()
    hdr = LabelHeader(2, 777, (112, 345))
    hdr.write(w)
    back = LabelHeader.read(w.finish())
    assert back == hdr
    assert hdr.bit_length == 48 + 2 * 32


def test_header_rejects_out_of_range():
    w = BitWriter()
    with pytest.raises(ValueError):
        LabelHeader(300, 5).write(w)
    with pytest.raises(ValueError):
        LabelHeader(1, 1 << 32).write(w)


label_lists = st.lists(
    st.tuples(st.binary(max_size=12), st.integers(min_value=0, max_value=7)).map(
        lambda t: BitString(t[0], max(0, len(t[0]) * 8 - t[1]))
    ),
    min_size=1,
    max_size=9,
)


@given(labels=label_lists, sid=st.integers(min_value=1, max_value=3))
def test_label_file_round_trip(tmp_path_factory, labels, sid):
    path = tmp_path_factory.mktemp("rt") / "labels.rlbl"
    write_label_file(str(path), sid, len(labels), labels)
    got_sid, got_n, back = read_label_file(str(path))
    assert (got_sid, got_n) == (sid, len(labels))
    assert back == labels


def test_label_file_round_trip_concrete(tmp_path):
    labels = [
        BitString(bytes([0b10110000]), 4),
        BitString(b"", 0),
        BitString(b"\xff\x01", 16),
    ]
    path = tmp_path / "x.rlbl"
    write_label_file(str(path), 2, 3, labels)
    sid, n, back = read_label_file(str(path))
    assert (sid, n) == (2, 3)
    assert back == labels


def test_read_labels_at_loads_subset(tmp_path):
    labels = [BitString(bytes([i]), 8) for i in range(6)]
    path = tmp_path / "y.rlbl"
    write_label_file(str(path), 1, 6, labels)
    sid, n, got = read_labels_at(str(path), [4, 1])
    assert (sid, n) == (1, 6)
    assert set(got) == {1, 4}
    assert got[4] == labels[4]
    assert got[1] == labels[1]


def test_read_labels_at_rejects_bad_index(tmp_path):
    path = tmp_path / "z.rlbl"
    write_label_file(str(path), 1, 2, [BitString(b"", 0)] * 2)
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
    labels = [BitString(bytes([0xA0]), 3), BitString(b"", 0), BitString(b"\xff\x01", 16)]
    path = tmp_path / "t.rlbl"
    write_label_file(str(path), 2, 3, labels)
    raw = path.read_bytes()
    assert raw[4] == FILE_VERSION == 2
    offsets = struct.unpack("<3Q", raw[10:34])
    assert offsets == (34, 34 + 4 + 1, 34 + 4 + 1 + 4)
    assert len(raw) == offsets[2] + 4 + 2


def test_corrupted_offset_table_raises_value_error(tmp_path):
    labels = [BitString(bytes(range(i + 1)), 8 * i + 3) for i in range(4)]
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
    # a table cut short, and a version 1 file
    corrupt(good[:10 + 8 * 2 + 3])
    with pytest.raises(ValueError):
        read_labels_at(str(path), [3])
    corrupt(good[:4] + b"\x01" + good[5:])
    with pytest.raises(ValueError):
        read_labels_at(str(path), [0])
    # the untouched file still reads back
    path.write_bytes(good)
    assert read_label_file(str(path))[2] == labels
    assert read_labels_at(str(path), [3, 0])[2] == {0: labels[0], 3: labels[3]}
