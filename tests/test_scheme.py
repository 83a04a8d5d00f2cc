"""End-to-end labels: container layout, eager and lazy query surfaces."""

from __future__ import annotations

import functools
import hashlib
import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from helpers import bounds_table
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachlabel.bitio import (
    BitString,
    BitWriter,
    LabelHeader,
    index_width,
    read_fixed,
    read_label_file,
    read_labels_at,
    write_label_file,
)
from reachlabel.cli import main
from reachlabel import crosslabel
from reachlabel.crosslabel import CLS_UPPER
from reachlabel.graph import Digraph, reach_rows
from reachlabel.oracle import GenSpec, flip_bit, generate
from reachlabel.scheme import (
    LabelView,
    Pipeline,
    SCHEME_IDS,
    encode,
    parse_label,
    query,
    query_lazy,
    stats,
)

COMBOS = [
    ("warmup", "paper"),
    ("third", "paper"),
    ("third", "force"),
    ("average", "paper"),
    ("average", "force"),
]


@st.composite
def digraphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=3 * n,
        )
    )
    return Digraph(n, edges)


@given(digraphs())
@settings(max_examples=60, deadline=None)
def test_query_matches_oracle_all_schemes(g):
    rows = reach_rows(g)
    pl = Pipeline(g)
    for scheme, profile in COMBOS:
        ls = encode(g, scheme, profile, pipeline=pl)
        parsed = [parse_label(b) for b in ls.labels]
        for u in range(g.n):
            for v in range(g.n):
                want = bool(rows[u] >> v & 1)
                assert query(parsed[u], parsed[v]) == want, (scheme, profile, u, v)


@given(digraphs(max_n=10))
@settings(max_examples=40, deadline=None)
def test_lazy_and_eager_agree(g):
    pl = Pipeline(g)
    for scheme, profile in COMBOS:
        ls = encode(g, scheme, profile, pipeline=pl)
        parsed = [parse_label(b) for b in ls.labels]
        for u in range(g.n):
            for v in range(g.n):
                ans, words = query_lazy(ls.labels[u], ls.labels[v])
                assert ans == query(parsed[u], parsed[v])
                assert words >= 1


def test_single_node_graph():
    g = Digraph(1, [])
    for scheme, profile in COMBOS:
        ls = encode(g, scheme, profile)
        l = parse_label(ls.labels[0])
        assert query(l, l) is True


def test_scc_members_share_one_label():
    # 3-cycle {0,1,2} feeding the tail 3 -> 4, plus a 2-cycle {5,6} below 4
    g = Digraph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 5)])
    pl = Pipeline(g)
    for scheme, profile in COMBOS:
        ls = encode(g, scheme, profile, pipeline=pl)
        assert ls.n == 7 and len(ls.labels) == 7
        assert ls.labels[0] is ls.labels[1] is ls.labels[2]
        assert ls.labels[5] is ls.labels[6]
        assert len({ls.labels[u] for u in (0, 3, 4, 5)}) == 4
        hdr = LabelHeader.read(ls.labels[0])
        assert hdr.n == (7 if scheme == "warmup" else 4)
        parsed = [parse_label(b) for b in ls.labels]
        assert [p.scc for p in parsed] == [0, 0, 0, 1, 2, 3, 3]


def test_two_cycle_is_mutually_reachable():
    g = Digraph(2, [(0, 1), (1, 0)])
    for scheme, profile in COMBOS:
        ls = encode(g, scheme, profile)
        a, b = (parse_label(x) for x in ls.labels)
        assert query(a, b) and query(b, a)


def test_unknown_scheme_and_profile_rejected():
    g = Digraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        encode(g, "fourth")
    with pytest.raises(ValueError):
        encode(g, "third", "fancy")


def test_query_rejects_mismatched_labels():
    g = Digraph(3, [(0, 1)])
    lw = parse_label(encode(g, "warmup").labels[0])
    lt = parse_label(encode(g, "third").labels[1])
    with pytest.raises(ValueError):
        query(lw, lt)
    other = parse_label(encode(Digraph(4, []), "warmup").labels[0])
    with pytest.raises(ValueError):
        query(lw, other)


def test_parse_rejects_unknown_scheme_id():
    w = BitWriter()
    LabelHeader(9, 3).write(w)
    w.write(0, 2 + 1)  # scc + index stub
    with pytest.raises(ValueError):
        parse_label(w.finish())


def test_parse_rejects_truncated_label():
    g = Digraph(5, [(0, 1), (1, 2)])
    bits = encode(g, "third").labels[0]
    clipped = prefix(bits, len(bits) - 1)
    with pytest.raises(ValueError):
        parse_label(clipped)


def test_warmup_label_length_formula():
    for n in (1, 2, 7, 10, 33):
        g = Digraph(n, [])
        ls = encode(g, "warmup")
        for b in ls.labels:
            assert len(b) == 48 + 2 * index_width(n) + n // 2


def test_labels_share_per_scheme_length_only_for_warmup():
    g = Digraph(9, [(i, i + 1) for i in range(8)])
    warm = encode(g, "warmup")
    assert len({len(b) for b in warm.labels}) == 1


def test_stats_sections():
    g = Digraph(20, [(i, j) for i in range(20) for j in range(i + 1, i + 3) if j < 20])
    for scheme in ("warmup", "third", "average"):
        rep = stats(encode(g, scheme))
        assert rep["scheme"] == scheme
        assert rep["n"] == 20
        total = rep["sections"]
        if scheme == "warmup":
            assert set(total) == {"header", "scc", "index", "window"}
        else:
            assert set(total) == {"header", "scc", "intra", "cross"}
        assert sum(sec["max"] for sec in total.values()) >= rep["max_bits"]
        assert rep["max_bits"] >= rep["mean_bits"] > 0


def test_label_file_round_trip_preserves_queries(tmp_path):
    g = Digraph(8, [(0, 1), (1, 2), (2, 3), (1, 4), (5, 6)])
    ls = encode(g, "third")
    path = tmp_path / "g.rlbl"
    write_label_file(str(path), ls.scheme_id, ls.n, ls.labels)
    sid, n, labels = read_label_file(str(path))
    assert (sid, n) == (ls.scheme_id, 8)
    rows = reach_rows(g)
    parsed = [parse_label(b) for b in labels]
    for u in range(8):
        for v in range(8):
            assert query(parsed[u], parsed[v]) == bool(rows[u] >> v & 1)


def test_lazy_label_exposes_header_fields():
    g = Digraph(6, [(0, 1), (2, 3)])
    ls = encode(g, "average", "force")
    lab = LabelView(ls.labels[2])
    assert lab.n == 6
    assert lab.scheme_id == SCHEME_IDS["average"]


def test_pipeline_shares_one_peeling_per_profile():
    g = Digraph(10, [(i, i + 1) for i in range(9)])
    pl = Pipeline(g)
    encode(g, "third", "paper", pipeline=pl)
    encode(g, "average", "paper", pipeline=pl)
    third = pl.cross_labeling("paper", "third")
    average = pl.cross_labeling("paper", "average")
    assert third is not average
    assert third.records, "chain closure must produce cross iterations"
    for rt, ra in zip(third.records, average.records):
        assert rt.near_inst is ra.near_inst
        assert rt.pairs == ra.pairs


# Label file digests of three seeded graphs. The encoder promises identical
# bytes across refactors; a deliberate format change updates these pins.
# Last re-pinned when rest sets became sorted key arrays (version 3). The
# warm-up dag's labels hold no set, so only its version byte changed: with
# byte 4 set back to 2 its file hashes to the version-2 pin, 09b8d7f2...
PINNED_DIGESTS = [
    (
        GenSpec("dag", 60, 0.1, 3),
        "warmup",
        "paper",
        "d02cbab4b4e91c45a33ac6ad3a09ae1f1a9b43db9cf4bc070f1c878c4f172b9a",
    ),
    (
        GenSpec("digraph", 80, 0.03, 5),  # 31 components, the largest of 50
        "third",
        "paper",
        "2af3ce3f9751650f224dc332a0a6223a195d0d293fc42df2c940af8145df6034",
    ),
    (
        GenSpec("poset", 70, 0.5, 7),
        "average",
        "force",
        "9e3db8a3a2d415c64a2b5e471af231638d9747fe52f34a7699d8cb34c3a4f658",
    ),
]


@pytest.mark.parametrize(
    "spec,scheme,profile,digest", PINNED_DIGESTS, ids=["dag", "digraph", "poset"]
)
def test_label_file_bytes_are_pinned(tmp_path, spec, scheme, profile, digest):
    ls = encode(generate(spec), scheme, profile)
    path = tmp_path / "pinned.rlbl"
    write_label_file(str(path), ls.scheme_id, ls.n, ls.labels)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_sparse_dag_rest_sets_are_pinned(tmp_path, monkeypatch):
    """A sparse DAG whose labels hold hundreds of rest sets, the largest of
    83 keys, so a probe may take seven binary-search steps. The digest pins
    every key."""
    real = crosslabel.build_set
    built = []

    def recording(*args):
        out = real(*args)
        if out.size:
            built.append(out)
        return out

    monkeypatch.setattr(crosslabel, "build_set", recording)
    ls = encode(generate(GenSpec("dag", 500, 0.04, 5)), "third", "paper")
    assert max(s.size for s in built) == 83
    path = tmp_path / "pinned.rlbl"
    write_label_file(str(path), ls.scheme_id, ls.n, ls.labels)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "678045fea793699ed16811be3fc5fc6812b084d9175a9a7c9202e78c91da0fe4"
    )


# Words read by query_lazy, summed over all ordered node pairs of each pinned
# graph, as counted by the decoder before its eager and lazy halves merged.
# Criterion 9 bounds only the largest count; these totals catch any drift in
# what a query reads or in how the reads are counted. The digraph and poset
# totals were re-pinned when rest sets became sorted key arrays, probed by
# binary search at one word per step.
PINNED_WORDS = [16170, 75857, 81028]


@pytest.mark.parametrize(
    "spec,scheme,profile,words",
    [(spec, scheme, profile, w) for (spec, scheme, profile, _), w in zip(PINNED_DIGESTS, PINNED_WORDS)],
    ids=["dag", "digraph", "poset"],
)
def test_lazy_word_totals_are_pinned(spec, scheme, profile, words):
    labels = encode(generate(spec), scheme, profile).labels
    assert sum(query_lazy(a, b)[1] for a in labels for b in labels) == words


# -- layout checks of parse_label ----------------------------------------------


def prefix(bits: BitString, t: int) -> BitString:
    """The first ``t`` bits of ``bits``."""
    return BitString(bits.value >> len(bits) - t, t)


def with_field(bits: BitString, off: int, width: int, value: int) -> BitString:
    """Copy of ``bits`` with the ``width``-bit field at ``off`` set to ``value``."""
    shift = len(bits) - off - width
    whole = read_fixed(bits, 0, len(bits)) ^ (read_fixed(bits, off, width) ^ value) << shift
    w = BitWriter()
    w.write(whole, len(bits))
    return w.finish()


def shifted_bound(bits: BitString, idx: int, delta: int) -> BitString:
    tab, ow = bounds_table(bits)
    return with_field(bits, tab + idx * ow, ow, read_fixed(bits, tab + idx * ow, ow) + delta)


@functools.lru_cache(maxsize=None)
def poset_labels():
    """The pinned poset (acyclic, so component ids are node ids)."""
    spec, scheme, profile, _ = PINNED_DIGESTS[2]
    return encode(generate(spec), scheme, profile)


def near_one_bit_short() -> BitString:
    # bound 1 ends node 0's first near section and starts its first far one
    return shifted_bound(poset_labels().labels[0], 1, -1)


def matched_far_too_short() -> BitString:
    ls = poset_labels()
    rec = next(r for r in ls.cross.records if r.front_match)
    return shifted_bound(ls.labels[rec.front_match[0]], 2 * rec.s, -1)


def intra_offset_off() -> BitString:
    bits = poset_labels().labels[0]
    return with_field(bits, 48, 32, LabelHeader.read(bits).offsets[0] + 1)


def blob_overruns() -> BitString:
    bits = poset_labels().labels[0]
    return prefix(bits, LabelHeader.read(bits).offsets[1] + 4)


def bounds_decrease() -> BitString:
    # bound 1, the end of node 0's first near section, moves past bound 2
    bits = poset_labels().labels[0]
    tab, ow = bounds_table(bits)
    return with_field(bits, tab + ow, ow, read_fixed(bits, tab + 2 * ow, ow) + 1)


def far_flags_overrun() -> BitString:
    # an upper node's far section ends one bit before its sub-label does,
    # so its flags would run past the section's bound
    ls = poset_labels()
    rec = next(r for r in ls.cross.records
               if r.bicliques and any(r.cls[u] == CLS_UPPER for u in r.outside))
    u = next(u for u in rec.outside if rec.cls[u] == CLS_UPPER)
    return shifted_bound(ls.labels[u], 2 * rec.s, -(len(rec.bicliques) + 1))


JUNK_BITS = 3


def leading_fencepost() -> BitString:
    # every bound of node 0 raised by three and three junk bits put before
    # its first section: each section still fills its bounds
    ls = poset_labels()
    bits = ls.labels[0]
    tab, ow = bounds_table(bits)
    payload = tab + (2 * (ls.cross.k - 1) + 1) * ow
    w = BitWriter()
    w.write(read_fixed(bits, 0, tab), tab)
    for at in range(tab, payload, ow):
        bound = read_fixed(bits, at, ow) + JUNK_BITS
        assert bound >> ow == 0
        w.write(bound, ow)
    w.write(0b101, JUNK_BITS)
    w.write(read_fixed(bits, payload, len(bits) - payload), len(bits) - payload)
    return w.finish()


def warm_index() -> BitString:
    # a warm-up label of the pinned dag (n = 60) whose index field reads n
    spec, scheme, profile, _ = PINNED_DIGESTS[0]
    bits = encode(generate(spec), scheme, profile).labels[0]
    n = LabelHeader.read(bits).n
    iw = index_width(n)
    return with_field(bits, LabelHeader.HEADER_FIXED_BITS + iw, iw, n)


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (near_one_bit_short, "near section length"),
        (matched_far_too_short, "far section length mismatch"),
        (intra_offset_off, "intra section offset mismatch"),
        (blob_overruns, "overruns"),
        (bounds_decrease, "near section length"),
        (far_flags_overrun, "far section length mismatch"),
        (leading_fencepost, "does not start at 0"),
        (warm_index, "warm-up index"),
    ],
    ids=["near-short", "matched-far-length", "intra-offset", "blob-overrun",
         "bounds-decrease", "far-flags-overrun", "leading-fencepost", "warm-index"],
)
def test_parse_rejects_corrupt_layout(corrupt, message):
    bits = corrupt()
    # no copy grows a label by more than the leading-fencepost junk
    assert len(bits) <= len(poset_labels().labels[0]) + JUNK_BITS
    with pytest.raises(ValueError, match=message):
        parse_label(bits)


# parse_label's verdict on every single-bit flip and every truncation of each
# distinct label of the pinned graphs: the number of rejected copies and a
# sha256 of the verdicts ("1" rejected, "0" accepted; per label its flips, bit
# 0 first, then its truncations, length 0 first). Computed with the check
# walk that read each section's bounds on its own; a faster walk must reject
# exactly the same copies. The dag pin then rose from 8220 to 8236 when the
# check began to reject warm-up indices of n or more, adding 16 flipped
# copies and keeping every copy rejected before. The digraph and poset pins
# were re-pinned when rest sets became sorted key arrays: their labels lost
# the sets' mode bits, seeds and occupancy bits.
PINNED_VERDICTS = [
    (8236, "361b722f99c40aff1f7bb6077bae6fa7a52d7992ff2d5df0235075144f3c3682"),
    (16712, "ed30e826c7e470cb1552b3d4b241973bcfe5ad6cfc4a3aeede6d78d70e894420"),
    (51672, "eba41a0175fac9bb428e9eea868ef751b76243c802b6b124ff7d29005cced962"),
]


@pytest.mark.parametrize(
    "spec,scheme,profile,rejected,digest",
    [(spec, scheme, profile, *pin)
     for (spec, scheme, profile, _), pin in zip(PINNED_DIGESTS, PINNED_VERDICTS)],
    ids=["dag", "digraph", "poset"],
)
def test_corruption_verdicts_are_pinned(spec, scheme, profile, rejected, digest):
    verdicts = []
    for bits in dict.fromkeys(encode(generate(spec), scheme, profile).labels):
        copies = [flip_bit(bits, i) for i in range(len(bits))]
        copies += [prefix(bits, t) for t in range(len(bits))]
        for copy in copies:
            try:
                parse_label(copy)
            except ValueError:
                verdicts.append("1")
            else:
                verdicts.append("0")
    text = "".join(verdicts)
    assert (text.count("1"), hashlib.sha256(text.encode()).hexdigest()) == (rejected, digest)


# -- corrupted labels ----------------------------------------------------------

FUZZ_GRAPH = GenSpec("digraph", 24, 0.06, 1)  # 20 strongly connected components
FUZZ_SCHEMES = ("warmup", "third", "average")


@functools.lru_cache(maxsize=None)
def fuzz_labels(scheme: str) -> tuple[BitString, ...]:
    return tuple(encode(generate(FUZZ_GRAPH), scheme, "force").labels)


@given(
    st.sampled_from(FUZZ_SCHEMES),
    st.integers(min_value=0, max_value=FUZZ_GRAPH.n - 1),
    st.integers(min_value=0, max_value=FUZZ_GRAPH.n - 1),
    st.booleans(),
    st.sampled_from(["flip", "truncate"]),
    st.integers(min_value=0, max_value=10**6),
)
@example("third", 1, 0, False, "flip", 46)  # section offset count 2 -> 0
@example("third", 15, 2, True, "flip", 244)  # embedded a field 4 -> 0
@example("average", 15, 2, True, "flip", 251)  # embedded b field 4 -> 0
@settings(max_examples=400, deadline=None)
def test_corrupted_label_answers_or_raises_value_error(scheme, u, v, first, mode, at):
    labels = fuzz_labels(scheme)
    pair = [labels[u], labels[v]]
    side = 0 if first else 1
    bits = pair[side]
    if mode == "flip":
        pair[side] = flip_bit(bits, at % len(bits))
    else:
        pair[side] = prefix(bits, at % len(bits))
    for decode in (
        lambda a, b: query(parse_label(a), parse_label(b)),
        lambda a, b: query_lazy(a, b)[0],
    ):
        try:
            ans = decode(*pair)
        except ValueError:
            continue
        assert ans in (True, False)


@functools.lru_cache(maxsize=None)
def fuzz_file(scheme: str) -> bytes:
    """The fuzz graph's label file, as written."""
    labels = fuzz_labels(scheme)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "labels.rlbl")
        write_label_file(path, SCHEME_IDS[scheme], len(labels), list(labels))
        with open(path, "rb") as fh:
            return fh.read()


@given(
    st.sampled_from(FUZZ_SCHEMES),
    st.integers(min_value=0, max_value=FUZZ_GRAPH.n - 1),
    st.integers(min_value=0, max_value=FUZZ_GRAPH.n - 1),
    st.sampled_from(["flip", "truncate"]),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=300, deadline=None)
def test_corrupted_label_file_answers_or_raises_value_error(
    tmp_path_factory, scheme, u, v, mode, at
):
    path = tmp_path_factory.getbasetemp() / "fuzz.rlbl"
    data = bytearray(fuzz_file(scheme))
    if mode == "flip":
        at %= 8 * len(data)
        data[at >> 3] ^= 0x80 >> (at & 7)
    else:
        del data[at % len(data):]
    path.write_bytes(bytes(data))

    def whole_file():
        _, n, labels = read_label_file(str(path))
        return n, labels

    def two_records():
        _, n, got = read_labels_at(str(path), [u, v])
        return n, got

    for read in (whole_file, two_records):
        try:
            n, labels = read()
            if max(u, v) < n:
                assert query(parse_label(labels[u]), parse_label(labels[v])) in (True, False)
        except ValueError:
            pass
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["query", str(path), str(u), str(v)])
    assert code in (0, 2)
    assert (code == 0) == (out.getvalue() in ("true\n", "false\n"))
