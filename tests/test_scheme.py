"""End-to-end labels: container layout, eager and lazy query surfaces."""

from __future__ import annotations

import functools
import gc
import hashlib
import io
import os
import sys
import tempfile
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from helpers import DECODER_CACHES, blob_fields, cold_caches, mixed_corpus
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachlabel.biclique import PROFILES
from reachlabel.bitio import (
    BitString,
    BitWriter,
    LabelHeader,
    Widths,
    count_width,
    index_width,
    read_fixed,
    read_label_file,
    read_labels_at,
    write_label_file,
)
from reachlabel.cli import main
from reachlabel import crosslabel, graph
from reachlabel.crosslabel import (
    CLS_FRONT_MATCH,
    CLS_FRONT_REST,
    CLS_SECOND_REST,
    CLS_UPPER,
    MATCHED,
    assemble_cross,
    blob_plan,
    iteration_shape,
    node_class,
    schedule_layout,
    section_layout,
)
from reachlabel.flatten import write_inner
from reachlabel.graph import Digraph, reach_rows
from reachlabel.oracle import GenSpec, flip_bit, generate, probeable_table_bits
from reachlabel.scheme import (
    LabelView,
    Pipeline,
    SCHEME_IDS,
    encode,
    ledger,
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
            assert len(b) == LabelHeader.HEADER_FIXED_BITS + 2 * index_width(n) + n // 2


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
            assert set(total) == {"header", "intra", "cross"}
        assert sum(sec["max"] for sec in total.values()) >= rep["max_bits"]
        assert rep["max_bits"] >= rep["mean_bits"] > 0


def test_ledger_fields_sum_to_each_label():
    """Every label of the corpus under every scheme and profile: the
    ledger's fields, in label order, sum to the label's length; the header
    and placement are fixed per n; and ``stats`` aggregates the ledger over
    the nodes and derives its sections from it."""
    warm = ["header", "scc", "index", "window"]
    composite = ["header", "intra_placement", "intra_table", "k_removed_iter", "schedule",
                 "biclique_counts", "near_sections", "far_sections"]
    checked = 0
    for g in mixed_corpus():
        pl = Pipeline(g)
        for scheme, profile in COMBOS:
            ls = encode(g, scheme, profile, pipeline=pl)
            rows = [ledger(parse_label(bits)) for bits in ls.labels]
            for bits, row in zip(ls.labels, rows):
                assert list(row) == (warm if scheme == "warmup" else composite)
                assert sum(row.values()) == len(bits)
                assert row["header"] == 40
                checked += 1
            rep = stats(ls)
            for name, agg in rep["ledger"].items():
                vals = [r[name] for r in rows]
                assert agg == {"max": max(vals), "mean": sum(vals) / len(vals)}
            if scheme != "warmup":
                intra = [r["intra_placement"] + r["intra_table"] for r in rows]
                assert rep["sections"]["intra"]["max"] == max(intra)
    assert checked > 0


def test_header_is_scheme_id_and_n_and_offsets_are_derived():
    """Every composite label of the corpus starts with its 40-bit header,
    scheme[8] n[32], and then holds its intra section and its blob and
    nothing else: no component id, since the intra section's topological
    index names the component. ``LabelHeader.read`` derives the offsets:
    the intra section starts right after the header, and the blob where
    the check walk's intra section ends."""
    checked = 0
    for g in mixed_corpus():
        pl = Pipeline(g)
        lead = pl.scc.leaders
        n = len(lead)  # the component count
        for profile in PROFILES:
            for scheme in ("third", "average"):
                ls = encode(g, scheme, profile, pipeline=pl)
                cl = pl.cross_labeling(profile, scheme)
                for bits in dict.fromkeys(ls.labels):
                    view = parse_label(bits)
                    assert view.scc == view.topo and view.inner is view and view.warm is None
                    assert LabelHeader.read(bits).offsets == (40, view.end_offset)
                    c = pl.layered.inv_topo[view.scc]  # the component at that position
                    w = BitWriter()
                    LabelHeader(ls.scheme_id, n).write(w)
                    write_inner(w, pl.inner_labels[lead[c]], n)
                    w.append(assemble_cross(cl, c))
                    assert w.finish() == bits
                    checked += 1
    assert checked > 0


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
    # both variants built on one Pipeline, in either order, share its peel
    # and give the labels that fresh Pipelines give
    chain = Digraph(10, [(i, i + 1) for i in range(9)])
    iterations = 0
    for g in [chain] + mixed_corpus():
        for profile in PROFILES:
            fresh = {s: encode(g, s, profile).labels for s in ("third", "average")}
            for order in (("average", "third"), ("third", "average")):
                pl = Pipeline(g)
                for scheme in order:
                    assert encode(g, scheme, profile, pipeline=pl).labels == fresh[scheme]
                third = pl.cross_labeling(profile, "third")
                average = pl.cross_labeling(profile, "average")
                assert third is not average
                assert len(third.records) == len(average.records)
                for rt, ra in zip(third.records, average.records):
                    assert rt.near_inst is ra.near_inst
                    assert rt.pairs == ra.pairs
                iterations += len(third.records)
    assert iterations, "the closures must produce cross iterations"


def test_pipeline_refuses_an_unknown_profile_before_caching():
    pl = Pipeline(Digraph(10, [(i, i + 1) for i in range(9)]))
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown biclique profile"):
            pl.cross_labeling("nope", "third")
    assert not pl._peels and not pl._cross


def test_the_pipeline_holds_one_row_matrix():
    # the intra tables read the closure rows in place: building them keeps
    # no inner or cross copy of the rows beside the closure
    pl = Pipeline(generate(GenSpec("poset", 1000, 0.5, 100)))
    pl.layered, pl.slayer
    rows_bytes = sum(sys.getsizeof(r) for r in pl.closed.rows)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pl.inner_labels
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 * rows_bytes, (held, rows_bytes)


def test_encoding_orders_nothing_itself(monkeypatch):
    """Every stage runs in the order the condensation hands on: encoding
    never computes a topological order of its own."""
    graphs = [generate(GenSpec(kind, 40, 0.1, 7)) for kind in ("dag", "digraph", "poset")]

    def refuse(g):
        raise AssertionError("topological_order called while encoding")

    monkeypatch.setattr(graph, "topological_order", refuse)
    for g in graphs:
        for scheme in SCHEME_IDS:
            for profile in PROFILES:
                assert len(encode(g, scheme, profile).labels) == g.n


# Label file digests of three seeded graphs. The encoder promises identical
# bytes across refactors; a deliberate format change updates these pins.
# Re-pinned at version 4, when blobs dropped the sections after a node
# retires and the flags of rest classes, and tables came to be written as
# their ints (bit i at field position width-1-i), which also reorders the
# warm-up dag's window bits. Re-pinned at version 5, when blobs traded
# section class codes and sub-label headers for a pair schedule, at version
# 6, when they traded the section bounds for biclique counts (both times the
# warm-up dag's labels were unchanged; its file's version byte was not), and
# at version 7, when every header shrank to its scheme id and n: the
# composite labels lost 72 bits and the warm-up labels 8, and the bits after
# the header are unchanged. Re-pinned last at version 8, when the composite
# labels lost their component id and their blob's entry group (the digraph's
# 8 bits a label, the poset's 10); the warm-up dag's labels are unchanged,
# and its file differs only in the version byte. The poset was re-pinned
# once more, still at version 8, when the greedy biclique grower replaced the
# q-subset search; the dag's and digraph's bytes did not change. All three
# were re-pinned at version 9, when each record gained a CRC-32 and each
# thin group's intra table became a (end-beg)//2-bit half-window: the
# composite labels shrank (digraph max / mean 240 / 214.1 -> 239 / 213.1,
# poset 231 / 172.8 -> 225 / 166.8); the warm-up dag's labels are unchanged,
# and its file differs in the version byte and the CRCs.
PINNED_DIGESTS = [
    (
        GenSpec("dag", 60, 0.1, 3),
        "warmup",
        "paper",
        "7b2538dfc111204209b4cdbfb6f88defaadc53b83519e0fa7e5252b51d644e09",
    ),
    (
        GenSpec("digraph", 80, 0.03, 5),  # 31 components, the largest of 50
        "third",
        "paper",
        "a003d7c65bef1d26813933e11c7950b04b2a88312e90e6eabbbec6c7823e3f9d",
    ),
    (
        GenSpec("poset", 70, 0.5, 7),
        "average",
        "force",
        "519d217a6e276535ff174620d7fa5c95f82b7bb26b0567b41c3efe996211a24e",
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
    45 keys, so a probe may take six binary-search steps. The digest pins
    every key (re-pinned at version 7, when the header lost its offsets,
    at version 8, when the labels lost their component id and entry, and
    when the greedy biclique grower replaced the q-subset search: the
    largest set fell from 83 keys to 45; and at version 9, when records
    gained a CRC-32 and intra tables became half-windows)."""
    real = crosslabel.build_set
    built = []

    def recording(*args):
        out = real(*args)
        if out.size:
            built.append(out)
        return out

    monkeypatch.setattr(crosslabel, "build_set", recording)
    ls = encode(generate(GenSpec("dag", 500, 0.04, 5)), "third", "paper")
    assert max(s.size for s in built) == 45
    path = tmp_path / "pinned.rlbl"
    write_label_file(str(path), ls.scheme_id, ls.n, ls.labels)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "922b9976720c44fc82f9934002c32f03d2cb15cf116cdb3eef3f0fdf552e6ec9"
    )


# Words read by query_lazy, summed over all ordered node pairs of each pinned
# graph, as counted by the decoder before its eager and lazy halves merged.
# Criterion 9 bounds only the largest count; these totals catch any drift in
# what a query reads or in how the reads are counted. The digraph and poset
# totals were re-pinned when rest sets became sorted key arrays, probed by
# binary search at one word per step, and again at version 5, when a query
# came to read an iteration's three bounds and its schedule entries, not two
# bounds and a class per section, and a sub-label's index, not its header
# (digraph 75857 -> 74549, poset 81028 -> 73956). Re-pinned at version 6,
# when a query came to read the schedule up to its iteration, two biclique
# counts and the size of each earlier rest set, not three bounds (digraph
# 74549 -> 76539, poset 73956 -> 73260), and again at version 7, when a
# composite label lost the offset read after its header, one read per label
# and two per pair (digraph 76539 -> 63739, poset 73260 -> 63460). Re-pinned
# at version 8, when a composite label's view came to read its intra
# placement fields with its header and to take its component id from them:
# a pair of two components reads two words fewer (digraph 63739 -> 55999,
# poset 63460 -> 53800). Re-pinned when ``query`` came to route a pair by
# group order before viewing any blob: a pair whose u group is not below v's
# no longer reads k and ``removed_iter`` from either label (digraph
# 55999 -> 47703, poset 53800 -> 43740; the warm-up dag is unchanged).
# Re-pinned at version 9, when intra tables became half-windows: a pair in
# one thin group with u after v answers unread, without its table probe
# (digraph 47703 -> 47682, poset 43740 -> 43366).
PINNED_WORDS = [16170, 47682, 43366]


@pytest.mark.parametrize(
    "spec,scheme,profile,words",
    [(spec, scheme, profile, w) for (spec, scheme, profile, _), w in zip(PINNED_DIGESTS, PINNED_WORDS)],
    ids=["dag", "digraph", "poset"],
)
def test_lazy_word_totals_are_pinned(spec, scheme, profile, words):
    labels = encode(generate(spec), scheme, profile).labels
    assert sum(query_lazy(a, b)[1] for a in labels for b in labels) == words


@pytest.mark.parametrize(
    "spec,scheme,profile", [pin[:3] for pin in PINNED_DIGESTS], ids=["dag", "digraph", "poset"]
)
def test_order_settled_pairs_view_no_blob(spec, scheme, profile):
    """A pair of two components whose u group is not below v's is answered
    from the intra fields: the query builds no blob view or other object,
    and each label view counts only its header and placement words, plus
    the one window probe of a shared thin group with u before v. The
    warm-up pin's graph is encoded under ``third``, as a warm-up label has
    no group."""
    g = generate(spec)
    ls = encode(g, "third" if scheme == "warmup" else scheme, profile)
    reach = reach_rows(g)
    lead = ls.pipeline.scc.leaders
    per_label = 1 + words_of(Widths(len(lead)).placement)
    settled = probed = 0
    for u in lead:
        for v in lead:
            lu, lv = LabelView(ls.labels[u]), LabelView(ls.labels[v])
            if u == v or lu.grp < lv.grp:
                continue
            probe = lu.grp == lv.grp and not lu.thick and lu.topo < lv.topo
            got = []
            assert inits(lambda: got.append(query(lu, lv))) == Counter()
            assert got == [bool(reach[u] >> v & 1)]
            assert lu.words + lv.words == 2 * per_label + probe
            settled += 1
            probed += probe
    assert settled > probed > 0


def test_blobs_disagreeing_on_the_group_count_are_refused():
    """Labels of two encodings with one component count but different group
    counts k cannot be decoded together: a cross pair of them raises
    ValueError, eagerly and lazily."""
    a = encode(generate(GenSpec("dag", 12, 0.1, 1)), "third", "paper").labels
    b = encode(generate(GenSpec("dag", 12, 0.3, 3)), "third", "paper").labels
    pa, pb = parse_label(a[0]), parse_label(b[0])
    assert pa.n == pb.n and pa.cross.k != pb.cross.k
    pairs = [(x, y) for x in a for y in b
             for ix, iy in [(LabelView(x), LabelView(y))]
             if ix.grp < iy.grp and ix.topo != iy.topo]
    assert pairs
    for x, y in pairs:
        with pytest.raises(ValueError, match="blobs disagree on the group count"):
            query(parse_label(x), parse_label(y))
        with pytest.raises(ValueError, match="blobs disagree on the group count"):
            query_lazy(x, y)


def test_order_settled_pairs_of_two_encodings_are_checked_on_their_groups():
    """A pair of labels from two encodings that the intra fields settle
    (u's group not below v's) is checked on fields already read: in one
    group both must give it the same interval and thickness, and a later u
    group must begin where v's ends or after it. Between the two dags of
    the test above, that refuses 156 of the 174 order-settled ordered pairs
    of distinct labels in two components, eagerly and lazily; telling the
    others apart needs an encoding identity."""
    a = list(dict.fromkeys(encode(generate(GenSpec("dag", 12, 0.1, 1)), "third", "paper").labels))
    b = list(dict.fromkeys(encode(generate(GenSpec("dag", 12, 0.3, 3)), "third", "paper").labels))
    settled = refused = 0
    for x, y in [(x, y) for x in a for y in b] + [(y, x) for x in a for y in b]:
        lx, ly = LabelView(x), LabelView(y)
        if x == y or lx.scc == ly.scc or lx.grp < ly.grp:
            continue
        settled += 1
        try:
            query_lazy(x, y)
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match="labels disagree on their groups"):
                query(parse_label(x), parse_label(y))
        else:
            query(parse_label(x), parse_label(y))
    assert (refused, settled) == (156, 174)


def inits(ask) -> Counter:
    """The classes whose ``__init__`` runs during ``ask()``, each with the
    number of times it ran."""
    built = Counter()

    def constructors(frame, event, _arg):
        if event == "call" and frame.f_code.co_name == "__init__" and "self" in frame.f_locals:
            built[type(frame.f_locals["self"]).__name__] += 1

    sys.setprofile(constructors)
    try:
        ask()
    finally:
        sys.setprofile(None)
    return built


@pytest.mark.parametrize(
    "spec,scheme,profile", [pin[:3] for pin in PINNED_DIGESTS], ids=["dag", "digraph", "poset"]
)
def test_a_lazy_query_builds_one_view_per_label(spec, scheme, profile):
    """The label view is its own reader: a lazy query that reads no blob
    builds the two label views and nothing else, and one that decodes
    across builds at most a blob view and one iteration record per label
    besides (the layout caches warmed by a first pass)."""
    labels = list(dict.fromkeys(encode(generate(spec), scheme, profile).labels))
    views = [LabelView(x) for x in labels]
    for x in labels:
        for y in labels:
            query_lazy(x, y)
    blob_free = across = 0
    for x, lu in zip(labels, views):
        for y, lv in zip(labels, views):
            built = inits(lambda: query_lazy(x, y))
            if lu.warm is not None or lu.scc == lv.scc or lu.grp >= lv.grp:
                assert built == Counter(LabelView=2), (built, x, y)
                blob_free += 1
            else:
                assert set(built) <= {"LabelView", "CrossView", "IterationView"}, built
                assert built["LabelView"] == 2 and max(built.values()) <= 2, built
                across += 1
    assert blob_free > 0 and (across > 0) == (scheme != "warmup")


@pytest.mark.parametrize(
    "spec,scheme,profile", [pin[:3] for pin in PINNED_DIGESTS], ids=["dag", "digraph", "poset"]
)
def test_queries_leave_no_cyclic_garbage(spec, scheme, profile):
    """No view refers back to itself, through a blob view or otherwise: a
    lazy query on every ordered pair, and an eager one on every pair of
    checked views, leave nothing for the cycle collector once dropped."""
    labels = list(dict.fromkeys(encode(generate(spec), scheme, profile).labels))
    gc.collect()
    gc.disable()
    try:
        for x in labels:
            for y in labels:
                query_lazy(x, y)
        views = [parse_label(x) for x in labels]
        for lu in views:
            for lv in views:
                query(lu, lv)
        del views
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0


# The bits that the corruption drills flip (``probeable_table_bits``), as
# their count and the sha256 of their "node offset value" lines in (node,
# offset) order. An independent copy of the decoder's dispatch (window
# bases, class pairs, flag routing, the half-window wrap) gave these same
# lists, so a drift here is a change in which bits queries read. The
# digraph and poset were re-pinned at version 9, when intra tables became
# half-windows, each pair of a thin group probing one bit of one window
# (digraph 42 -> 21 bits, poset 2108 -> 1734); the dag is unchanged.
PINNED_INVENTORIES = [
    (1770, "80d8772d48b2bed095692e0c891e2e340fbb85447cf99c299dc7c7fe256834a8"),
    (21, "919f68beecba5bc8beb2cb3037303cde415bb26cc6fa2c67721095d336623333"),
    (1734, "9fa4f32df966c5dcc6d2aaecd581d993ce2fa2cdcb9a6e0cc35e33107a2bccb9"),
]


@pytest.mark.parametrize(
    "spec,scheme,profile,count,digest",
    [(spec, scheme, profile, *pin)
     for (spec, scheme, profile, _), pin in zip(PINNED_DIGESTS, PINNED_INVENTORIES)],
    ids=["dag", "digraph", "poset"],
)
def test_probe_inventories_are_pinned(spec, scheme, profile, count, digest):
    inv = probeable_table_bits(encode(generate(spec), scheme, profile))
    text = "\n".join(f"{u} {off} {val}" for u, off, val in inv)
    assert (len(inv), hashlib.sha256(text.encode()).hexdigest()) == (count, digest)


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


def walked(bits: BitString, s: int):
    """Iteration s's record in the checked view of ``bits``."""
    return parse_label(bits).cross.iteration(s)


@functools.lru_cache(maxsize=None)
def poset_labels():
    """The pinned poset (acyclic, so component ids are node ids)."""
    spec, scheme, profile, _ = PINNED_DIGESTS[2]
    return encode(generate(spec), scheme, profile)


def intra_table_overlong() -> BitString:
    # node 0's thin group read one position wider (its end field raised by
    # one): the table takes a bit more and the blob is read a bit late
    bits = poset_labels().labels[0]
    hdr = LabelHeader.read(bits)
    view = parse_label(bits)
    assert not view.thick
    at = hdr.offsets[0] + 3 * index_width(hdr.n)  # after topo, grp and beg
    return with_field(bits, at, count_width(hdr.n), view.end + 1)


def blob_overruns() -> BitString:
    bits = poset_labels().labels[0]
    return prefix(bits, LabelHeader.read(bits).offsets[1] + 4)


def poset_class(u: int, s: int) -> int:
    """Node u's class at iteration s in the pinned poset."""
    cl = poset_labels().cross
    return node_class(s, cl.entry[u], cl.removed_iter[u])


def poset_node(cls: int, *, bicliques=False) -> tuple[int, int]:
    """(node, iteration) of the first poset node of class ``cls`` (in an
    iteration with bicliques, if asked) whose label is no longer than
    node 0's."""
    ls = poset_labels()
    return next((u, rec.s) for rec in ls.cross.records if rec.bicliques or not bicliques
                for u in rec.live
                if poset_class(u, rec.s) == cls and len(ls.labels[u]) <= len(ls.labels[0]))


def short_poset_node(keep) -> int:
    """The first poset node whose label is no longer than node 0's and for
    which ``keep(removed_iter, m)`` holds, m its count of iterations."""
    ls = poset_labels()
    cl = ls.cross
    return next(u for u in range(ls.n) if len(ls.labels[u]) <= len(ls.labels[0])
                and keep(cl.removed_iter[u], min(cl.removed_iter[u], cl.k - 1)))


def short_poset_m(u: int) -> int:
    """Node u's count of iterations, min(removed_iter, k-1)."""
    cl = poset_labels().cross
    return min(cl.removed_iter[u], cl.k - 1)


def upper_poset_node(ups: int) -> int:
    """The first poset node whose label is no longer than node 0's and that
    is upper in at least ``ups`` iterations, so its blob holds that many
    biclique counts."""
    ls = poset_labels()
    return next(u for u in range(ls.n) if len(ls.labels[u]) <= len(ls.labels[0])
                and blob_fields(ls.labels[u])[3] >= ups)


def with_entries(u: int, entries: dict[int, int], *, counts=False) -> BitString:
    """Node u's poset label with schedule entry P_s, or with biclique count
    B_s if ``counts``, set to ``entries[s]``."""
    bits = poset_labels().labels[u]
    at, width, m, _ = blob_fields(bits)
    if counts:
        at += m * width
    for s, value in entries.items():
        bits = with_field(bits, at + (s - 1) * width, width, value)
    return bits


def pairs_upto(s: int) -> int:
    """P_s of the pinned poset: the pairs matched in iterations 1..s."""
    return sum(rec.n_pairs for rec in poset_labels().cross.records[:s])


def bicliques_upto(s: int) -> int:
    """B_s of the pinned poset: the bicliques found in iterations 1..s."""
    return sum(len(rec.bicliques) for rec in poset_labels().cross.records[:s])


def near_one_key_short() -> BitString:
    # a rest node's set size one below its key count: the near section ends
    # a key early, and every later section is read a key's width too soon
    ls = poset_labels()
    u, s = poset_node(CLS_FRONT_REST)
    rec = walked(ls.labels[u], s)
    assert rec.near[0] > 0
    return with_field(ls.labels[u], rec.start, count_width(ls.cross.n), rec.near[0] - 1)


def matched_far_cut_short() -> BitString:
    # a matched node's label one bit short: its last section, the far one
    # of the iteration that matched it, overruns the label
    ls = poset_labels()
    rec = next(r for r in ls.cross.records if r.front_match)
    bits = ls.labels[rec.front_match[0]]
    return prefix(bits, len(bits) - 1)


def counts_decrease() -> BitString:
    # B_2 one below B_1, so iteration 2 would have found -1 bicliques
    return with_entries(upper_poset_node(2), {2: bicliques_upto(1) - 1}, counts=True)


def count_step_zero() -> BitString:
    # B_2 = B_1 though iteration 2 matched pairs, each in some biclique
    assert pairs_upto(2) > pairs_upto(1)
    return with_entries(upper_poset_node(2), {2: bicliques_upto(1)}, counts=True)


def count_over_pairs() -> BitString:
    # B_1 = P_1 + 1: more bicliques than pairs in iteration 1
    return with_entries(upper_poset_node(1), {1: pairs_upto(1) + 1}, counts=True)


def far_flags_overrun() -> BitString:
    # B_u one lower at a node's last upper iteration u, which found several
    # bicliques: the flags written there run a bit past the count read, so
    # the next section, the near sub-label of the iteration that matches
    # the node, is read a bit too soon
    u = upper_poset_node(1)
    ups = blob_fields(poset_labels().labels[u])[3]
    assert len(poset_labels().cross.records[ups - 1].bicliques) > 1
    return with_entries(u, {ups: bicliques_upto(ups) - 1}, counts=True)


def schedule_decreases() -> BitString:
    # P_2 one below P_1, so iteration 2 would have matched -1 pairs
    u = short_poset_node(lambda r, m: m >= 2)
    assert pairs_upto(1) > 0
    return with_entries(u, {2: pairs_upto(1) - 1})


def schedule_over_half() -> BitString:
    # P_m = n/2 + 1: more nodes paired than there are
    n = poset_labels().cross.n
    u = short_poset_node(lambda r, m: m >= 1)
    return with_entries(u, {short_poset_m(u): n // 2 + 1})


def far_b_negative() -> BitString:
    # every entry from P_1 on raised to n/2 + 1 on a node live past
    # iteration 1: the far instance of iteration 1 gets a right side of -2
    n = poset_labels().cross.n
    u = short_poset_node(lambda r, m: r > 1 and m >= 2)
    return with_entries(u, dict.fromkeys(range(1, short_poset_m(u) + 1), n // 2 + 1))


def no_pairs_at_retirement() -> BitString:
    # P_r = P_{r-1} for a node matched at iteration r >= 2: its near
    # sub-label then has no side its index could lie on
    u = short_poset_node(lambda r, m: r == m >= 2)
    r = short_poset_m(u)
    return with_entries(u, {r: pairs_upto(r - 1)})


def index_outside_side() -> BitString:
    # a matched front node's near sub-label index set to a, the first index
    # of the B side
    ls = poset_labels()
    u, s = poset_node(CLS_FRONT_MATCH)
    p = ls.cross.records[s - 1].n_pairs
    return with_field(ls.labels[u], walked(ls.labels[u], s).start, index_width(2 * p), p)


def retired_before_entry() -> BitString:
    # a node that enters at group 3 or later but claims to retire at
    # iteration 1
    ls = poset_labels()
    u = next(u for u in range(ls.n)
             if ls.cross.entry[u] >= 3 and len(ls.labels[u]) <= len(ls.labels[0]))
    bits = ls.labels[u]
    cwk = count_width(ls.cross.k)
    return with_field(bits, blob_fields(bits)[0] - cwk, cwk, 1)


def retirement_past_groups_cut_at_head() -> BitString:
    # node 1 of a small poset (k = 5, removed_iter 4 in a 3-bit field)
    # claiming to retire at iteration 7, cut right after its blob head: the
    # retirement is checked before the schedule is read, so the check, not
    # the overrun of that read, refuses the label
    ls = encode(generate(GenSpec("poset", 60, 0.5, 1)), "third", "force")
    bits = ls.labels[1]
    sched = blob_fields(bits)[0]
    cwk = count_width(ls.cross.k)
    assert (ls.cross.k, ls.cross.removed_iter[1], cwk) == (5, 4, 3)
    return prefix(with_field(bits, sched - cwk, cwk, 7), sched)


def rest_far_overlong() -> BitString:
    # P_s one higher at a node's second-rest iteration s: its far right
    # label is read with a table sized for one more pair, a bit longer than
    # written, and the next iteration's instances change with it
    u, s = poset_node(CLS_SECOND_REST, bicliques=True)
    assert s < short_poset_m(u)
    return with_entries(u, {s: pairs_upto(s) + 1})


def set_key_outside() -> BitString:
    # a rest node's one-key set holding a key past the node count
    ls = poset_labels()
    u, s = poset_node(CLS_FRONT_REST)
    n = ls.cross.n
    at = walked(ls.labels[u], s).start + count_width(n)
    return with_field(ls.labels[u], at, index_width(n), (1 << index_width(n)) - 1)


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
        (near_one_key_short, r"sub-label index \d+ outside side B"),
        (matched_far_cut_short, "overruns"),
        (intra_table_overlong, "entry or retirement outside the blob's groups"),
        (blob_overruns, "overruns"),
        (counts_decrease, "-1 bicliques for 2 pairs at iteration 2"),
        (count_step_zero, "0 bicliques for 2 pairs at iteration 2"),
        (count_over_pairs, "12 bicliques for 11 pairs at iteration 1"),
        (far_flags_overrun, r"sub-label index \d+ outside side B"),
        (warm_index, "warm-up index"),
        (schedule_decreases, "pair schedule decreases or pairs more than n nodes"),
        (schedule_over_half, "pair schedule decreases or pairs more than n nodes"),
        (far_b_negative, "pair schedule decreases or pairs more than n nodes"),
        (no_pairs_at_retirement, r"sub-label index \d+ outside side [AB] \(a=0, b=0\)"),
        (index_outside_side, r"sub-label index \d+ outside side A"),
        (retired_before_entry, "entry or retirement outside"),
        (retirement_past_groups_cut_at_head, r"^entry or retirement outside the blob's groups$"),
        (rest_far_overlong, r"sub-label index \d+ outside side A"),
        (set_key_outside, "set keys do not ascend below 70"),
    ],
    ids=["near-short", "matched-far-length", "intra-table-overlong", "blob-overrun",
         "counts-decrease", "count-step-zero", "count-over-pairs", "far-flags-overrun",
         "warm-index", "schedule-decreases", "schedule-over-half", "far-b-negative",
         "no-pairs-at-retirement", "index-outside-side", "retired-before-entry",
         "retirement-past-groups-cut-at-head", "rest-far-overlong", "set-key-outside"],
)
def test_parse_rejects_corrupt_layout(corrupt, message):
    bits = corrupt()
    # no copy is longer than node 0's label
    assert len(bits) <= len(poset_labels().labels[0])
    with pytest.raises(ValueError, match=message):
        parse_label(bits)


@pytest.mark.parametrize(
    "corrupt",
    [schedule_decreases, schedule_over_half, far_b_negative, no_pairs_at_retirement,
     index_outside_side],
    ids=["schedule-decreases", "schedule-over-half", "far-b-negative",
         "no-pairs-at-retirement", "index-outside-side"],
)
def test_lazy_queries_refuse_hostile_schedules(corrupt):
    """A lazy query reads only the fields it asks for, so it meets a hostile
    schedule or index only at the iteration it asks about. There it raises
    ValueError, never ZeroDivisionError or IndexError, and some query of
    the corrupt label against the others does ask."""
    bad = corrupt()
    refused = 0
    for other in dict.fromkeys(poset_labels().labels):
        for pair in ((bad, other), (other, bad)):
            try:
                assert query_lazy(*pair)[0] in (True, False)
            except ValueError:
                refused += 1
    assert refused > 0


def test_descending_set_keys_are_rejected():
    """Node 51 of this sparse DAG keeps 24 rest neighbors at iteration 4 and
    stays live until iteration 6; its first two keys are 0 and 6. Flipping
    the first key's top bit (0 -> 128) leaves keys that do not ascend, and
    the binary search then misses 6, a key whose bits were not touched; the
    check walk refuses the label."""
    ls = encode(generate(GenSpec("dag", 200, 0.04, 5)), "third", "paper")
    assert ls.cross.removed_iter[51] > 4 and ls.n == 200  # acyclic: node ids are component ids
    bits = ls.labels[51]
    at = walked(bits, 4).start + count_width(200)  # near^4's first key
    assert read_fixed(bits, at - count_width(200), count_width(200)) == 24
    assert read_fixed(bits, at, 16) == 0 << 8 | 6
    bad = flip_bit(bits, at)
    assert LabelView(bits).view_cross().iteration(4).contains(6)
    assert not LabelView(bad).view_cross().iteration(4).contains(6)
    with pytest.raises(ValueError, match="set keys do not ascend below 200"):
        parse_label(bad)


def biclique_number_copies(low, high) -> list[tuple[BitString, int]]:
    """Copies of the pinned poset's matched labels whose far biclique number
    at the iteration s that matches the node is set to each value from
    ``low(bicliques, p)`` up to ``high(bicliques, p)`` that its field holds,
    each with the count of nodes that are upper at s."""
    ls = poset_labels()
    copies = []
    for rec in ls.cross.records:
        uppers = sum(poset_class(v, rec.s) == CLS_UPPER for v in rec.live)
        for u in rec.front_match + rec.second_match:
            bits = ls.labels[u]
            it = walked(bits, rec.s)
            assert it.bic < len(rec.bicliques)  # the walk kept the number
            top = min(high(len(rec.bicliques), rec.n_pairs), 1 << it.shape.bw)
            copies += [(with_field(bits, it.mid, it.shape.bw, value), uppers)
                       for value in range(low(len(rec.bicliques), rec.n_pairs), top)]
    return copies


def test_biclique_number_of_p_or_more_is_refused():
    """A matched node's far biclique number names one of its iteration's
    bicliques, of which there are at most p; the walk refuses p or more."""
    copies = biclique_number_copies(lambda bics, p: p, lambda bics, p: 1 << 32)
    assert copies
    for bits, _ in copies:
        with pytest.raises(ValueError, match=r"biclique number \d+ of \d+ pairs"):
            parse_label(bits)


def test_biclique_number_past_the_count_fails_at_query_time():
    """A number from the iteration's biclique count to p - 1 parses: the
    matched node's blob holds no count for the iteration that matches it.
    A query that probes an upper node's flags with it raises ValueError,
    eager or lazy, and no query raises anything else; where no node is
    upper at that iteration, no query reads the number."""
    copies = biclique_number_copies(lambda bics, p: bics, lambda bics, p: p)
    assert copies
    others = list(dict.fromkeys(poset_labels().labels))
    parsed = [parse_label(bits) for bits in others]
    assert {uppers > 0 for _, uppers in copies} == {True, False}
    for bits, uppers in copies:
        view = parse_label(bits)
        refused = 0
        for other, other_view in zip(others, parsed):
            for eager, lazy in (((view, other_view), (bits, other)),
                                ((other_view, view), (other, bits))):
                for ask in (lambda: query(*eager), lambda: query_lazy(*lazy)):
                    try:
                        ask()
                    except ValueError:
                        refused += 1
        assert (refused > 0) == (uppers > 0)


def test_identity_fields_the_decoder_derives():
    """The facts that let a composite label drop its component id and its
    blob's entry: over the corpus, two labels' ``scc`` (their topological
    index) are equal iff their nodes share a component, and every node's
    intra group plus one is its blob's entry and the encoder's."""
    checked = 0
    for g in mixed_corpus():
        pl = Pipeline(g)
        comp = pl.scc.scc_id
        for profile in PROFILES:
            for scheme in ("third", "average"):
                ls = encode(g, scheme, profile, pipeline=pl)
                views = {bits: parse_label(bits) for bits in dict.fromkeys(ls.labels)}
                pairs = {(views[bits].scc, comp[u]) for u, bits in enumerate(ls.labels)}
                assert len(pairs) == len({c for _, c in pairs}) == len({t for t, _ in pairs})
                for u, bits in enumerate(ls.labels):
                    view = views[bits]
                    assert view.grp + 1 == view.cross.entry == ls.cross.entry[u]
                    checked += 1
    assert checked > 0


def test_prefixes_cutting_the_intra_section_raise_value_error():
    """Every prefix of a composite label that ends before its blob (inside
    the header, the placement fields or the intra table), and every prefix
    of a warm-up label that ends before its window's end, is refused with
    ValueError by ``LabelView`` and by a lazy query on either side."""
    checked = 0
    for spec, scheme, profile, _ in PINNED_DIGESTS:
        labels = list(dict.fromkeys(encode(generate(spec), scheme, profile).labels))
        other = labels[0]
        for bits in labels:
            offsets = LabelHeader.read(bits).offsets
            for t in range(offsets[1] if offsets else len(bits)):
                cut = prefix(bits, t)
                for ask in (lambda: LabelView(cut), lambda: query_lazy(cut, other),
                            lambda: query_lazy(other, cut)):
                    with pytest.raises(ValueError):
                        ask()
                checked += 1
    assert checked > 0


# parse_label's verdict on every single-bit flip and every truncation of each
# distinct label of the pinned graphs: the number of rejected copies and a
# sha256 of the verdicts ("1" rejected, "0" accepted; per label its flips, bit
# 0 first, then its truncations, length 0 first). Computed with the check
# walk that read each section's bounds on its own; a faster walk must reject
# exactly the same copies. The dag pin then rose from 8220 to 8236 when the
# check began to reject warm-up indices of n or more, adding 16 flipped
# copies and keeping every copy rejected before. The digraph and poset pins
# were re-pinned when rest sets became sorted key arrays: their labels lost
# the sets' mode bits, seeds and occupancy bits. They were re-pinned again
# at version 4: the poset's labels lost sections and flags, and the walk
# began to reject undefined or mismatched classes, retirement before entry,
# rest far sections longer than their sub-label and set keys that do not
# ascend below the bound (digraph: 3332 of 20044 copies accepted before,
# 1257 after; poset: 14984 of 66656 before, 13645 of 60404 after). Both were
# re-pinned at version 5: the labels lost their class codes and sub-label
# headers, and the walk derives classes and instance sizes instead of
# checking stored ones, refusing negative sizes and sub-label indices off
# their side (digraph: 1179 of 19652 copies accepted; poset: 6139 of 42398).
# Both were re-pinned at version 6: the labels lost their bounds tables, and
# the walk chains the sections and checks biclique counts instead of bounds
# (digraph: 1192 of 15700 copies accepted; poset: 5980 of 36808). All three
# were re-pinned at version 7: every label lost its offset count (the
# composite ones also their two 32-bit offsets), whose flips and truncations
# were all rejected, and every other copy keeps its verdict. So the counts
# accepted stay (dag 2564, digraph 1192, poset 5980) and their share rises
# (dag 2564 of 9840 copies, digraph 1192 of 11236, poset 5980 of 26728).
# The digraph and poset were re-pinned at version 8: the labels lost their
# component id, whose flips were all accepted, and their blob's entry, now
# the intra group plus one, so a flip of that group moves the blob's layout;
# and the walk began to refuse a matched node's biclique number of p or more
# (30 of the poset's copies, none of the digraph's). Accepted: digraph 917 of
# 10740 copies (8.5%), poset 4972 of 25328 (19.6%); the dag is unchanged.
# The poset was re-pinned when the greedy biclique grower replaced the
# q-subset search: fewer, larger bicliques give it shorter labels. Accepted:
# poset 4454 of 24198 copies (18.4%); the dag and digraph are unchanged.
# The digraph and poset were re-pinned at version 9, when intra tables
# became half-windows and the labels shrank. Accepted: digraph 905 of 10680
# copies (8.5%), poset 4104 of 23358 (17.6%); the dag is unchanged. A label
# file's CRC-32 refuses every one of these flips; ``parse_label`` on an
# in-memory label does not have it.
PINNED_VERDICTS = [
    (7276, "12929f9feb1b35e949045ca3dd4d87910a8b580c7ddd459ae587523a2be1b93f"),
    (9775, "5e1a4b83bf18ca2685afca8134f5e6a9bf86e2bd959ed0e3ab6fa9032f58c1b4"),
    (19254, "04ac06684a0e7a33d00291b108dc2376295e4f840d98b593cba7c07e2aa0a9a5"),
]


@pytest.mark.parametrize(
    "spec,scheme,profile,rejected,digest",
    [(spec, scheme, profile, *pin)
     for (spec, scheme, profile, _), pin in zip(PINNED_DIGESTS, PINNED_VERDICTS)],
    ids=["dag", "digraph", "poset"],
)
def test_corruption_verdicts_are_pinned(spec, scheme, profile, rejected, digest):
    assert corruption_verdicts(spec, scheme, profile, parse_label) == (rejected, digest)


def corruption_verdicts(spec, scheme, profile, parse) -> tuple[int, str]:
    """(copies rejected, sha256 of the verdicts) of ``parse`` over the
    flips and truncations of each distinct label, as ``PINNED_VERDICTS``
    counts them."""
    verdicts = []
    for bits in dict.fromkeys(encode(generate(spec), scheme, profile).labels):
        copies = [flip_bit(bits, i) for i in range(len(bits))]
        copies += [prefix(bits, t) for t in range(len(bits))]
        for copy in copies:
            try:
                parse(copy)
            except ValueError:
                verdicts.append("1")
            else:
                verdicts.append("0")
    text = "".join(verdicts)
    return text.count("1"), hashlib.sha256(text.encode()).hexdigest()


def parse_cold(bits: BitString) -> LabelView:
    """``parse_label`` with the layout caches emptied before and after."""
    with cold_caches():
        return parse_label(bits)


def rejected_cold(bits: BitString) -> bool:
    """Whether ``parse_cold`` refuses ``bits``."""
    try:
        parse_cold(bits)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize(
    "spec,scheme,profile,rejected,digest",
    [(spec, scheme, profile, *pin)
     for (spec, scheme, profile, _), pin in zip(PINNED_DIGESTS, PINNED_VERDICTS)],
    ids=["dag", "digraph", "poset"],
)
def test_corruption_verdicts_do_not_depend_on_the_caches(spec, scheme, profile, rejected, digest):
    """Each copy parsed with every layout cache empty gets the pinned
    verdict: what earlier copies left in a cache neither refuses a label
    nor lets one through."""
    assert corruption_verdicts(spec, scheme, profile, parse_cold) == (rejected, digest)


def test_a_cached_plan_neither_hides_nor_invents_corruption():
    """Every flip and truncation of the pinned poset's labels that
    parse_label rejects, parsed next to its clean label in both orders with
    the caches emptied first: the corrupt copy parsed first does not stop
    the clean label from parsing, and the clean label parsed first does not
    let the corrupt copy through."""
    checked = 0
    for bits in dict.fromkeys(poset_labels().labels):
        copies = [flip_bit(bits, i) for i in range(len(bits))]
        copies += [prefix(bits, t) for t in range(len(bits))]
        for copy in filter(rejected_cold, copies):
            with cold_caches():
                with pytest.raises(ValueError):
                    parse_label(copy)
                parse_label(bits)
            with cold_caches():
                parse_label(bits)
                with pytest.raises(ValueError):
                    parse_label(copy)
            checked += 1
    assert checked == PINNED_VERDICTS[2][0]


@pytest.mark.parametrize(
    "spec,scheme,profile", [pin[:3] for pin in PINNED_DIGESTS], ids=["dag", "digraph", "poset"]
)
def test_one_plan_per_blob_head(spec, scheme, profile):
    """The labels of one encoding share their schedule and biclique counts,
    so parse_label derives one plan per distinct (entry, removed_iter)
    pair, and none for a warm-up label, which has no blob."""
    ls = encode(generate(spec), scheme, profile)
    heads = set(zip(ls.cross.entry, ls.cross.removed_iter)) if ls.cross else set()
    with cold_caches():
        for bits in dict.fromkeys(ls.labels):
            parse_label(bits)
        assert blob_plan.cache_info().misses == len(heads)


def test_cold_caches_finds_the_layout_caches():
    """``cold_caches`` empties every memoized function of crosslabel and
    bitio, found by their ``cache_clear``, among them the four that lay a
    blob out."""
    assert {blob_plan, iteration_shape, schedule_layout, section_layout} <= set(DECODER_CACHES)
    parse_label(poset_labels().labels[0])
    with cold_caches():
        assert all(cache.cache_info().currsize == 0 for cache in DECODER_CACHES)


def words_of(width: int) -> int:
    """The 64-bit words a counted read of ``width`` bits is charged."""
    return (width + 63) >> 6 or 1


def test_the_walk_reads_sections_through_the_shared_readers(monkeypatch):
    """parse_label reads a blob's sections through the readers a lazy
    record uses: ``read_embedded`` once per matched near section and once
    per non-empty far section, ``read_set`` once per rest set. Each of those
    reads is counted, and so is a matched node's biclique number, so a
    walked view's ``words`` is 3 (header, k, retirement) + W(placement) +
    W(m*cw) + W(u*cw) if u, plus one per rest set and non-empty far section
    and two per matched iteration (near sub-label and biclique number); a
    warm-up label's is 2 (header, then component and index)."""
    calls = Counter()

    def counting(name, reader):
        def wrapper(*args):
            calls[name] += 1
            return reader(*args)
        return wrapper

    monkeypatch.setattr(crosslabel, "read_embedded",
                        counting("embedded", crosslabel.read_embedded))
    monkeypatch.setattr(crosslabel, "read_set", counting("set", crosslabel.read_set))
    checked = 0
    for g in mixed_corpus():
        pl = Pipeline(g)
        wd = Widths(len(pl.scc.leaders))
        for profile in PROFILES:
            for scheme in ("third", "average"):
                ls = encode(g, scheme, profile, pipeline=pl)
                cl = pl.cross_labeling(profile, scheme)
                for c, u in enumerate(pl.scc.leaders):
                    m = min(cl.removed_iter[c], cl.k - 1)
                    ups = max(0, min(cl.entry[c] - 2, m))
                    classes = [node_class(s, cl.entry[c], cl.removed_iter[c])
                               for s in range(1, m + 1)]
                    matched = sum(cls in MATCHED for cls in classes)
                    sets = sum(cls in (CLS_FRONT_REST, CLS_SECOND_REST) for cls in classes)
                    far = sum(rec.n_pairs > 0 for rec in cl.records[:m])
                    calls.clear()
                    view = parse_label(ls.labels[u])
                    assert calls == Counter(embedded=matched + far, set=sets)
                    head = words_of(m * wd.cw) + (words_of(ups * wd.cw) if ups else 0)
                    assert view.words == (3 + words_of(wd.placement) + head
                                          + sets + 2 * matched + far)
                    checked += 1
        for bits in dict.fromkeys(encode(g, "warmup").labels):
            assert parse_label(bits).words == 2
    assert checked > 0


# Every class whose constructor parse_label may run. A blob's sections are
# checked by arithmetic on one record per iteration, so no view of a
# sub-label, a neighbor set or a flag table is built.
PARSE_BUILDS = {"LabelView", "LabelReader", "CrossView", "IterationView", "Widths"}


def test_parse_builds_one_record_per_iteration_and_no_section_views():
    built = Counter()
    iterations = 0
    for g in mixed_corpus():
        pl = Pipeline(g)
        for profile in PROFILES:
            for scheme in ("third", "average"):
                for bits in dict.fromkeys(encode(g, scheme, profile, pipeline=pl).labels):
                    views = []
                    built += inits(lambda: views.append(parse_label(bits)))
                    iterations += views[0].cross.m
    assert iterations > 0
    assert set(built) <= PARSE_BUILDS, set(built) - PARSE_BUILDS
    assert built["IterationView"] <= iterations


def test_lazy_offsets_match_the_walked_ones():
    """A record built for one query finds its sections by summing the
    lengths of the iterations before it: each earlier rest set's size, each
    earlier upper iteration's flags (from the biclique counts) and the
    derived sub-label widths. It must place every iteration where the check
    walk, which chains all the sections, does, and once its fields are
    read, hold the sub-labels, set, flags and biclique number that the
    walk took by shift and mask."""
    checked = 0
    for g in mixed_corpus():
        pl = Pipeline(g)
        for profile in PROFILES:
            for scheme in ("third", "average"):
                for bits in dict.fromkeys(encode(g, scheme, profile, pipeline=pl).labels):
                    cv = parse_label(bits).cross
                    for s in range(1, cv.m + 1):
                        it = cv.iteration(s)
                        lazy = LabelView(bits).view_cross().iteration(s)
                        assert (lazy.start, lazy.mid, lazy.end) == (it.start, it.mid, it.end)
                        if it.inf in MATCHED:
                            lazy.read_near()
                            if it.shape.p:
                                it.read_bic()
                                lazy.read_bic()
                        if it.shape.p:
                            lazy.read_far()
                        assert (lazy.near, lazy.far, lazy.bic) == (it.near, it.far, it.bic)
                        checked += 1
    assert checked > 0


def test_walked_and_lazily_read_records_agree_on_flipped_labels():
    """Every single-bit flip of a pinned digraph label that parse_label
    accepts, asked against every distinct label of the graph in both
    directions: the fields the check walk stores and the ones a lazy query
    reads on first use give the same answer, or both refuse the pair."""
    spec, scheme, profile, _ = PINNED_DIGESTS[1]
    labels = list(dict.fromkeys(encode(generate(spec), scheme, profile).labels))
    parsed = [parse_label(bits) for bits in labels]

    def answers(eager, lazy):
        try:
            got = query(*eager)
        except ValueError:
            got = ValueError
        try:
            want = query_lazy(*lazy)[0]
        except ValueError:
            want = ValueError
        return got, want

    accepted = asked = 0
    for bits in labels:
        for i in range(len(bits)):
            copy = flip_bit(bits, i)
            try:
                view = parse_label(copy)
            except ValueError:
                continue
            accepted += 1
            for other, other_view in zip(labels, parsed):
                for eager, lazy in (((view, other_view), (copy, other)),
                                    ((other_view, view), (other, copy))):
                    got, want = answers(eager, lazy)
                    assert got == want, f"bit {i} of a {len(bits)}-bit label flipped"
                    asked += 1
    assert accepted > 0 and asked == 2 * accepted * len(labels)


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
@example("third", 1, 0, False, "flip", 7)  # scheme id 2 -> 3, a third label read as average
@example("third", 15, 2, True, "flip", 80)  # schedule entry P_2 9 -> 25, over n/2
@example("average", 15, 2, True, "flip", 81)  # schedule entry P_2 9 -> 1, below P_1
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
