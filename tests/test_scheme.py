"""End-to-end labels: container layout, eager and lazy query surfaces."""

from __future__ import annotations

import functools
import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachlabel.bitio import (
    BitString,
    BitWriter,
    LabelHeader,
    index_width,
    read_label_file,
    write_label_file,
)
from reachlabel.graph import Digraph, reach_rows
from reachlabel.oracle import GenSpec, flip_bit, generate
from reachlabel.scheme import (
    LazyLabel,
    Pipeline,
    SCHEME_IDS,
    encode,
    encode_average,
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


def test_encode_average_is_the_average_scheme():
    g = Digraph(3, [(0, 1), (1, 2)])
    assert encode_average(g).scheme_id == SCHEME_IDS["average"]


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
    clipped = BitString(bits.data, len(bits) - 1)
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
    lab = LazyLabel(ls.labels[2])
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
# Last re-pinned when the label file gained its offset table (version 2) and
# labels moved to the SCC quotient: the component field of an acyclic graph's
# labels now holds the node id, every other label bit of the dag and poset
# entries is unchanged, and the digraph's 31 components are labeled as a
# 31-node DAG.
PINNED_DIGESTS = [
    (
        GenSpec("dag", 60, 0.1, 3),
        "warmup",
        "paper",
        "09b8d7f2c35a33799b83ee1e1c10b704dc9eeb9d356da339aedd8dd12950c88b",
    ),
    (
        GenSpec("digraph", 80, 0.03, 5),  # 31 components, the largest of 50
        "third",
        "paper",
        "ba0696ee368500be6a5bf0eb2e0f72d33c580ba0006746df5fc7be7bed23afa4",
    ),
    (
        GenSpec("poset", 70, 0.5, 7),
        "average",
        "force",
        "38b3aab8e4f40c83762b12815e8139a6130d4c790dbf080201fda1a7e6761167",
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
        pair[side] = BitString(bits.data, at % len(bits))
    for decode in (
        lambda a, b: query(parse_label(a), parse_label(b)),
        lambda a, b: query_lazy(a, b)[0],
    ):
        try:
            ans = decode(*pair)
        except ValueError:
            continue
        assert ans in (True, False)

