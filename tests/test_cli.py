"""Subcommand round-trips driven through main(argv)."""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from helpers import blob_fields, cold_caches, ref_read_graph_file, ref_write_graph_file
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reachlabel.cli as cli
from reachlabel.bitio import BitString, read_label_file, read_labels_at, write_label_file
from reachlabel.cli import GraphFormatError, main, read_graph_file, write_graph_file
from reachlabel.graph import Digraph
from reachlabel.oracle import GenSpec, VerifyReport, generate
from reachlabel.scheme import encode, query_lazy


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_chain(tmp_path, n=3):
    path = tmp_path / "chain.txt"
    lines = [f"{n} {n - 1}"] + [f"{i} {i + 1}" for i in range(n - 1)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_generate_then_encode_then_query(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    labels = tmp_path / "g.rlbl"
    code, out, _ = run(
        capsys, "generate", "--kind", "dag", "--n", "12", "--p", "0.4",
        "--seed", "3", "--output", str(graph),
    )
    assert code == 0
    assert "n=12" in out
    code, out, _ = run(
        capsys, "encode", "--scheme", "third", "--input", str(graph),
        "--output", str(labels),
    )
    assert code == 0
    assert "scheme=third" in out
    code, out, _ = run(capsys, "query", str(labels), "0", "0")
    assert code == 0 and out.strip() == "true"


def test_query_chain_frozen_answers(tmp_path, capsys):
    graph = write_chain(tmp_path, 3)
    labels = str(tmp_path / "c.rlbl")
    assert run(capsys, "encode", "--scheme", "third", "--input", graph,
               "--output", labels)[0] == 0
    for u, v, want in [("0", "2", "true"), ("2", "0", "false"), ("1", "1", "true")]:
        code, out, _ = run(capsys, "query", labels, u, v)
        assert code == 0
        assert out.strip() == want, (u, v)


def test_query_out_of_range_exits_nonzero(tmp_path, capsys):
    graph = write_chain(tmp_path, 3)
    labels = str(tmp_path / "c.rlbl")
    run(capsys, "encode", "--scheme", "warmup", "--input", graph, "--output", labels)
    code, _, err = run(capsys, "query", labels, "0", "7")
    assert code == 2
    assert err.strip()


def test_query_on_a_corrupted_offset_table_exits_2(tmp_path, capsys):
    graph = write_chain(tmp_path, 3)
    labels = tmp_path / "c.rlbl"
    run(capsys, "encode", "--scheme", "third", "--input", graph, "--output", str(labels))
    data = bytearray(labels.read_bytes())
    data[10 + 8 * 1] ^= 0x01  # node 1's record offset
    labels.write_bytes(bytes(data))
    code, out, err = run(capsys, "query", str(labels), "1", "2")
    assert code == 2
    assert "offset table entry of node 1" in err and not out


def test_nonzero_padding_bit_exits_2(tmp_path, capsys):
    graph = write_chain(tmp_path, 3)
    labels = tmp_path / "c.rlbl"
    run(capsys, "encode", "--scheme", "third", "--input", graph, "--output", str(labels))
    good = labels.read_bytes()
    # node 2's 61-bit label ends the file before its CRC-32: its last byte
    # has 3 padding bits
    assert int.from_bytes(good[-16:-12], "little") == 61 and good[-5] & 0b111 == 0
    labels.write_bytes(good[:-5] + bytes([good[-5] | 1]) + good[-4:])
    assert run(capsys, "query", str(labels), "0", "1")[:2] == (0, "true\n")
    for argv in (("query", str(labels), "2", "0"), ("query", str(labels), "0", "2"),
                 ("stats", "--labels", str(labels))):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "padding bits are not zero" in err and not out


def test_every_flipped_record_bit_is_refused(tmp_path, capsys):
    """Each single-bit flip in any record of a small file, in its bit
    length, its bits or its CRC-32, is refused by both readers with
    ValueError, and ``query`` through that record exits 2."""
    graph = write_chain(tmp_path, 3)
    labels = tmp_path / "c.rlbl"
    run(capsys, "encode", "--scheme", "third", "--input", graph, "--output", str(labels))
    good = labels.read_bytes()
    n = 3
    starts = [int.from_bytes(good[10 + 8 * i : 18 + 8 * i], "little") for i in range(n)]
    flips = 0
    for i, (start, stop) in enumerate(zip(starts, starts[1:] + [len(good)])):
        for bit in range(8 * start, 8 * stop):
            data = bytearray(good)
            data[bit >> 3] ^= 1 << (bit & 7)
            labels.write_bytes(bytes(data))
            with pytest.raises(ValueError):
                read_label_file(str(labels))
            with pytest.raises(ValueError):
                read_labels_at(str(labels), [i])
            code, out, err = run(capsys, "query", str(labels), str(i), str((i + 1) % n))
            assert code == 2 and not out and err.startswith("error: "), bit
            flips += 1
    assert flips == 8 * (len(good) - starts[0])


def test_version_7_label_file_exits_2(tmp_path, capsys):
    graph = write_chain(tmp_path, 3)
    labels = tmp_path / "c.rlbl"
    run(capsys, "encode", "--scheme", "third", "--input", graph, "--output", str(labels))
    data = bytearray(labels.read_bytes())
    for old in (7, 8):  # version 8, the layout before record CRCs, too
        data[4] = old  # the version byte
        labels.write_bytes(bytes(data))
        code, out, err = run(capsys, "query", str(labels), "0", "2")
        assert code == 2
        assert f"unsupported label file version {old}" in err and not out


@pytest.mark.parametrize("scheme_id", [1, 3, 9])
def test_query_refuses_a_file_scheme_id_its_labels_do_not_carry(tmp_path, capsys, scheme_id):
    # a third file whose scheme byte names the warm-up, the average scheme
    # or no scheme at all
    graph, labels = tmp_path / "g.txt", tmp_path / "g.rlbl"
    run(capsys, "generate", "--kind", "dag", "--n", "40", "--seed", "3", "--output", str(graph))
    run(capsys, "encode", "--scheme", "third", "--input", str(graph), "--output", str(labels))
    assert run(capsys, "query", str(labels), "0", "5")[0] == 0
    data = bytearray(labels.read_bytes())
    data[5] = scheme_id
    labels.write_bytes(bytes(data))
    for argv in (("query", str(labels), "0", "5"), ("stats", "--labels", str(labels))):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert "scheme id" in err and not out


def test_stats_checks_the_labels_it_sizes(tmp_path, capsys):
    graph = write_chain(tmp_path, 3)
    labels = tmp_path / "c.rlbl"
    run(capsys, "encode", "--scheme", "third", "--input", graph, "--output", str(labels))
    scheme_id, n, bits = read_label_file(str(labels))
    head = bits[0]
    # node 0's intra end field (2 bits at 46, after the 40 header bits and
    # topo, grp, beg, 2 bits each) lowered from 2 to 0: its thin group's
    # one-bit window goes and the blob is read a bit early
    shift = len(head) - (46 + 2)
    assert head.value >> shift & 0b11 == 2
    bits[0] = BitString(head.value ^ (2 ^ 0) << shift, len(head))
    write_label_file(str(labels), scheme_id, n, bits)
    for argv in (("stats", "--labels", str(labels)), ("query", str(labels), "0", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "sub-label index 0 outside side A (a=0, b=0)" in err and not out
    # a label of another scheme in a third file
    warm = encode(Digraph(3, [(0, 1), (1, 2)]), "warmup").labels
    write_label_file(str(labels), scheme_id, n, [warm[0], *bits[1:]])
    code, out, err = run(capsys, "stats", "--labels", str(labels))
    assert code == 2
    assert "scheme id" in err and not out


def test_stats_refuses_a_corrupt_file_after_a_clean_one(tmp_path, capsys):
    """Checking a clean file leaves a layout plan for every blob head of
    its encoding in the process; a copy whose node 1 claims more pairs than
    there are nodes in its last schedule entry must still exit 2."""
    ls = encode(generate(GenSpec("poset", 60, 0.5, 1)), "third", "force")
    clean, bad = tmp_path / "clean.rlbl", tmp_path / "bad.rlbl"
    write_label_file(str(clean), ls.scheme_id, ls.n, ls.labels)
    labels = list(ls.labels)
    at, width, m, _ = blob_fields(labels[1])
    shift = len(labels[1]) - at - m * width  # P_m, the last schedule entry
    entry = labels[1].value >> shift & (1 << width) - 1
    labels[1] = BitString(labels[1].value ^ (entry ^ ls.n // 2 + 1) << shift, len(labels[1]))
    write_label_file(str(bad), ls.scheme_id, ls.n, labels)
    with cold_caches():
        assert run(capsys, "stats", "--labels", str(clean))[0] == 0
        code, out, err = run(capsys, "stats", "--labels", str(bad))
    assert code == 2
    assert "pair schedule decreases or pairs more than n nodes" in err and not out


def test_empty_label_file_with_trailing_bytes_exits_2(tmp_path, capsys):
    labels = tmp_path / "empty.rlbl"
    write_label_file(str(labels), 2, 0, [])
    labels.write_bytes(labels.read_bytes() + b"garbage")
    for argv in (("query", str(labels), "0", "0"), ("stats", "--labels", str(labels))):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "bytes past its header" in err and not out


@pytest.mark.parametrize("scheme", ["third", "average"])
def test_query_checks_the_whole_layout(tmp_path, capsys, scheme):
    ls = encode(generate(GenSpec("poset", 16, 0.5, 3)), scheme, "force")
    labels = tmp_path / "p.rlbl"
    write_label_file(str(labels), ls.scheme_id, ls.n, ls.labels)
    for u in range(ls.n):
        for v in range(ls.n):
            code, out, _ = run(capsys, "query", str(labels), str(u), str(v))
            assert code == 0
            assert out == ("true\n" if query_lazy(ls.labels[u], ls.labels[v])[0] else "false\n")

    # flip the top bit of node 5's first pair schedule entry P_1, which then
    # pairs more than the n nodes: in the file, the record's CRC-32 refuses
    # it; written with a fresh CRC, the check walk must turn it into exit 2
    u = 5
    sched, width, m, _ = blob_fields(ls.labels[u])
    assert m >= 1
    at = 8 * (10 + 8 * ls.n + sum(8 + (len(b) + 7) // 8 for b in ls.labels[:u]) + 4) + sched
    data = bytearray(labels.read_bytes())
    data[at >> 3] ^= 0x80 >> (at & 7)
    labels.write_bytes(bytes(data))
    for pair in ((u, 0), (0, u)):
        code, out, err = run(capsys, "query", str(labels), *map(str, pair))
        assert code == 2 and not out
        assert err == f"error: record of node {u} fails its CRC-32\n"
    flipped = list(ls.labels)
    flipped[u] = BitString(flipped[u].value ^ 1 << len(flipped[u]) - 1 - sched, len(flipped[u]))
    write_label_file(str(labels), ls.scheme_id, ls.n, flipped)
    for pair in ((u, 0), (0, u)):
        code, out, err = run(capsys, "query", str(labels), *map(str, pair))
        assert code == 2 and not out
        assert err == "error: pair schedule decreases or pairs more than n nodes\n"


def test_written_graph_file_is_pinned(tmp_path):
    # digest of the file as written one line at a time per edge
    path = tmp_path / "poset.txt"
    write_graph_file(str(path), generate(GenSpec("poset", 200, 0.5, 1)))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "5829c6c28b942bc6b36fe60e7b5775c25e74907a923a45647b60984e19208551"


def test_encode_all_schemes_and_profiles(tmp_path, capsys):
    graph = write_chain(tmp_path, 6)
    for scheme in ("warmup", "third", "average"):
        for profile in ("paper", "force"):
            out_path = str(tmp_path / f"{scheme}-{profile}.rlbl")
            code, _, _ = run(
                capsys, "encode", "--scheme", scheme, "--biclique-profile", profile,
                "--input", graph, "--output", out_path,
            )
            assert code == 0


def test_malformed_header_is_line_numbered(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1\n")
    code, _, err = run(capsys, "encode", "--scheme", "third",
                       "--input", str(bad), "--output", str(tmp_path / "x"))
    assert code == 2
    assert "line 1" in err


def test_edge_count_mismatch_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n")
    code, _, err = run(capsys, "stats", "--input", str(bad))
    assert code == 2
    assert "promises 2 edges" in err


def test_out_of_range_edge_mentions_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 5\n")
    code, _, err = run(capsys, "encode", "--scheme", "warmup",
                       "--input", str(bad), "--output", str(tmp_path / "x"))
    assert code == 2
    assert "line 2" in err and "(0,5)" in err


def test_duplicate_edge_warns_but_succeeds(tmp_path, capsys):
    f = tmp_path / "dup.txt"
    f.write_text("3 3\n0 1\n0 1\n1 2\n")
    g = read_graph_file(str(f))
    err = capsys.readouterr().err
    assert "duplicate edge" in err
    assert g.edge_count() == 2


def test_graph_file_round_trip(tmp_path):
    g = Digraph(5, [(0, 3), (2, 4), (1, 1), (0, 1)])
    path = tmp_path / "rt.txt"
    write_graph_file(str(path), g)
    back = read_graph_file(str(path))
    assert back.n == 5
    assert back.edges == g.edges


def test_read_graph_requires_content(tmp_path):
    empty = tmp_path / "e.txt"
    empty.write_text("\n\n")
    with pytest.raises(GraphFormatError):
        read_graph_file(str(empty))


def test_verify_single_input_ok(tmp_path, capsys):
    graph = write_chain(tmp_path, 8)
    code, out, err = run(capsys, "verify", "--input", graph, "--scheme", "average")
    assert code == 0
    assert "mismatches=0" in out
    assert not err


def test_verify_generated_instances(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "--scheme", "third", "--kind", "poset", "--n", "14",
        "--p", "0.3", "--trials", "3", "--seed", "20",
    )
    assert code == 0
    assert "instances=3" in out
    for seed in (20, 21, 22):
        assert f"seed={seed} " in out
    assert out.count("mismatches=0") == 3


def test_verify_failure_prints_triple_and_exits_1(tmp_path, capsys, monkeypatch):
    graph = write_chain(tmp_path, 4)
    broken = VerifyReport(
        scheme="third", profile="paper", n=4, pairs_checked=16,
        mismatches=1, examples=((1, 2, False, True),), max_bits=10, mean_bits=10.0,
    )
    monkeypatch.setattr(cli, "verify", lambda *a, **k: broken)
    code, _, err = run(capsys, "verify", "--input", graph, "--scheme", "third")
    assert code == 1
    assert "FAIL graph-seed=- u=1 v=2" in err


def test_stats_ledger_is_one_row_per_field(tmp_path, capsys):
    graph = write_chain(tmp_path, 10)
    labels = str(tmp_path / "s.rlbl")
    for scheme, fields in (("third", ["header", "intra_placement", "intra_table",
                                      "k_removed_iter", "schedule", "biclique_counts",
                                      "near_sections", "far_sections"]),
                           ("warmup", ["header", "scc", "index", "window"])):
        run(capsys, "encode", "--scheme", scheme, "--input", graph, "--output", labels)
        code, out, _ = run(capsys, "stats", "--labels", labels, "--ledger")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "field,max_bits,mean_bits"
        assert [line.split(",")[0] for line in lines[1:]] == fields + ["total"]
        means = [float(line.split(",")[2]) for line in lines[1:]]
        assert abs(sum(means[:-1]) - means[-1]) < 0.01
        assert run(capsys, "stats", "--input", graph, "--scheme", scheme, "--ledger")[1] == out


def test_stats_from_graph_and_from_labels(tmp_path, capsys):
    graph = write_chain(tmp_path, 10)
    labels = str(tmp_path / "s.rlbl")
    run(capsys, "encode", "--scheme", "average", "--input", graph, "--output", labels)

    code, out, _ = run(capsys, "stats", "--input", graph, "--scheme", "average")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "section,max_bits,mean_bits"
    assert lines[-1].startswith("total,")

    code, out2, _ = run(capsys, "stats", "--labels", labels)
    assert code == 0
    assert out2 == out


def test_stats_from_labels_on_a_cyclic_graph(tmp_path, capsys):
    # a 12-cycle feeding a 4-node tail condenses to 5 components; a warm-up
    # label's component field is index_width(16) = 4 bits wide, and a
    # composite label has none (its intra section's topo names the component)
    edges = [(i, (i + 1) % 12) for i in range(12)] + [(11, 12), (12, 13), (13, 14), (14, 15)]
    graph = tmp_path / "cycle.txt"
    graph.write_text(f"16 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    labels = str(tmp_path / "cycle.rlbl")
    for scheme, rows in (("third", ["header", "intra", "cross", "total"]),
                         ("warmup", ["header", "scc", "index", "window", "total"])):
        code, _, _ = run(capsys, "encode", "--scheme", scheme, "--input", str(graph),
                         "--output", labels)
        assert code == 0
        code, from_labels, _ = run(capsys, "stats", "--labels", labels)
        assert code == 0
        assert [line.split(",")[0] for line in from_labels.splitlines()[1:]] == rows
        if scheme == "warmup":
            assert "scc,4,4.000" in from_labels.splitlines()
        code, from_graph, _ = run(capsys, "stats", "--input", str(graph), "--scheme", scheme)
        assert code == 0
        assert from_labels == from_graph


def test_stats_requires_a_source(capsys):
    code, _, err = run(capsys, "stats")
    assert code == 2
    assert err.strip()


def test_stats_takes_one_source(tmp_path, capsys):
    graph = write_chain(tmp_path)
    labels = str(tmp_path / "chain.lbl")
    assert run(capsys, "encode", "--scheme", "third", "--input", graph, "--output", labels)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--labels", labels, "--input", graph])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_missing_input_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "encode", "--scheme", "third",
                       "--input", str(tmp_path / "nope.txt"),
                       "--output", str(tmp_path / "x"))
    assert code == 2
    assert err.strip()


def test_verify_rejects_a_trial_count_below_1(capsys):
    for trials in ("0", "-1"):
        code, out, err = run(capsys, "verify", "--scheme", "third", "--trials", trials)
        assert code == 2 and not out
        assert err == "error: --trials must be at least 1\n"


def test_generate_rejects_a_layer_count_below_1(tmp_path, capsys):
    for layers in ("0", "-2"):
        code, out, err = run(
            capsys, "generate", "--kind", "layered", "--n", "10", "--p", "0.5",
            "--layers", layers, "--output", str(tmp_path / "g.txt"),
        )
        assert code == 2 and not out
        assert err == "error: layer count must be at least 1\n"
    assert not (tmp_path / "g.txt").exists()


def test_generate_rejects_layers_for_kinds_without_layers(tmp_path, capsys):
    for kind in ("digraph", "dag", "poset"):
        code, out, err = run(
            capsys, "generate", "--kind", kind, "--n", "10", "--p", "0.5",
            "--layers", "3", "--output", str(tmp_path / "g.txt"),
        )
        assert code == 2 and not out
        assert err == f"error: a layer count applies to kind 'layered', not {kind!r}\n"
    assert not (tmp_path / "g.txt").exists()


# -- the chunked graph reader and the byte-table writer against references -----


def read_outcome(reader, path):
    """(rows, or the GraphFormatError message; everything printed to stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            got = reader(path).rows
        except GraphFormatError as exc:
            got = str(exc)
    return got, err.getvalue()


@st.composite
def graph_texts(draw):
    """Graph-file text: "u v" lines over up to 100 ids, single or in runs of
    one source, so duplicates and self-loops are common and some runs are
    dense (k * cli.DENSE_RUN >= n targets, every run when n <= 16) and some
    sparse; blank and padded lines; in half the files also non-canonical,
    malformed and out-of-range lines. Some files have CRLF endings or a
    wrong m."""
    n = draw(st.one_of(st.integers(0, 9), st.integers(10, 100)))
    ids = st.integers(0, max(n - 1, 0))
    name = ids.map(str)
    odd = st.sampled_from(["007", "+3", "-0", "00", "1_0", "x", str(n), str(n + 4), "-1"])
    token = st.one_of(name, name, name, name, odd)
    pad = st.sampled_from(["", "", "", " ", "\t", " \t "])
    sep = st.sampled_from([" ", " ", " ", "  ", "\t", " \t"])
    edge = st.tuples(pad, name, sep, name, pad).map("".join)
    line = st.one_of(edge, edge, edge, edge, pad)
    if draw(st.booleans()):
        line = st.one_of(
            line, line,
            st.tuples(pad, token, sep, token, pad).map("".join),
            token,
            st.tuples(token, sep, token, sep, token).map("".join),
        )
    targets = st.one_of(
        st.lists(ids, min_size=1, max_size=max(n, 1), unique=True),
        st.lists(ids, min_size=1, max_size=max(n, 1)),
    )
    run = st.tuples(ids, targets).map(lambda r: [f"{r[0]} {v}" for v in r[1]])
    block = st.one_of(line.map(lambda x: [x]), run)
    body = [x for lines in draw(st.lists(block, max_size=12)) for x in lines]
    m = sum(1 for x in body if x.strip()) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    lines = [""] * draw(st.integers(0, 2)) + [f"{n} {m}"] + body
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(x + e for x, e in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def run_text(n, *runs):
    """A graph file of "u v" lines, one run per (u, targets) pair."""
    lines = [f"{u} {v}\n" for u, vs in runs for v in vs]
    return f"{n} {len(lines)}\n" + "".join(lines)


@given(graph_texts(), st.one_of(st.integers(1, 40), st.integers(41, 2000)))
@example("3 3\n0 1\n1 2\n0 2\n", 40)  # one source in two runs of a chunk
@example("3 3\n0 1\n1 2\n0 1\n", 40)  # ... repeating an edge of the first
@example(run_text(20, (0, range(1, 11))), 20)  # one dense run split across two chunks
@example(run_text(20, (0, [1, 2, 3]), (1, [0]), (0, [4, 2, 5])), 400)  # a dense run
# repeating an edge of an earlier dense run of its source, a sparse run between
@example(run_text(32, (3, [1, 2]), (4, [5]), (3, [6, 7])), 400)  # runs at k * 16 = n and below
@example("2 1\n1 " + "1" * 5000 + "\n", 40)  # an id past int()'s digit limit
@settings(max_examples=400, deadline=None)
def test_reader_matches_the_per_line_reference(text, chunk):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_bytes(text.encode())
        want = read_outcome(ref_read_graph_file, str(path))
        with mock.patch.object(cli, "READ_CHUNK", chunk):
            assert read_outcome(read_graph_file, str(path)) == want


@given(
    st.sampled_from([0, 1, 7, 8, 9, 15, 16, 17]).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(
            st.one_of(
                st.just(0),
                st.just((1 << n) - 1),
                st.integers(0, max(n - 1, 0)).map(lambda v: 1 << v if n else 0),
                st.integers(0, (1 << n) - 1),
            ),
            min_size=n, max_size=n,
        ))
    )
)
@settings(max_examples=200, deadline=None)
def test_writer_matches_the_per_bit_reference(case):
    n, rows = case
    g = Digraph(n, rows=rows)
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "ours.txt", Path(tmp) / "ref.txt"
        write_graph_file(str(ours), g)
        ref_write_graph_file(str(ref), g)
        assert ours.read_bytes() == ref.read_bytes()
        assert read_graph_file(str(ours)).rows == g.rows


def chunked_file(tmp_path, edit):
    """A 250 x 130 complete bipartite graph file, several READ_CHUNKs long,
    with ``edit(lines)`` applied to its edge lines; the header counts them."""
    lines = [f"{u} {v}" for u in range(250) for v in range(250, 380)]
    edit(lines)
    path = tmp_path / "big.txt"
    path.write_text(f"380 {len(lines)}\n" + "".join(x + "\n" for x in lines))
    assert path.stat().st_size > 3 * cli.READ_CHUNK
    return path


def test_duplicate_past_the_first_chunk_warns_with_its_line(tmp_path, capsys):
    at = 30000  # 0-based edge line: file line at + 2, chunks after the first copy
    path = chunked_file(tmp_path, lambda lines: lines.insert(at, "0 251"))
    g = read_graph_file(str(path))
    assert capsys.readouterr().err == f"warning: line {at + 2}: duplicate edge 0 251 ignored\n"
    assert g.rows == [((1 << 130) - 1) << 250] * 250 + [0] * 130


def test_malformed_line_past_the_first_chunk_names_its_line(tmp_path, capsys):
    at = 32400

    def spoil(lines):
        lines[at] = "7 x"

    path = chunked_file(tmp_path, spoil)
    with pytest.raises(GraphFormatError) as exc:
        read_graph_file(str(path))
    assert str(exc.value) == f"line {at + 2}: expected two integers, got '7 x'"
    code, out, err = run(capsys, "encode", "--scheme", "third", "--input", str(path),
                         "--output", str(tmp_path / "x"))
    assert code == 2 and not out
    assert err == f"error: line {at + 2}: expected two integers, got '7 x'\n"


def test_dense_poset_file_reads_back_to_its_rows(tmp_path):
    g = generate(GenSpec("poset", 1000, 0.5, 1))
    path = tmp_path / "poset.txt"
    write_graph_file(str(path), g)
    assert read_graph_file(str(path)).rows == g.rows


def test_reader_memory_does_not_grow_with_the_file(tmp_path):
    g = generate(GenSpec("poset", 500, 0.5, 1))
    peaks = []
    for k in (125, 500):  # the first k rows: 0.2 and 0.9 MB files
        part = Digraph(500, rows=g.rows[:k] + [0] * (500 - k))
        path = tmp_path / f"rows{k}.txt"
        write_graph_file(str(path), part)
        tracemalloc.start()
        try:
            back = read_graph_file(str(path))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert back.rows == part.rows
    short, long = peaks
    assert long <= 4 << 20
    assert long < 1.1 * short, peaks


def test_reader_memory_does_not_grow_with_n(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("200000 1\n5 199999\n")
    tracemalloc.start()
    try:
        g = read_graph_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.rows[5] == 1 << 199999 and g.edge_count() == 1
    assert peak <= 4 << 20, peak


@pytest.mark.parametrize("spec, dense", [
    (GenSpec("poset", 300, 0.5, 1), True),
    (GenSpec("dag", 1000, 0.01, 1), False),
])
def test_written_files_are_taken_a_whole_chunk_at_a_time(tmp_path, spec, dense):
    g = generate(spec)
    assert (max(map(int.bit_count, g.rows)) * cli.DENSE_RUN >= g.n) == dense
    path = tmp_path / "g.txt"
    write_graph_file(str(path), g)
    assert path.stat().st_size > (3 * cli.READ_CHUNK if dense else cli.READ_CHUNK // 2)
    refused = AssertionError("a chunk of the writer's own format was read line by line")
    with mock.patch.object(cli, "_read_lines", side_effect=refused):
        assert read_graph_file(str(path)).rows == g.rows
