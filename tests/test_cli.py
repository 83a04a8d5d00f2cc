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
from helpers import bounds_table, ref_read_graph_file, ref_write_graph_file
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reachlabel.cli as cli
from reachlabel.bitio import BitString, read_label_file, write_label_file
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
    graph = write_chain(tmp_path, 4)
    labels = tmp_path / "c.rlbl"
    run(capsys, "encode", "--scheme", "third", "--input", graph, "--output", str(labels))
    good = labels.read_bytes()
    # node 3's 165-bit label ends the file: its last byte has 3 padding bits
    assert int.from_bytes(good[-25:-21], "little") == 165 and good[-1] & 0b111 == 0
    labels.write_bytes(good[:-1] + bytes([good[-1] | 1]))
    assert run(capsys, "query", str(labels), "0", "1")[:2] == (0, "true\n")
    for argv in (("query", str(labels), "3", "0"), ("query", str(labels), "0", "3"),
                 ("stats", "--labels", str(labels))):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "padding bits are not zero" in err and not out


def test_version_2_label_file_exits_2(tmp_path, capsys):
    graph = write_chain(tmp_path, 3)
    labels = tmp_path / "c.rlbl"
    run(capsys, "encode", "--scheme", "third", "--input", graph, "--output", str(labels))
    data = bytearray(labels.read_bytes())
    data[4] = 2  # the version byte
    labels.write_bytes(bytes(data))
    code, out, err = run(capsys, "query", str(labels), "0", "2")
    assert code == 2
    assert "unsupported label file version 2" in err and not out


def test_stats_checks_the_labels_it_sizes(tmp_path, capsys):
    graph = write_chain(tmp_path, 3)
    labels = tmp_path / "c.rlbl"
    run(capsys, "encode", "--scheme", "third", "--input", graph, "--output", str(labels))
    scheme_id, n, bits = read_label_file(str(labels))
    head = bits[0]
    # node 0's blob offset, the second 32-bit offset after the 48 fixed header bits
    shift = len(head) - (48 + 64)
    old = head.value >> shift & 0xFFFFFFFF
    bits[0] = BitString(head.value ^ (old ^ 5000) << shift, len(head))
    write_label_file(str(labels), scheme_id, n, bits)
    for argv in (("stats", "--labels", str(labels)), ("query", str(labels), "0", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "blob offset mismatch" in err and not out
    # a label of another scheme in a third file
    warm = encode(Digraph(3, [(0, 1), (1, 2)]), "warmup").labels
    write_label_file(str(labels), scheme_id, n, [warm[0], *bits[1:]])
    code, out, err = run(capsys, "stats", "--labels", str(labels))
    assert code == 2
    assert "scheme id" in err and not out


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

    # flip the top bit of node 5's second bound, which ends its first near
    # section: the check walk must turn that into exit 2
    u = 5
    tab, ow = bounds_table(ls.labels[u])
    at = 8 * (10 + 8 * ls.n + sum(4 + (len(b) + 7) // 8 for b in ls.labels[:u]) + 4) + tab + ow
    data = bytearray(labels.read_bytes())
    data[at >> 3] ^= 0x80 >> (at & 7)
    labels.write_bytes(bytes(data))
    for pair in ((u, 0), (0, u)):
        code, out, err = run(capsys, "query", str(labels), *map(str, pair))
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1


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
    # a 12-cycle feeding a 4-node tail condenses to 5 components, so the
    # composite labels' component field is index_width(5) = 3 bits wide
    edges = [(i, (i + 1) % 12) for i in range(12)] + [(11, 12), (12, 13), (13, 14), (14, 15)]
    graph = tmp_path / "cycle.txt"
    graph.write_text(f"16 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    labels = str(tmp_path / "cycle.rlbl")
    for scheme, scc_row in (("third", "scc,3,3.000"), ("warmup", "scc,4,4.000")):
        code, _, _ = run(capsys, "encode", "--scheme", scheme, "--input", str(graph),
                         "--output", labels)
        assert code == 0
        code, from_labels, _ = run(capsys, "stats", "--labels", labels)
        assert code == 0
        assert scc_row in from_labels.splitlines()
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
    """Graph-file text: "u v" lines over few ids, so duplicates and
    self-loops are common, and blank and padded lines; in half the files
    also non-canonical, malformed and out-of-range lines. Some files have
    CRLF endings or a wrong m."""
    n = draw(st.integers(0, 9))
    name = st.integers(0, max(n - 1, 0)).map(str)
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
    body = draw(st.lists(line, max_size=40))
    m = sum(1 for x in body if x.strip()) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    lines = [""] * draw(st.integers(0, 2)) + [f"{n} {m}"] + body
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(x + e for x, e in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@given(graph_texts(), st.integers(1, 40))
@example("3 3\n0 1\n1 2\n0 2\n", 40)  # one source in two runs of a chunk
@example("3 3\n0 1\n1 2\n0 1\n", 40)  # ... repeating an edge of the first
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
