"""Subcommand round-trips driven through main(argv)."""

from __future__ import annotations

import pytest

import reachlabel.cli as cli
from reachlabel.cli import GraphFormatError, main, read_graph_file, write_graph_file
from reachlabel.graph import Digraph
from reachlabel.oracle import VerifyReport


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


def test_verify_parallel_workers_match_serial(tmp_path, capsys, monkeypatch):
    argv = ["verify", "--scheme", "warmup", "--n", "10", "--p", "0.2",
            "--trials", "2", "--seed", "0"]
    code, serial, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("RLBL_THREADS", "2")
    code, parallel, _ = run(capsys, *argv)
    assert code == 0
    assert parallel == serial


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


def test_bench_emits_csv_and_flatness_note(capsys):
    code, out, _ = run(
        capsys, "bench", "--scheme", "third", "--kind", "poset", "--p", "0.4",
        "--sizes", "10,20", "--queries", "200",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,encode_s,query_us,max_bits,mean_bits"
    assert lines[1].startswith("10,") and lines[2].startswith("20,")
    assert lines[-1].startswith("# query latency spread")


def test_missing_input_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "encode", "--scheme", "third",
                       "--input", str(tmp_path / "nope.txt"),
                       "--output", str(tmp_path / "x"))
    assert code == 2
    assert err.strip()
