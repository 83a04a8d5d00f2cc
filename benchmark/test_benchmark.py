"""Tests of the benchmark itself, on tiny seeded graphs.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

from dataclasses import replace

import run
from reachlabel.graph import oracle_reach
from reachlabel.oracle import GenSpec, flip_bit, generate, probeable_table_bits

TINY = run.Workload("tiny", "digraph", 0.08, "third", "force", n=40, graphs=2, queries=1000)


def quiet(*_):
    pass


def test_truth_agrees_with_the_programs_bfs():
    g = generate(GenSpec("digraph", 60, 0.05, 9))
    reach = run.reach_truth(g.n, g.edges, range(g.n))
    for u in range(g.n):
        for v in range(g.n):
            assert bool(reach[u] >> v & 1) == oracle_reach(g, u, v), (u, v)


def test_tiny_seeded_runs_have_no_failures(tmp_path):
    for w in (TINY, replace(TINY, scheme="warmup"), replace(TINY, kind="poset", p=0.3)):
        res = run.run_workload(w, 3, 0, False, out_dir=tmp_path, log=quiet)
        assert res["correct"], w
        assert res["failed"] == 0
        assert res["attempted"] > 2 * w.queries
        assert set(res["metrics"]) == set(run.E2E_UNITS)
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_layer_metric(tmp_path):
    res = run.run_workload(TINY, 3, 0, True, out_dir=tmp_path, log=quiet)
    assert res["correct"] and res["failed"] == 0
    metrics = res["metrics"]
    assert set(metrics) == set(run.LAYER_UNITS)
    for name in ("crosslabel.peel_s", "crosslabel.sections_s", "biclique.find_s",
                 "dictionary.build_s", "scheme.assemble_s", "graph.layering_s"):
        assert metrics[name]["value"] > 0, name
    assert metrics["warmup.encode_s"]["value"] == 0
    assert (tmp_path / "tiny-s3-trace.spans.json").exists()


def test_same_seed_gives_same_labels(tmp_path):
    lines = []
    for _ in range(2):
        run.run_workload(TINY, 5, 0, False, out_dir=tmp_path, log=lines.append)
    digests = [x for x in lines if x.startswith("label_sha256")]
    assert len(digests) == 4 and digests[:2] == digests[2:]


def test_flipped_bit_makes_queries_fail(tmp_path, monkeypatch):
    # Query every ordered pair, so the pair that reads the flipped bit is asked.
    monkeypatch.setattr(run, "make_pairs", lambda n, count, rng: [
        (u, v) for u in range(n) for v in range(n)
    ])

    def tamper(ls):
        node, off, _ = probeable_table_bits(ls)[0]
        labels = list(ls.labels)
        labels[node] = flip_bit(labels[node], off)
        return labels

    res = run.run_workload(TINY, 3, 0, False, out_dir=tmp_path, tamper=tamper, log=quiet)
    assert res["failed"] > 0
    assert not res["correct"]
