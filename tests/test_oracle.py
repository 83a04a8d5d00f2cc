from __future__ import annotations

import hashlib

import pytest

from reachlabel.bitio import BitString
from helpers import is_transitively_closed
from reachlabel.graph import topological_order
from reachlabel.oracle import (
    GenSpec,
    corruption_trial,
    flip_bit,
    generate,
    probeable_table_bits,
    report_lines,
    verify,
)
from reachlabel.scheme import encode


def test_generate_is_deterministic():
    spec = GenSpec("digraph", 30, 0.2, seed=5)
    assert generate(spec).edges == generate(spec).edges
    other = GenSpec("digraph", 30, 0.2, seed=6)
    assert generate(spec).edges != generate(other).edges


# sha256 of the comma-joined decimal edge rows. The draw order must never
# change: every seeded graph, benchmark workloads included, depends on it.
GENERATE_DIGESTS = {
    ("digraph", 0.2): "5111e74a84345bca6c87ca5dd916871190c4b4dba0964a0024bff194983146aa",
    ("dag", 0.2): "1b9d765cf21f57cbbd1ee2684e6f536e1f429869f824b05b8986c2535fd9d470",
    ("poset", 0.1): "3dbe439f4ec1d93a9c682a556be7e96ea9cbd65bd834cab66cfb6cef45e68061",
    ("layered", 0.3): "903e3ae18a2b4ed7faa5eb0892e9abf6fb1a66e0c607bb5e21a7163fd457a2c6",
}


@pytest.mark.parametrize("kind, p", sorted(GENERATE_DIGESTS))
def test_generate_rows_pinned(kind, p):
    g = generate(GenSpec(kind, 40, p, seed=7))
    digest = hashlib.sha256(",".join(map(str, g.rows)).encode()).hexdigest()
    assert digest == GENERATE_DIGESTS[kind, p]


def test_generated_dag_order_is_topological():
    for kind in ("dag", "poset"):
        g = generate(GenSpec(kind, 30, 0.3, seed=4))
        pos = {u: i for i, u in enumerate(g.order)}
        assert sorted(pos) == list(range(30))
        assert all(pos[u] < pos[v] for u, v in g.edges)


def test_generate_p_extremes():
    assert generate(GenSpec("digraph", 12, 0.0, seed=1)).edge_count() == 0
    full = generate(GenSpec("dag", 12, 1.0, seed=1))
    assert full.edge_count() == 12 * 11 // 2


def test_generate_dag_is_acyclic():
    for seed in range(5):
        g = generate(GenSpec("dag", 25, 0.3, seed=seed))
        topological_order(g)  # raises on a cycle


def test_generate_poset_is_closed():
    for seed in range(5):
        g = generate(GenSpec("poset", 20, 0.25, seed=seed))
        assert is_transitively_closed(g)


def test_generate_layered_respects_layers():
    g = generate(GenSpec("layered", 30, 0.4, seed=3, layer_count=5))
    # edges only ascend; verify via a topological order existing
    topological_order(g)


def test_generate_rejects_bad_kind():
    with pytest.raises(ValueError):
        generate(GenSpec("tree", 5, 0.5, seed=0))


def test_verify_ok_and_report_shape():
    g = generate(GenSpec("digraph", 25, 0.15, seed=11))
    rep = verify(g, "third", "force")
    assert rep.ok
    assert rep.mismatches == 0
    assert rep.pairs_checked == 25 * 25
    lines = report_lines(rep)
    assert any(l.startswith("mismatches=0") for l in lines)
    assert any(l.startswith("scheme=third") for l in lines)


def test_verify_single_node():
    g = generate(GenSpec("digraph", 1, 0.9, seed=0))
    rep = verify(g, "warmup")
    assert rep.pairs_checked == 1 and rep.ok


def test_verify_accepts_precomputed_labels():
    g = generate(GenSpec("dag", 15, 0.3, seed=2))
    ls = encode(g, "average", "paper")
    rep = verify(g, "average", "paper", label_bits=list(ls.labels))
    assert rep.ok
    assert rep.max_bits == max(len(b) for b in ls.labels)


def test_flip_bit_is_a_local_involution():
    bits = BitString(0b1011010001, 10)
    for i in range(10):
        once = flip_bit(bits, i)
        assert once != bits
        assert flip_bit(once, i) == bits


def test_probeable_inventory_nonempty_and_in_range():
    g = generate(GenSpec("poset", 18, 0.4, seed=7))
    for scheme in ("warmup", "third", "average"):
        ls = encode(g, scheme, "force")
        inv = probeable_table_bits(ls)
        assert inv, scheme
        for node, off, val in inv:
            assert 0 <= node < g.n
            assert 0 <= off < len(ls.labels[node])
            assert val in (0, 1)
            # inventory entries carry the stored bit value
            bits = ls.labels[node]
            assert bits.value >> (len(bits) - 1 - off) & 1 == val


def test_corruption_is_detected():
    g = generate(GenSpec("digraph", 20, 0.2, seed=3))
    for scheme in ("warmup", "third"):
        hit = corruption_trial(g, scheme, "force", trial_seed=1)
        assert hit.mismatches >= 1


def test_corruption_across_seeds():
    g = generate(GenSpec("poset", 16, 0.5, seed=9))
    for t in range(4):
        assert corruption_trial(g, "average", "force", trial_seed=t).mismatches >= 1
