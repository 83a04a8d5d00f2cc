"""Acceptance gate: ten criteria, one test per criterion, in order.

Each test prints a one-line summary of the measured quantities it checked
(visible with -rP/-rA or -s). Budgets and tolerances are asserted inside
the tests themselves: zero mismatches everywhere, and wall-clock limits of
300s / 60s / 120s for the three time-boxed criteria.

Criterion 1 fixes the corpus like this: instance t (t = 0..999) draws
n uniformly from 1..200 using random.Random(t), takes edge density
p = (0.02, 0.1, 0.5, 0.9)[t % 4], and generates GenSpec("digraph", n, p,
seed=t). The warm-up scheme has no biclique stage, so it runs once per
graph while the other two schemes run under both biclique profiles: five
verification passes per graph.
"""

from __future__ import annotations

import random
import time
from itertools import product

from helpers import (
    P_GRID,
    corruption_cases,
    decode_bipartite,
    is_transitively_closed,
    mixed_corpus,
    split_edges,
)
from reachlabel.bipartite import (
    BipartiteInstance,
    ceil_div,
    embedded_width,
    encode_bipartite,
    index_pair,
)
from reachlabel.bitio import LabelHeader, index_width
from reachlabel.crosslabel import CLS_UPPER, node_class
from reachlabel.flatten import build_superlayers
from reachlabel.graph import (
    Dag,
    Digraph,
    _iter_bits,
    longest_path_layers,
    reach_rows,
    transitive_closure,
)
from reachlabel.oracle import GenSpec, corruption_trial, generate
from reachlabel.scheme import Pipeline, encode, parse_label, query, query_lazy


def corpus_instance(t: int) -> GenSpec:
    rng = random.Random(t)
    n = rng.randrange(1, 201)
    return GenSpec("digraph", n, P_GRID[t % 4], seed=t)


def minimal_budgets(a: int, b: int) -> list[tuple[int, int]]:
    """All Pareto-minimal (alpha, beta) satisfying a*alpha + b*beta > a*b."""
    out = []
    for alpha in range(0, b + 2):
        for beta in range(0, a + 2):
            if a * alpha + b * beta <= a * b:
                continue
            if alpha > 0 and a * (alpha - 1) + b * beta > a * b:
                continue
            if beta > 0 and a * alpha + b * (beta - 1) > a * b:
                continue
            out.append((alpha, beta))
    return out


def transcript(g: Digraph, profile: str, variant: str):
    pl = Pipeline(g)
    return pl, pl.cross_labeling(profile, variant)


def test_criterion_01_master_correctness():
    t0 = time.monotonic()
    mismatches = 0
    graphs = 0
    pairs = 0
    for t in range(1000):
        g = generate(corpus_instance(t))
        n = g.n
        rows = reach_rows(g)
        pl = Pipeline(g)
        label_sets = [encode(g, "warmup", pipeline=pl)]
        for scheme in ("third", "average"):
            for profile in ("paper", "force"):
                label_sets.append(encode(g, scheme, profile, pipeline=pl))
        for ls in label_sets:
            parsed = [parse_label(b) for b in ls.labels]
            for u in range(n):
                row = rows[u]
                pu = parsed[u]
                for v, pv in enumerate(parsed):
                    if query(pu, pv) != (row >> v & 1):
                        mismatches += 1
        graphs += 1
        pairs += 5 * n * n
    elapsed = time.monotonic() - t0
    print(
        f"criterion 1: {graphs} graphs, {pairs} label-pair checks, "
        f"{mismatches} mismatches, {elapsed:.0f}s"
    )
    assert mismatches == 0
    assert elapsed <= 300.0


def test_criterion_02_bipartite_exhaustive():
    t0 = time.monotonic()
    cases = 0
    for a, b in product((1, 2, 3, 4), repeat=2):
        budgets = minimal_budgets(a, b)
        b_nodes = range(a, a + b)
        for mask in range(1 << (a * b)):
            # edge (u, a+v) is bit u*b + v of mask
            rows = tuple(mask >> (u * b) & (1 << b) - 1 for u in range(a))
            for alpha, beta in budgets:
                labels = encode_bipartite(
                    BipartiteInstance(a, b, alpha, beta, rows)
                )
                for u in range(a):
                    lu = labels[u]
                    for v in b_nodes:
                        want = bool(rows[u] >> (v - a) & 1)
                        assert decode_bipartite(lu, labels[v]) == want
                cases += 1
    elapsed = time.monotonic() - t0
    print(f"criterion 2: {cases} encoded instances, 0 mismatches, {elapsed:.0f}s")
    assert elapsed <= 60.0


def test_criterion_03_coverage_inequality():
    # A placement failure (some budgeted (alpha, beta) with i >= alpha and
    # j >= beta) exists exactly when a*i + b*j > a*b for some probe pair:
    # take alpha = i and beta = j, the largest budgets the failure permits.
    # The bounded form below is therefore equivalent to the quantified one.
    t0 = time.monotonic()
    worst = 0
    for a in range(1, 65):
        for b in range(1, 65):
            for i_a in range(a):
                for i_b in range(b):
                    i, j = index_pair(i_a, i_b, a, b)
                    assert a * i + b * j <= a * b, (a, b, i_a, i_b)
                    worst = max(worst, a * i + b * j - a * b)
    # spot-check the quantified original on small sizes
    checked = 0
    for a in range(1, 9):
        for b in range(1, 9):
            placements = [
                index_pair(i_a, i_b, a, b) for i_a in range(a) for i_b in range(b)
            ]
            for alpha in range(0, b + 1):
                for beta in range(0, a + 1):
                    if a * alpha + b * beta <= a * b:
                        continue
                    for i, j in placements:
                        assert i < alpha or j < beta, (a, b, alpha, beta, i, j)
                        checked += 1
    elapsed = time.monotonic() - t0
    print(
        f"criterion 3: all a,b <= 64 covered, slack {worst} <= 0; "
        f"{checked} quantified spot checks, {elapsed:.0f}s"
    )
    assert elapsed <= 120.0


def test_criterion_04_warmup_exact_size():
    # The warm-up window runs over graph nodes (a component's members take
    # consecutive indices), so the length is exact in n for any number c of
    # components: c = 1 on the p=0.1 digraphs, c = n on the DAGs.
    comps = []
    for kind in ("digraph", "dag"):
        for n in (10, 100, 1000):
            g = generate(GenSpec(kind, n, 0.1, seed=n))
            pl = Pipeline(g)
            ls = encode(g, "warmup", pipeline=pl)
            iw = index_width(n)
            header = LabelHeader.HEADER_FIXED_BITS + iw  # scheme id, n, component field
            want = header + iw + n // 2
            lengths = {len(b) for b in ls.labels}
            assert lengths == {want}, (kind, n, lengths, want)
            assert header <= 64
            comps.append(f"{kind} n={n} c={pl.scc.dag.n}")
    print(
        "criterion 4: warm-up label length == header + ceil(log2 n) + floor(n/2) on "
        + ", ".join(comps)
    )


def test_criterion_05_flattening_structure():
    rng = random.Random(55)
    violations = 0
    for t in range(200):
        n = rng.randrange(4, 90)
        p = rng.choice((0.1, 0.3, 0.6, 0.9))
        layer_count = rng.choice((None, 2, 3, max(2, n // 8)))
        g = generate(GenSpec("layered", n, p, seed=5000 + t, layer_count=layer_count))
        closed = transitive_closure(Dag(n, rows=g.rows))  # raises on a cycle
        lay = longest_path_layers(closed)
        s = build_superlayers(lay)
        gamma = s.gamma
        if s.count > 3 * gamma + 1:
            violations += 1
        for grp in s.groups:
            width = grp.end - grp.beg
            if grp.gtype == 2 and not (n < width * gamma <= 2 * n):
                violations += 1
        inner, cross = split_edges(lay, s)
        if inner & cross or (inner | cross) != closed.edges:
            violations += 1
        if not is_transitively_closed(Digraph(n, cross)):
            violations += 1
    print(f"criterion 5: 200 layered instances, {violations} violations")
    assert violations == 0


def test_criterion_06_per_iteration_section_sizes():
    checked = 0
    for g in mixed_corpus():
        for profile in ("paper", "force"):
            pl, cl = transcript(g, profile, "third")
            for rec in cl.records:
                if rec.n_pairs == 0:
                    continue
                a_prime = rec.n_pairs
                v_s = len(rec.live)
                far = rec.far_inst
                assert (far.a, far.b) == (a_prime, v_s - 2 * a_prime)
                assert far.alpha == ceil_div(2 * v_s - 3 * a_prime, 6) == (
                    2 * v_s - 3 * a_prime + 5
                ) // 6
                assert far.beta == ceil_div(2 * a_prime, 3)
                near = rec.near_inst
                assert near.a == near.b == a_prime
                assert near.alpha == near.beta == ceil_div(a_prime, 2) + 1
                # exact bit-level sizes: no truncation, no hidden padding;
                # a sub-label is its index below a + b and its table
                fm = set(rec.front_match)
                sm = set(rec.second_match)
                n_bic = len(rec.bicliques)
                for u in rec.live:
                    near_bits = cl.sections[u][2 * (rec.s - 1)]
                    far_bits = cl.sections[u][2 * (rec.s - 1) + 1]
                    if u in fm or u in sm:
                        assert len(near_bits) == embedded_width(2 * a_prime, near.alpha)
                        assert len(far_bits) == index_width(a_prime) + embedded_width(
                            v_s - a_prime, far.alpha
                        )
                    else:  # flags for upper nodes only
                        upper = node_class(rec.s, cl.entry[u], cl.removed_iter[u]) == CLS_UPPER
                        assert len(far_bits) == embedded_width(
                            v_s - a_prime, far.beta
                        ) + (n_bic if upper else 0)
                    checked += 1
    print(f"criterion 6: exact table sizes on {checked} live node-iterations")
    assert checked > 0


def test_criterion_07_edge_partition_audit():
    audited = 0
    for g in mixed_corpus():
        for profile in ("paper", "force"):
            pl, cl = transcript(g, profile, "third")
            lay = pl.layered
            inner, cross = split_edges(lay, pl.slayer)
            closure_edges = lay.dag.edges
            pieces = [inner]
            for rec in cl.records:
                for rows in (rec.near_rows, rec.far_rows):
                    pieces.append(
                        {(u, v) for u, m in rows.items() for v in _iter_bits(m)}
                    )
            total = sum(len(p) for p in pieces)
            union = set().union(*pieces) if pieces else set()
            assert total == len(union) == len(closure_edges)
            assert union == closure_edges
            audited += 1
    print(f"criterion 7: multiset edge partition exact on {audited} transcripts")


def test_criterion_08_average_variant_structure():
    # structural claim on every iteration of every transcript
    for g in mixed_corpus():
        for profile in ("paper", "force"):
            pl, cl = transcript(g, profile, "average")
            for rec in cl.records:
                if rec.n_pairs == 0:
                    continue
                assert rec.far_inst.alpha == 0  # matched side: zero pair-table bits
                assert rec.far_inst.beta == rec.n_pairs + 1
                fm = set(rec.front_match) | set(rec.second_match)
                n_bic = len(rec.bicliques)
                a_prime = rec.n_pairs
                v_s = len(rec.live)
                for u in rec.live:
                    far_bits = cl.sections[u][2 * (rec.s - 1) + 1]
                    if u in fm:
                        assert len(far_bits) == index_width(a_prime) + embedded_width(
                            v_s - a_prime, 0
                        )
                    else:  # flags for upper nodes only
                        upper = node_class(rec.s, cl.entry[u], cl.removed_iter[u]) == CLS_UPPER
                        assert len(far_bits) == embedded_width(
                            v_s - a_prime, a_prime + 1
                        ) + (n_bic if upper else 0)

    # oracle equivalence for this scheme runs inside criterion 1's sweep;
    # re-check a small slice here so this test stands alone
    for seed in range(10):
        g = generate(GenSpec("poset", 40, 0.4, seed=800 + seed))
        rows = reach_rows(g)
        ls = encode(g, "average", "force")
        parsed = [parse_label(b) for b in ls.labels]
        for u in range(g.n):
            for v in range(g.n):
                assert query(parsed[u], parsed[v]) == bool(rows[u] >> v & 1)

    # reported, not asserted: measured sizes against the n/4 and n/2 lines
    lines = ["criterion 8: dense-poset label sizes (average scheme, force profile)"]
    lines.append("        n   mean_bits    max_bits    n/4     n/2")
    for n in (500, 1000, 2000):
        g = generate(GenSpec("poset", n, 0.5, seed=42))
        ls = encode(g, "average", "force")
        sizes = [len(b) for b in ls.labels]
        lines.append(
            f"    {n:5d}   {sum(sizes) / n:9.1f}   {max(sizes):9d}   "
            f"{n // 4:5d}   {n // 2:5d}"
        )
    print("\n".join(lines))


def test_criterion_09_decoder_word_budget():
    results = []
    for n in (100, 1000, 2000):
        g = generate(GenSpec("digraph", n, 4.0 / n, seed=9))
        pl = Pipeline(g)
        worst = 0
        rng = random.Random(n)
        for scheme in ("third", "average"):
            ls = encode(g, scheme, "paper", pipeline=pl)
            if n <= 100:
                pairs = ((u, v) for u in range(n) for v in range(n))
            else:
                pairs = ((rng.randrange(n), rng.randrange(n)) for _ in range(4000))
            for u, v in pairs:
                _, words = query_lazy(ls.labels[u], ls.labels[v])
                worst = max(worst, words)
        results.append((n, worst))
        assert worst <= 64, (n, worst)
    print(
        "criterion 9: max word reads per query "
        + ", ".join(f"n={n}: {w}" for n, w in results)
        + " (budget 64)"
    )


def test_criterion_10_corruption_detected():
    detected = 0
    trials = []
    for t, (spec, scheme, profile) in enumerate(corruption_cases()):
        rep = corruption_trial(generate(spec), scheme, profile, trial_seed=t)
        trials.append(rep.mismatches)
        if rep.mismatches >= 1:
            detected += 1
    print(
        f"criterion 10: {detected}/20 corruption trials detected "
        f"(min mismatches {min(trials)})"
    )
    assert detected == 20
