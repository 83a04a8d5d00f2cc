"""Iterative peeling of cross-group closure edges, and its per-node blobs."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import group_split, is_transitively_closed, mixed_corpus, split_edges
from reachlabel.bipartite import embedded_width
from reachlabel.crosslabel import (
    CLS_FRONT_MATCH,
    CLS_FRONT_REST,
    CLS_SECOND_MATCH,
    CLS_SECOND_REST,
    CLS_UPPER,
    MATCHED,
    assemble_cross,
    build_cross_labeling,
    CrossView,
    decode_cross,
    node_class,
    peel_cross,
)
from reachlabel.bitio import LabelReader, Widths, count_width
from reachlabel.flatten import build_superlayers
from reachlabel.graph import (
    Dag,
    Digraph,
    _iter_bits,
    longest_path_layers,
    transitive_closure,
)
from reachlabel.scheme import Pipeline


def peeled(n, edges, profile="force", gamma=None):
    lay = longest_path_layers(transitive_closure(Dag(n, edges)))
    sl = build_superlayers(lay, gamma=gamma)
    _, cross = group_split(lay, sl)
    return lay, sl, cross, peel_cross(lay, sl, profile=profile)


def edges_of(rows: dict[int, int]) -> set[tuple[int, int]]:
    return {(u, v) for u, m in rows.items() for v in _iter_bits(m)}


@st.composite
def closed_cases(draw, max_n=14):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    profile = draw(st.sampled_from(["paper", "force"]))
    return n, edges, profile


def test_complete_bipartite_two_groups_frozen():
    # two antichain layers forming a complete bipartite closure; gamma=4
    # makes each layer its own thick group, so every edge crosses groups
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    lay, sl, cross, peel = peeled(4, edges, gamma=4)
    assert [g.thick for g in sl.groups] == [True, True]
    assert peel.k == 2
    assert len(peel.records) == 1
    rec = peel.records[0]
    # the grower takes the whole K_{2,2} as one biclique: two pairs, no rest
    assert rec.bicliques == (((0, 1), (2, 3)),)
    assert rec.n_pairs == 2
    assert rec.front_match == (0, 1)
    assert rec.second_match == (2, 3)
    cls = [node_class(1, peel.entry[u], peel.removed_iter[u]) for u in range(4)]
    assert cls == [CLS_FRONT_MATCH, CLS_FRONT_MATCH, CLS_SECOND_MATCH, CLS_SECOND_MATCH]
    # one extraction consumes the whole cross edge set, all of it near
    near, far = edges_of(rec.near_rows), edges_of(rec.far_rows)
    assert near == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert far == set()
    assert peel.entry == (1, 1, 2, 2)
    assert peel.removed_iter == (1, 1, 1, 1)


def test_default_grouping_merges_the_same_graph():
    # under the default gamma the two layers land in one type-2 group,
    # so there are no cross edges at all
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    lay, sl, cross, peel = peeled(4, edges)
    assert sl.count == 1
    assert all(r == 0 for r in cross)
    assert peel.records == ()


@given(closed_cases())
@settings(max_examples=120, deadline=None)
def test_peel_consumes_cross_edges_exactly_once(case):
    n, edges, profile = case
    lay, sl, cross, peel = peeled(n, edges, profile=profile)
    _, cross_edges = split_edges(lay, sl)
    seen = []
    for rec in peel.records:
        near, far = edges_of(rec.near_rows), edges_of(rec.far_rows)
        assert near.isdisjoint(far)
        seen.extend(near)
        seen.extend(far)
    assert len(seen) == len(set(seen))  # nothing consumed twice
    assert set(seen) == cross_edges


@given(closed_cases())
@settings(max_examples=100, deadline=None)
def test_residual_stays_transitively_closed(case):
    n, edges, profile = case
    lay, sl, cross, peel = peeled(n, edges, profile=profile)
    # the live rows before iteration s: the cross rows minus every edge
    # consumed by iterations 1..s-1
    rows = list(cross)
    for rec in peel.records:
        assert is_transitively_closed(Digraph(n, rows=list(rows)))
        for consumed in (rec.near_rows, rec.far_rows):
            for u, m in consumed.items():
                assert rows[u] & m == m  # consumed edges were live
                rows[u] &= ~m
    assert not any(rows)


@given(closed_cases())
@settings(max_examples=100, deadline=None)
def test_iteration_budgets_follow_the_size_rules(case):
    n, edges, profile = case
    *_, peel = peeled(n, edges, profile=profile)
    for variant in ("third", "average"):
        cl = build_cross_labeling(peel, variant)
        for rec in cl.records:
            if rec.n_pairs == 0:
                assert rec.far_inst is None
                continue
            near = rec.near_inst
            assert near.a == near.b == rec.n_pairs
            assert near.alpha == near.beta == (rec.n_pairs + 1) // 2 + 1
            far = rec.far_inst
            assert far.a == rec.n_pairs
            assert far.b == len(rec.outside)
            if variant == "third":
                assert far.alpha == (2 * len(rec.live) - 3 * rec.n_pairs + 5) // 6
                assert far.beta == (2 * rec.n_pairs + 2) // 3
            else:
                assert far.alpha == 0
                assert far.beta == rec.n_pairs + 1


def test_unknown_variant_rejected():
    *_, peel = peeled(4, [(0, 2), (0, 3), (1, 2), (1, 3)], gamma=4)
    with pytest.raises(ValueError):
        build_cross_labeling(peel, "half")


@given(closed_cases(), st.sampled_from(["third", "average"]))
@settings(max_examples=100, deadline=None)
def test_blob_decode_matches_cross_membership(case, variant):
    n, edges, profile = case
    lay, sl, _, peel = peeled(n, edges, profile=profile)
    _, cross_edges = split_edges(lay, sl)
    cl = build_cross_labeling(peel, variant)
    parsed = []
    for u in range(n):
        blob = assemble_cross(cl, u)
        pc = CrossView(LabelReader(blob), 0, Widths(n), variant, cl.entry[u])
        assert pc.check() == len(blob)
        assert pc.k == cl.k
        assert pc.removed_iter == cl.removed_iter[u]
        parsed.append(pc)
    pos = lay.topo
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            got = decode_cross(parsed[u], parsed[v], pos[u], pos[v])
            assert got == ((u, v) in cross_edges), (u, v)


def test_blobs_hold_only_the_sections_a_query_reads():
    # a node's sections stop at min(removed_iter, k-1), and of the outside
    # nodes' far sections only an upper node's holds flags, one per biclique
    outside_secs = 0
    for g in mixed_corpus():
        pl = Pipeline(g)
        for profile in ("paper", "force"):
            for variant in ("third", "average"):
                cl = pl.cross_labeling(profile, variant)
                n, k = cl.n, cl.k
                for u in range(n):
                    m = min(cl.removed_iter[u], k - 1)
                    assert len(cl.sections[u]) == 2 * m
                    # m schedule entries and a biclique count for each of
                    # the node's upper iterations, then the sections
                    ups = max(0, min(cl.entry[u] - 2, m))
                    head = count_width(n) + count_width(k) + (m + ups) * count_width(n)
                    payload = sum(len(sec) for sec in cl.sections[u])
                    assert len(assemble_cross(cl, u)) == head + payload
                for rec in cl.records:
                    for v in rec.live:
                        if node_class(rec.s, cl.entry[v], cl.removed_iter[v]) == CLS_UPPER:
                            assert len(cl.sections[v][2 * rec.s - 2]) == 0
                    if not rec.n_pairs:
                        continue
                    fi = rec.far_inst
                    bare = embedded_width(fi.a + fi.b, fi.beta)
                    for v in rec.outside:
                        far = cl.sections[v][2 * rec.s - 1]
                        cls = node_class(rec.s, cl.entry[v], cl.removed_iter[v])
                        flags = len(rec.bicliques) if cls == CLS_UPPER else 0
                        assert len(far) == bare + flags
                        outside_secs += 1
    assert outside_secs > 0


def test_class_rule_matches_the_peeling():
    """``node_class``, from a node's entry group and retirement alone, gives
    the class the peeling assigns at every live (node, iteration). The
    peeling's front is group 1 and then whatever the last front and second
    group left unmatched, its second group is group s+1, every later group
    is upper, and a front or second node is matched when the iteration pairs
    it."""
    checked = 0
    for g in mixed_corpus():
        pl = Pipeline(g)
        inv = pl.layered.inv_topo
        groups = [set(inv[grp.beg : grp.end]) for grp in pl.slayer.groups]
        for profile in ("paper", "force"):
            peel = pl.peel(profile)
            front = groups[0]
            for rec in peel.records:
                s = rec.s
                second = groups[s]
                upper = set().union(*groups[s + 1 :])
                assert set(rec.live) == front | second | upper
                matched = set(rec.front_match) | set(rec.second_match)
                assert set(rec.front_match) <= front and set(rec.second_match) <= second
                for u in rec.live:
                    if u in upper:
                        want = CLS_UPPER
                    elif u in second:
                        want = CLS_SECOND_MATCH if u in matched else CLS_SECOND_REST
                    else:
                        want = CLS_FRONT_MATCH if u in matched else CLS_FRONT_REST
                    assert node_class(s, peel.entry[u], peel.removed_iter[u]) == want, (u, s)
                    checked += 1
                front = (front | second) - matched
    assert checked > 0


def test_schedule_gives_the_encoders_instance_sizes():
    """For every section of the corpus under both variants, the (a, b,
    alpha, beta) that a checked blob view derives from its pair schedule are
    those of the encoder's near and far instances, and a far section is
    empty exactly when its iteration matched no pair. A record read lazily,
    field group by field group, holds what the check walk stored."""

    def sizes(x):
        return x.a, x.b, x.alpha, x.beta

    checked = 0
    for g in mixed_corpus():
        pl = Pipeline(g)
        for profile in ("paper", "force"):
            for variant in ("third", "average"):
                cl = pl.cross_labeling(profile, variant)
                wd = Widths(cl.n)
                views, blobs = [], []
                for u in range(cl.n):
                    blob = assemble_cross(cl, u)
                    cv = CrossView(LabelReader(blob), 0, wd, variant, cl.entry[u])
                    assert cv.check() == len(blob)
                    views.append(cv)
                    blobs.append(blob)
                for rec in cl.records:
                    for u in rec.live:
                        it = views[u].iteration(rec.s)
                        if u in rec.front_match or u in rec.second_match:
                            assert it.near[2] == sizes(rec.near_inst)
                            assert it.bic < len(rec.bicliques)
                        assert it.is_empty == (rec.n_pairs == 0)
                        if rec.n_pairs:
                            assert it.far[2] == sizes(rec.far_inst)
                        # the same fields, read for one query
                        lazy = CrossView(LabelReader(blobs[u]), 0, wd, variant,
                                         cl.entry[u]).iteration(rec.s)
                        assert lazy.far is lazy.bic is None
                        if it.inf in MATCHED:
                            assert lazy.near is None and lazy.read_near() == it.near
                        else:  # a rest set is read as its record is built
                            assert lazy.near == it.near
                        if rec.n_pairs:
                            assert lazy.read_far() == it.far
                            if it.inf in MATCHED:
                                assert lazy.read_bic() == it.bic
                        checked += 1
    assert checked > 0


@dataclass
class _StubIteration:
    inf: int = CLS_UPPER
    is_empty: bool = True


class _StubLabel:
    k = 10  # both stubs come from one labeling

    def __init__(self, entry, removed_iter, log):
        self.entry = entry
        self.removed_iter = removed_iter
        self._log = log

    def iteration(self, s):
        self._log.append(s)
        return _StubIteration()


@pytest.mark.parametrize(
    "entry_u,entry_v,removed_u,expect_s",
    [
        (1, 2, 9, 1),   # v entered at 2, u never removed: answer at s=1
        (1, 5, 2, 2),   # u removed early: its last live iteration answers
        (1, 5, 7, 4),   # u outlives v's entry: entry(v)-1 answers
    ],
)
def test_answering_iteration_choice(entry_u, entry_v, removed_u, expect_s):
    log = []
    lu = _StubLabel(entry_u, removed_u, log)
    lv = _StubLabel(entry_v, 9, log)
    assert decode_cross(lu, lv, 0, 1) is False
    # both labels fetch their sections of the same iteration
    assert log == [expect_s] * 2


def test_wrong_direction_answers_false_without_probing():
    log = []
    lu = _StubLabel(3, 9, log)
    lv = _StubLabel(2, 9, log)
    assert decode_cross(lu, lv, 5, 1) is False
    assert log == []
