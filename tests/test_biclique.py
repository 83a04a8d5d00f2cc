from __future__ import annotations

import math
import random

from helpers import ref_find_bicliques
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachlabel.biclique import (
    BicliqueDecomposition,
    _plane_add,
    _plane_sub,
    big_threshold,
    build_n_rest,
    find_bicliques,
    get_profile,
    grow_biclique,
)
from reachlabel.graph import _iter_bits


def rows_of(a_nodes, edges) -> list[int]:
    """One node-id mask of B neighbors per A node, in ``a_nodes`` order."""
    rows = dict.fromkeys(a_nodes, 0)
    for a, b in edges:
        rows[a] |= 1 << b
    return [rows[a] for a in a_nodes]


def test_profiles():
    paper = get_profile("paper")
    force = get_profile("force")
    assert paper.c_min == 64
    assert force.c_min == 2
    assert get_profile(paper) is paper  # idempotent lookup
    try:
        get_profile("nope")
    except ValueError:
        pass
    else:
        raise AssertionError("unknown profile accepted")


def test_force_profile_ignores_density():
    force = get_profile("force")
    assert force.density_ok(100, 1)
    assert not force.density_ok(100, 0)
    paper = get_profile("paper")
    assert paper.density_ok(100, 10000)
    # the strict profile's threshold w^2/log2(w)^6 only exceeds 1 for large node sets
    assert not paper.density_ok(1024, 1)
    assert not paper.density_ok(1, 1)


def test_complete_bipartite_frozen():
    # K_{4,4} under the force profile: the grower takes all of it at once,
    # and the empty graph left stops the loop at the size floor.
    rows = [0b11110000] * 4
    dec = find_bicliques([0, 1, 2, 3], [4, 5, 6, 7], rows, get_profile("force"), n_ref=8)
    assert dec.bicliques == (((0, 1, 2, 3), (4, 5, 6, 7)),)
    assert dec.a_rest == dec.b_rest == ()
    assert dec.rest == {}
    assert dec.rest_edges == frozenset()
    assert dec.termination == "size"


def test_paper_profile_small_graph_all_rest():
    # below c_min=64 live nodes nothing is extracted
    edges = frozenset((u, v) for u in range(4) for v in range(4, 8))
    dec = find_bicliques(
        [0, 1, 2, 3], [4, 5, 6, 7], rows_of(range(4), edges), get_profile("paper"), n_ref=8
    )
    assert dec.bicliques == ()
    assert dec.rest_edges == edges


def test_rows_outside_the_b_side_are_rejected():
    # a neighbor beyond or below the B side, and one row too few or too many
    for a_nodes, rows in (([0], [1 << 2]), ([0], [1 << 0]), ([0], []), ([], [0])):
        try:
            find_bicliques(a_nodes, [1], rows, "force", n_ref=4)
        except ValueError:
            pass
        else:
            raise AssertionError(f"rows {rows} for A side {a_nodes} accepted")
    assert find_bicliques([], [1], [], "force", n_ref=4).b_rest == (1,)


def test_grower_ties_go_to_the_lower_rank():
    # A ranks 1 and 2 tie at degree 4, and the stripping loop seeds with 1
    # (checked by its first biclique below). Ranks 0 and 3 then tie at two
    # common neighbors and the grower adds 0: K(2, 2) over B ranks 0 and 1,
    # where rank 3 would have given B ranks 2 and 3.
    arows = {0: 0b0011, 1: 0b1111, 2: 0b1111_0000, 3: 0b1100}
    bcols = {b: sum(1 << a for a, row in arows.items() if row >> b & 1) for b in range(8)}
    assert grow_biclique(arows, bcols, 1) == ((0, 1), (0, 1))
    # the same graph by node ids, B node j + 10 for B rank j
    rows = [sum(1 << (10 + b) for b in range(8) if row >> b & 1) for row in arows.values()]
    dec = find_bicliques(list(arows), list(range(10, 18)), rows, "force", n_ref=4)
    assert dec.bicliques[0] == ((0, 1), (10, 11))


@given(
    st.lists(st.integers(min_value=0, max_value=2**40 - 1), min_size=1, max_size=24),
    st.lists(st.integers(min_value=0, max_value=2**24 - 1), min_size=1, max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_plane_counters_count_common_neighbors(cols, commons):
    """After each add and subtract, the count the planes hold for every A
    rank a is (common & arows[a]).bit_count(), its common neighbors;
    ``commons`` is the sequence of common-neighbor masks over the B ranks."""
    arows = [sum((col >> a & 1) << b for b, col in enumerate(cols)) for a in range(40)]
    planes: list[int] = []
    common = 0
    for want in commons:
        want &= (1 << len(cols)) - 1
        for b in _iter_bits(common & ~want):
            _plane_sub(planes, cols[b])
        for b in _iter_bits(want & ~common):
            _plane_add(planes, cols[b])
        common = want
        for a, row in enumerate(arows):
            got = sum((p >> a & 1) << i for i, p in enumerate(planes))
            assert got == (common & row).bit_count(), a


@st.composite
def bipartite_graphs(draw, max_side=36):
    """Sides of 1..max_side nodes with shuffled, gapped ids and a drawn edge
    density. Lopsided sides give the grower few A nodes to add against many
    common neighbors, or many A nodes against few."""
    a = draw(st.integers(min_value=1, max_value=max_side))
    b = draw(st.integers(min_value=1, max_value=max_side))
    p = draw(st.sampled_from([0.05, 0.2, 0.5, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    ids = rng.sample(range(2 * (a + b)), a + b)
    a_nodes, b_nodes = ids[:a], ids[a:]
    edges = frozenset((u, v) for u in a_nodes for v in b_nodes if rng.random() < p)
    return a_nodes, b_nodes, edges


@given(bipartite_graphs(), st.sampled_from(["paper", "force"]))
@settings(max_examples=150, deadline=None)
def test_decomposition_partitions_edges(case, profile):
    a_nodes, b_nodes, edges = case
    dec = find_bicliques(
        a_nodes, b_nodes, rows_of(a_nodes, edges), get_profile(profile), n_ref=20
    )
    matched_a = [u for sa, _ in dec.bicliques for u in sa]
    matched_b = [v for _, sb in dec.bicliques for v in sb]
    # matched and rest nodes partition each side
    assert sorted(matched_a + list(dec.a_rest)) == sorted(a_nodes)
    assert sorted(matched_b + list(dec.b_rest)) == sorted(b_nodes)
    assert len(set(matched_a)) == len(matched_a)
    assert len(set(matched_b)) == len(matched_b)
    # every biclique is complete and its sides are equal-sized
    for sa, sb in dec.bicliques:
        assert len(sa) == len(sb) >= 1
        for u in sa:
            for v in sb:
                assert (u, v) in edges
    # the rest edges are exactly the edges among unmatched nodes
    rest_a, rest_b = set(dec.a_rest), set(dec.b_rest)
    assert dec.rest_edges == frozenset(
        (u, v) for u, v in edges if u in rest_a and v in rest_b
    )
    # and the rest masks hold them from both ends
    assert set(dec.rest) == rest_a | rest_b
    assert dec.rest_edges == frozenset(
        (u, v) for v in dec.b_rest for u in _iter_bits(dec.rest[v])
    )


def complete(a_nodes, b_nodes):
    return a_nodes, b_nodes, frozenset((a, b) for a in a_nodes for b in b_nodes)


@given(bipartite_graphs(), st.sampled_from(["paper", "force"]))
@settings(max_examples=150, deadline=None)
@example(complete([0, 1], list(range(2, 40))), "force")
@example(complete(list(range(2, 40)), [0, 1]), "force")
# extracting ((0,), (2,)) leaves B node 3 live with degree 0, for the rest
@example(([0, 1], [2, 3, 4], frozenset({(0, 2), (0, 3), (1, 4)})), "force")
# a perfect matching: each round grows no further than its seed's K(1, 1)
@example((list(range(13)), list(range(13, 26)), frozenset((i, 13 + i) for i in range(13))), "force")
def test_mask_finder_matches_set_reference(case, profile):
    """Same bicliques, rest sides, rest edges and stop as the set-based finder,
    on graphs up to w = 72."""
    a_nodes, b_nodes, edges = case
    dec = find_bicliques(a_nodes, b_nodes, rows_of(a_nodes, edges), profile, n_ref=20)
    want = ref_find_bicliques(a_nodes, b_nodes, edges, profile, n_ref=20)
    got = (dec.bicliques, dec.a_rest, dec.b_rest, dec.rest_edges, dec.termination)
    assert got == want


@given(bipartite_graphs(), st.sampled_from(["paper", "force"]))
@settings(max_examples=100, deadline=None)
def test_rest_map_covers_every_rest_edge(case, profile):
    a_nodes, b_nodes, edges = case
    dec = find_bicliques(
        a_nodes, b_nodes, rows_of(a_nodes, edges), get_profile(profile), n_ref=20
    )
    nr = build_n_rest(dec)
    for u, v in dec.rest_edges:
        assert nr[u] >> v & 1 or nr[v] >> u & 1, (u, v)
    # kept neighborhoods never invent edges
    und = {frozenset(e) for e in dec.rest_edges}
    for u in dec.a_rest + dec.b_rest:
        for v in _iter_bits(nr[u]):
            assert frozenset((u, v)) in und


def test_rest_map_density_termination_thresholds():
    # force a density stop: sparse edges on a large node set, paper profile
    a_nodes = list(range(70))
    b_nodes = list(range(70, 140))
    edges = frozenset({(0, 70), (1, 71), (2, 72)})
    dec = find_bicliques(
        a_nodes, b_nodes, rows_of(a_nodes, edges), get_profile("paper"), n_ref=140
    )
    assert dec.termination == "density"
    nr = build_n_rest(dec)
    assert big_threshold(dec.n_ref) == 140 / math.log2(140) ** 3
    for u, v in dec.rest_edges:
        assert nr[u] >> v & 1 or nr[v] >> u & 1


def test_density_stop_keeps_big_neighbors_of_big_nodes():
    # n_ref = 1024 puts the big threshold at 1024 / 10^3: nodes with two or
    # more rest edges are big and keep only their big neighbors
    assert 1 < big_threshold(1024) < 2
    rest = {0: 0b1100, 1: 0b0100, 2: 0b0011, 3: 0b0001}
    dec = BicliqueDecomposition((), (0, 1), (2, 3), rest, "density", 1024, get_profile("paper"))
    assert build_n_rest(dec) == {0: 0b0100, 1: 0b0100, 2: 0b0001, 3: 0b0001}
    assert build_n_rest(BicliqueDecomposition(
        (), (0, 1), (2, 3), rest, "size", 1024, get_profile("paper")
    )) == rest
