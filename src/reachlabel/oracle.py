"""Ground-truth harness: graph generators, verification, corruption.

All randomness flows through ``random.Random(seed)`` (the stdlib Mersenne
Twister) in a documented draw order, so a (kind, n, p, seed) tuple pins one
graph forever. The draw order below is fixed (tests pin a digest of each
kind's rows); each kept edge sets one bit of its source's bitmask row as it
is drawn, with no edge list in between:

  digraph  one rng.random() per ordered pair (u, v), u != v, row-major;
           edge kept when the draw is below p.
  dag      rng.shuffle of range(n) giving each node a rank, then one draw
           per unordered pair u < v (row-major); kept edges point from the
           lower-ranked endpoint to the higher-ranked one. Rank order
           is the DAG's topological order, so no Kahn pass runs.
  poset    the dag construction followed by transitive closure.
  layered  one rng.randrange(layer_count) per node in id order, then one
           draw per ordered pair with layer(u) < layer(v), row-major.

``verify`` replays every ordered query against the BFS oracle; the
corruption helpers flip a single stored bit that some query provably reads
and must make at least one query come out wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bipartite import ceil_div, index_pair
from .bitio import BitString, LabelHeader, count_width, index_width, read_fixed
from .crosslabel import (
    CLASS_BITS,
    CLS_FRONT_REST,
    CLS_SECOND_REST,
    CLS_UPPER,
    RATE_BITS,
)
from .graph import Dag, Digraph, reach_rows, transitive_closure
from .scheme import SCHEME_IDS, LabelSet, encode, parse_label, query

KINDS = ("dag", "digraph", "poset", "layered")

EXHAUSTIVE_LIMIT = 2000
"""Largest n verified over all ordered pairs; beyond this, sample."""


@dataclass(frozen=True)
class GenSpec:
    """Reproducible recipe for one random graph."""

    kind: str
    n: int
    p: float
    seed: int
    layer_count: int | None = None


def generate(spec: GenSpec) -> Digraph:
    if spec.kind not in KINDS:
        raise ValueError(f"unknown graph kind {spec.kind!r}")
    if spec.n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= spec.p <= 1.0:
        raise ValueError("edge density must be in [0, 1]")
    if spec.layer_count is not None and spec.layer_count < 1:
        raise ValueError("layer count must be at least 1")
    rng = random.Random(spec.seed)
    rnd = rng.random
    p = spec.p
    n = spec.n
    rows = [0] * n

    if spec.kind == "digraph":
        for u in range(n):
            for v in range(n):
                if u != v and rnd() < p:
                    rows[u] |= 1 << v
        return Digraph(n, rows=rows)

    if spec.kind in ("dag", "poset"):
        rank = list(range(n))
        rng.shuffle(rank)
        for u in range(n):
            ru = rank[u]
            for v in range(u + 1, n):
                if rnd() < p:
                    if ru < rank[v]:
                        rows[u] |= 1 << v
                    else:
                        rows[v] |= 1 << u
        order = [0] * n  # nodes by rank: every edge ascends it
        for u, r in enumerate(rank):
            order[r] = u
        d = Dag(n, rows=rows, order=order)
        return d if spec.kind == "dag" else transitive_closure(d)

    layer_count = spec.layer_count or max(2, round(n**0.5))
    lay = [rng.randrange(layer_count) for _ in range(n)]
    for u in range(n):
        lu = lay[u]
        for v in range(n):
            if lu < lay[v] and rnd() < p:
                rows[u] |= 1 << v
    return Digraph(n, rows=rows)


@dataclass(frozen=True)
class VerifyReport:
    scheme: str
    profile: str
    n: int
    pairs_checked: int
    mismatches: int
    examples: tuple[tuple[int, int, bool, bool], ...]
    max_bits: int
    mean_bits: float

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def verify(
    g: Digraph,
    scheme: str,
    profile: str = "paper",
    *,
    label_bits: list[BitString] | None = None,
    sample_pairs: int = 200_000,
    sample_seed: int = 0,
) -> VerifyReport:
    """Compare decode against the BFS oracle over ordered pairs.

    ``label_bits`` substitutes pre-built (possibly tampered) labels for a
    fresh encode; sampling kicks in past EXHAUSTIVE_LIMIT nodes.
    """
    if label_bits is None:
        label_bits = encode(g, scheme, profile).labels
    n = g.n
    truth = reach_rows(g)
    parsed = [parse_label(b) for b in label_bits]
    lens = [len(b) for b in label_bits]
    mismatches = 0
    examples: list[tuple[int, int, bool, bool]] = []

    def run(u: int, v: int) -> None:
        nonlocal mismatches
        got = query(parsed[u], parsed[v])
        want = bool(truth[u] >> v & 1)
        if got != want:
            mismatches += 1
            if len(examples) < 5:
                examples.append((u, v, got, want))

    if n <= EXHAUSTIVE_LIMIT:
        pairs_checked = n * n
        for u in range(n):
            for v in range(n):
                run(u, v)
    else:
        rng = random.Random(sample_seed)
        pairs_checked = sample_pairs
        for _ in range(sample_pairs):
            run(rng.randrange(n), rng.randrange(n))

    return VerifyReport(
        scheme=scheme,
        profile=profile,
        n=n,
        pairs_checked=pairs_checked,
        mismatches=mismatches,
        examples=tuple(examples),
        max_bits=max(lens, default=0),
        mean_bits=sum(lens) / len(lens) if lens else 0.0,
    )


def report_lines(rep: VerifyReport) -> list[str]:
    lines = [
        f"scheme={rep.scheme}",
        f"profile={rep.profile}",
        f"n={rep.n}",
        f"pairs_checked={rep.pairs_checked}",
        f"mismatches={rep.mismatches}",
        f"max_bits={rep.max_bits}",
        f"mean_bits={rep.mean_bits:.3f}",
    ]
    for u, v, got, want in rep.examples:
        lines.append(f"example={u},{v},got={got},want={want}")
    return lines


def flip_bit(bits: BitString, i: int) -> BitString:
    """Copy of ``bits`` with bit ``i`` inverted (MSB-first numbering)."""
    if not 0 <= i < len(bits):
        raise ValueError(f"bit {i} out of range {len(bits)}")
    return BitString(bits.value ^ 1 << (bits.length - 1 - i), bits.length)


# -- single-bit corruption inventory -----------------------------------------


def probeable_table_bits(ls: LabelSet) -> list[tuple[int, int, int]]:
    """(node, bit offset, stored value) for label bits some query reads.

    Covers the warm-up window bits, interval-table bits, pair-table bits on
    both sides, and the routing flags of the cross sections. Excluded, with
    the reason each is unreachable or not single-bit-attributable:

      * padding past the far side's size (the probe index is reduced mod the
        side size, so tail bits are never addressed),
      * a node's own slot in its interval table, and warm-up window slots
        past the first index of a component (no query lands there),
      * slots whose dispatch never reaches this copy of a pair table (the
        class pair decodes false structurally, or the routing flag sends the
        probe to the other copy, or the other side's window answers first),
      * the wrapped half-window slot that the opposite window owns when n
        is even,
      * set-membership payloads (a flipped key or size also moves the
        binary search for other keys, so one flip is not pinned to one
        query).

    Bits are found per component and reported at its smallest member.
    Every returned offset is re-read from the serialized label and checked
    against the encoder's structures, so the arithmetic here cannot drift
    from the layout.
    """
    pl = ls.pipeline
    if pl is None:
        raise ValueError("label set was not built with its pipeline attached")
    out: list[tuple[int, int, int]] = []
    if ls.n == 0:
        return out
    lead = pl.scc.leaders
    inv = pl.layered.inv_topo
    fixed = LabelHeader.HEADER_FIXED_BITS
    labels = ls.labels

    def emit(c: int, off: int, want: int) -> None:
        u = lead[c]
        got = read_fixed(labels[u], off, 1)
        assert got == want, "bit inventory drifted from the label layout"
        out.append((u, off, got))

    if ls.scheme_id == SCHEME_IDS["warmup"]:
        n = ls.n
        half = n // 2
        wrap_dead = (n + 1) // 2 - 1
        warm = pl.warm_labels
        base = fixed + 2 * index_width(n)
        starts = {warm[u].index for u in lead}
        for c, u in enumerate(lead):
            iu = warm[u].index
            for j in range(half):
                t = iu + j + 1
                if t >= n and j >= wrap_dead or t % n not in starts:
                    continue
                emit(c, base + j, warm[u].table >> j & 1)
        return out

    if ls.cross is None:
        raise ValueError("label set carries no cross labeling")
    cl = pl.cross_labeling(ls.cross.profile, ls.cross.variant)
    n = cl.n
    iw = index_width(n)
    cw = count_width(n)
    inner = pl.inner_labels
    intra_off = fixed + 2 * LabelHeader.OFFSET_BITS + iw
    tab_off = intra_off + 3 * iw + cw + 1

    for c, u in enumerate(lead):
        gl = inner[u]
        if gl.thick:
            continue
        for j in range(gl.end - gl.beg):
            if inv[gl.beg + j] != c:
                emit(c, tab_off + j, gl.table >> j & 1)

    # absolute start offset of every blob section, per component
    k = cl.k
    cwk = count_width(k)
    emb_head = iw + 4 * cw
    sec_starts: list[list[int]] = []
    for c, u in enumerate(lead):
        gl = inner[u]
        blob_off = tab_off + (0 if gl.thick else gl.end - gl.beg)
        secs = cl.sections[c]
        ow = count_width(sum(len(b) for b in secs))
        acc = [blob_off + cw + RATE_BITS + 2 * cwk + (2 * (k - 1) + 1) * ow]
        for sec in secs:
            acc.append(acc[-1] + len(sec))
        sec_starts.append(acc)

    for rec in cl.records:
        idx_near = 2 * (rec.s - 1)
        idx_far = idx_near + 1
        ni, fi = rec.near_inst, rec.far_inst
        if ni is not None:
            fm, sm = rec.front_match, rec.second_match
            a_n, b_n, al_n, be_n = ni.a, ni.b, ni.alpha, ni.beta
            for r_a, u in enumerate(fm):
                toff = sec_starts[u][idx_near] + CLASS_BITS + emb_head
                base = ceil_div(b_n * r_a, a_n)
                for i in range(min(al_n, b_n)):
                    ib = (base + i) % b_n
                    emit(u, toff + i, ni.rows[r_a] >> ib & 1)
            for r_b, v in enumerate(sm):
                toff = sec_starts[v][idx_near] + CLASS_BITS + emb_head
                base = ceil_div(a_n * r_b, b_n)
                for j in range(min(be_n, a_n)):
                    ia = (base + j) % a_n
                    i_probe, _ = index_pair(ia, r_b, a_n, b_n)
                    if i_probe < al_n:
                        continue  # the A-side window answers this pair
                    emit(v, toff + j, ni.rows[ia] >> r_b & 1)
        if fi is not None:
            outside = rec.outside
            pairs = rec.pairs
            a_f, b_f, al_f, be_f = fi.a, fi.b, fi.alpha, fi.beta
            for j_p, (a_j, b_j) in enumerate(pairs):
                base = ceil_div(b_f * j_p, a_f)
                bic = rec.pair_bic[j_p]
                for holder, is_first_copy in ((a_j, True), (b_j, False)):
                    toff = (
                        sec_starts[holder][idx_far] + CLASS_BITS + iw + emb_head
                    )
                    for i in range(min(al_f, b_f)):
                        ib = (base + i) % b_f
                        v = outside[ib]
                        cv = rec.cls[v]
                        flagged = rec.via_second[v] >> bic & 1
                        if is_first_copy:
                            live = cv == CLS_SECOND_REST or (
                                cv == CLS_UPPER and not flagged
                            )
                        else:
                            live = cv == CLS_FRONT_REST or (
                                cv == CLS_UPPER and flagged
                            )
                        if live:
                            emit(holder, toff + i, fi.rows[j_p] >> ib & 1)
            n_bic = len(rec.bicliques)
            for r_o, v in enumerate(outside):
                cv = rec.cls[v]
                toff = sec_starts[v][idx_far] + CLASS_BITS + emb_head
                base = ceil_div(a_f * r_o, b_f)
                for j in range(min(be_f, a_f)):
                    ia = (base + j) % a_f
                    i_probe, _ = index_pair(ia, r_o, a_f, b_f)
                    if i_probe < al_f:
                        continue  # the matched side's window answers this pair
                    emit(v, toff + j, fi.rows[ia] >> r_o & 1)
                if cv == CLS_UPPER:
                    floff = toff + be_f
                    for bi in range(n_bic):
                        emit(v, floff + bi, rec.via_second[v] >> bi & 1)
    return out


def corruption_trial(
    g: Digraph, scheme: str, profile: str, trial_seed: int
) -> VerifyReport:
    """Flip one uniformly chosen probeable bit and re-verify.

    A correct encoder/decoder pair must report at least one mismatch.
    """
    ls = encode(g, scheme, profile)
    inventory = probeable_table_bits(ls)
    if not inventory:
        raise ValueError("graph has no probeable table bits; pick a richer one")
    node, off, _ = inventory[random.Random(trial_seed).randrange(len(inventory))]
    tampered = list(ls.labels)
    tampered[node] = flip_bit(tampered[node], off)
    return verify(g, scheme, profile, label_bits=tampered)
