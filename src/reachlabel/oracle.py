"""Ground-truth harness: graph generators, verification, corruption.

All randomness flows through ``random.Random(seed)`` (the stdlib Mersenne
Twister) in a documented draw order, so a (kind, n, p, seed) tuple pins one
graph forever. The draw order below is fixed (tests pin a digest of each
kind's rows, and check every kind against a reference that makes one
``rng.random()`` call per pair). A "draw" is one ``rng.random()`` value and
keeps its edge when it is below p:

  digraph  one draw per ordered pair (u, v), u != v, row-major.
  dag      rng.shuffle of range(n) giving each node a rank, then one draw
           per unordered pair u < v (row-major); kept edges point from the
           lower-ranked endpoint to the higher-ranked one. Rank order
           is the DAG's topological order, so no condensation pass runs.
  poset    the dag construction followed by transitive closure.
  layered  one rng.randrange(layer_count) per node in id order, then one
           draw per ordered pair with layer(u) < layer(v), row-major.

A row's k draws are taken as one ``rng.getrandbits(64 * k)``, which reads
the Mersenne Twister exactly as k ``random()`` calls do; a draw is below p
iff its 53-bit integer is below ceil(p * 2**53) (see ``_draws``). Each
row's kept pairs become its bitmask row a row at a time, with no edge
list in between. The dag kinds draw ``BLOCK`` rows into a byte block and
read each later node's pairs with those rows from it by column.

``verify`` replays every ordered query against the BFS oracle; the
corruption helpers flip a single stored bit that some query provably reads
and must make at least one query come out wrong. Which bits those are, the
decoder itself records (``probeable_table_bits`` logs its table probes over
the c² − c queries between the c components' labels).
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from functools import cache
from itertools import compress, permutations

from .bitio import BitString, read_fixed
from .graph import Dag, Digraph, bytes_mask, reach_rows, transitive_closure
from .scheme import LabelSet, LabelView, encode, parse_label, query

KINDS = ("dag", "digraph", "poset", "layered")

EXHAUSTIVE_LIMIT = 2000
"""Largest n verified over all ordered pairs; beyond this, sample."""
SAMPLE_PAIRS = 200_000
SAMPLE_SEED = 0


@dataclass(frozen=True)
class GenSpec:
    """Reproducible recipe for one random graph."""

    kind: str
    n: int
    p: float
    seed: int
    layer_count: int | None = None


# rows of the dag/poset draw held at once as 0/1 bytes, n per row; the
# transposed half of every later row is read from them by column
BLOCK = 256

_WORDS = struct.Struct("<II")


@cache
def _top_table(top: int) -> bytes:
    """Verdict of a draw by the top byte of its first word: 1 (kept) below
    ``top``, 2 (read all 53 bits) at it, 0 (dropped) above."""
    return bytes(1 if b < top else 2 if b == top else 0 for b in range(256))


def _draws(getrandbits, k: int, t: int) -> bytes:
    """0/1 flags of the next k draws ``random() < p``, for t = ceil(p * 2**53).

    ``getrandbits(64 * k)`` takes the 2k words that k ``random()`` calls
    would, lowest first, so bytes 8j..8j+7 hold draw j's words w0 and w1,
    each little-endian, and random() is X / 2**53 for X = (w0 >> 5) << 26 |
    w1 >> 6. X < t decides the draw; byte 8j+3 is X >> 45, so one translate
    decides every draw whose top byte differs from t >> 45 and the rest
    (about 1 in 256) are read whole."""
    data = getrandbits(k << 6).to_bytes(k << 3, "little")
    flags = data[3::8].translate(_top_table(t >> 45))
    j = flags.find(2)
    if j < 0:
        return flags
    flags = bytearray(flags)
    while j >= 0:
        w0, w1 = _WORDS.unpack_from(data, j << 3)
        flags[j] = (w0 >> 5 << 26 | w1 >> 6) < t
        j = flags.find(2, j + 1)
    return flags


def generate(spec: GenSpec) -> Digraph:
    if spec.kind not in KINDS:
        raise ValueError(f"unknown graph kind {spec.kind!r}")
    if spec.n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= spec.p <= 1.0:
        raise ValueError("edge density must be in [0, 1]")
    if spec.layer_count is not None:
        if spec.kind != "layered":
            raise ValueError(f"a layer count applies to kind 'layered', not {spec.kind!r}")
        if spec.layer_count < 1:
            raise ValueError("layer count must be at least 1")
    rng = random.Random(spec.seed)
    bits = rng.getrandbits
    t = math.ceil(spec.p * 2.0**53)
    n = spec.n

    if spec.kind == "digraph":
        rows = []
        for u in range(n):
            flags = _draws(bits, n - 1, t)
            rows.append(bytes_mask(flags[:u] + b"\0" + flags[u:]))
        return Digraph(n, rows=rows)

    if spec.kind in ("dag", "poset"):
        rank = list(range(n))
        rng.shuffle(rank)
        order = [0] * n  # nodes by rank: every edge ascends it
        for u, r in enumerate(rank):
            order[r] = u
        rows = [0] * n
        for b0 in range(0, n, BLOCK):
            b1 = min(b0 + BLOCK, n)
            block = bytearray((b1 - b0) * n)
            for u in range(b0, b1):
                at = (u - b0) * n
                flags = _draws(bits, n - u - 1, t)
                block[at + u + 1 : at + n] = flags
                rows[u] |= bytes_mask(flags) << u + 1
            for v in range(b0 + 1, n):
                col = block[v::n]
                if 1 in col:
                    rows[v] |= bytes_mask(col) << b0
            # the block's rows by falling rank: the nodes ranked above each
            # are those above the one before plus the ranks in between
            above, hi = bytearray(n + 7 >> 3), n
            for u in sorted(range(b0, b1), key=rank.__getitem__, reverse=True):
                for x in order[rank[u] + 1 : hi]:
                    above[x >> 3] |= 1 << (x & 7)
                hi = rank[u] + 1
                rows[u] &= int.from_bytes(above, "little")
        d = Dag(n, rows=rows, order=order)
        return d if spec.kind == "dag" else transitive_closure(d)

    layer_count = spec.layer_count or max(2, round(n**0.5))
    lay = [rng.randrange(layer_count) for _ in range(n)]
    ids = list(range(n))
    higher = {}  # layer value -> the nodes of higher layers, ascending
    rows = []
    for u in range(n):
        lu = lay[u]
        cand = higher.get(lu)
        if cand is None:
            cand = higher[lu] = list(compress(ids, map(lu.__lt__, lay)))
        row = bytearray(n)
        for v in compress(cand, _draws(bits, len(cand), t)):
            row[v] = 1
        rows.append(bytes_mask(row))
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
) -> VerifyReport:
    """Compare decode against the BFS oracle over ordered pairs.

    ``label_bits`` substitutes pre-built (possibly tampered) labels for a
    fresh encode; past EXHAUSTIVE_LIMIT nodes, SAMPLE_PAIRS pairs drawn
    with seed SAMPLE_SEED are checked instead.
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
        rng = random.Random(SAMPLE_SEED)
        pairs_checked = SAMPLE_PAIRS
        for _ in range(SAMPLE_PAIRS):
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
    """(node, bit offset, stored value) for each label bit some query reads,
    sorted by node and offset.

    The decoder names them: each distinct label is checked once, at the
    smallest node that holds it, with its view keeping the offset of every
    ``table_bit`` probe (``LabelView.probes``), and ``query`` runs over
    every ordered pair of distinct labels, c² − c queries for c components.
    That covers the warm-up windows, the interval tables, both sides' pair
    tables and an upper node's flags, at the slots some query reaches.
    Set-membership payloads are read by counted reads, not probes, and stay
    out: a flipped key or size also moves the binary search for other keys,
    so one flip is not pinned to one query.
    """
    labels = ls.labels
    views = {}
    for bits in dict.fromkeys(labels):
        lab = views[labels.index(bits)] = LabelView(bits)
        lab.probes = set()  # before the walk, whose blob reader shares it
        lab.check()
    for lu, lv in permutations(views.values(), 2):
        query(lu, lv)
    return [
        (u, off, read_fixed(labels[u], off, 1))
        for u, lab in views.items()
        for off in sorted(lab.probes)
    ]


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
