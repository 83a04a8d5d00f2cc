"""Command-line surface: generate, encode, query, stats, verify.

Graph files are plain text: a first line "n m", then m lines "u v" with
0-based node ids. The reader takes the edge lines in bounded chunks. A
chunk is taken whole when it is ASCII, every line is two digit runs split
by one space and ended by a newline, every id is canonical and in range,
and no edge repeats one read before. Any other chunk (blank, padded or
tab-separated lines, a last line with no newline, non-ASCII text) is read
one line at a time, so an error names the first bad line and duplicate
edges warn in file order. Label files use the binary RLBL layout from
bitio. Exit codes: 0 success, 1 verification mismatch, 2 usage or format
error.
"""

from __future__ import annotations

import argparse
import sys
from functools import reduce
from itertools import compress, groupby, islice
from operator import or_

from .biclique import PROFILES
from .bitio import read_label_file, read_labels_at, write_label_file
from .graph import Digraph, bytes_mask
from .oracle import KINDS, GenSpec, generate, report_lines, verify
from .scheme import (
    SCHEME_IDS,
    SCHEME_NAMES,
    LabelSet,
    encode,
    parse_label,
    query,
    stats,
)

# size hint, in characters, of one chunk of edge lines: the reader holds one
# chunk at a time, so its memory does not grow with the file
READ_CHUNK = 1 << 16

# the bit offsets set in each byte value, lowest first
_BYTE_BITS = [tuple(j for j in range(8) if b >> j & 1) for b in range(256)]

# a run of k targets among n nodes is dense when k * DENSE_RUN >= n: its mask
# is scattered into one byte per node (O(n + k) work), not ORed from k
# shifted bits (up to k n-bit ints)
DENSE_RUN = 16


class GraphFormatError(ValueError):
    pass


class _NodeIds(dict):
    """str(v) -> v for the ids 0 <= v < n, made on first use: the first
    lookup of an id fills the entries of its block of 256 ids, so the table
    grows with the ids read, not with n. A key that is not a canonical,
    in-range ASCII id raises KeyError."""

    def __init__(self, n: int):
        super().__init__()
        self.n, self.width = n, len(str(n))

    def __missing__(self, key: str) -> int:
        if len(key) <= self.width and key.isascii() and key.isdigit():
            v = int(key)
            if v < self.n and str(v) == key:
                block = range(v >> 8 << 8, min((v >> 8) + 1 << 8, self.n))
                self.update(zip(map(str, block), block))
                return v
        raise KeyError(key)


def read_graph_file(path: str) -> Digraph:
    """Parse "n m" + edge lines into bitmask rows; duplicates warn, the
    first malformed line raises. Each chunk of edge lines is taken whole by
    _take_chunk when it is ASCII "u v" lines, each ended by a newline, with
    canonical in-range ids and no duplicate edge, and otherwise line by line
    by _read_lines."""
    with open(path, "r", encoding="utf-8") as fh:
        head_no, head = 1, fh.readline()
        while head and not head.strip():
            head_no, head = head_no + 1, fh.readline()
        head = head.strip()
        if not head:
            raise GraphFormatError("line 1: empty graph file, expected 'n m'")
        parts = head.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {head_no}: expected 'n m', got {head!r}")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {head_no}: expected two integers, got {head!r}"
            )
        if n < 0 or m < 0:
            raise GraphFormatError(f"line {head_no}: n and m must be non-negative")
        rows = [0] * n
        ids = _NodeIds(n)
        count = 0
        no = head_no
        while lines := fh.readlines(READ_CHUNK):
            got = _take_chunk(lines, ids, rows)
            count += _read_lines(lines, no, rows) if got is None else got
            no += len(lines)
    if count != m:
        raise GraphFormatError(
            f"line {head_no}: header promises {m} edges, file has {count}"
        )
    return Digraph(n, rows=rows)


def _take_chunk(lines: list[str], ids: dict[str, int], rows: list[int]) -> int | None:
    """OR a chunk's edges into ``rows`` and return their count, or return
    None and leave ``rows`` as it was. The chunk is taken only if its text is
    ASCII, deleting its digits leaves a space then a newline per line and
    splitting it gives two tokens per line (so every line is "u v" and a
    newline), every id is a key of ``ids`` (canonical and in range) and no
    edge repeats one read before: each run of lines with one source gives
    one mask, whose popcount must be the run's length and which must miss
    the row so far. A dense run's mask is scattered into a byte per node and
    read back as one base-2 int; a sparse run's is ORed from shifted bits."""
    text = "".join(lines)
    if not text.isascii():
        return None
    if text.encode("ascii").translate(None, b"0123456789") != b" \n" * len(lines):
        return None
    tokens = text.split()
    if len(tokens) != 2 * len(lines):
        return None
    try:
        ends = list(map(ids.__getitem__, tokens))
    except KeyError:
        return None
    n = len(rows)
    targets = iter(ends[1::2])
    taken: dict[int, int] = {}
    for u, run in groupby(ends[0::2]):
        k = len(list(run))
        if k * DENSE_RUN >= n:
            bits = bytearray(n)
            for v in islice(targets, k):
                bits[v] = 1
            mask = bytes_mask(bits)
        else:
            mask = reduce(or_, map((1).__lshift__, islice(targets, k)))
        row = taken.get(u, rows[u])
        if row & mask or mask.bit_count() != k:
            return None
        taken[u] = row | mask
    for u, row in taken.items():
        rows[u] = row
    return len(ends) >> 1


def _read_lines(lines: list[str], no: int, rows: list[int]) -> int:
    """OR a chunk's edges into ``rows`` one line at a time, the lines
    numbered from ``no + 1``, and return their count; a duplicate warns, a
    malformed or out-of-range line raises."""
    n = len(rows)
    count = 0
    for no, line in enumerate(lines, start=no + 1):
        line = line.strip()
        if not line:
            continue
        count += 1
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {no}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {no}: expected two integers, got {line!r}"
            )
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(
                f"line {no}: edge ({u},{v}) out of range for n={n}"
            )
        if rows[u] >> v & 1:
            print(
                f"warning: line {no}: duplicate edge {u} {v} ignored",
                file=sys.stderr,
            )
            continue
        rows[u] |= 1 << v
    return count


def write_graph_file(path: str, g: Digraph) -> None:
    """The "n m" line, then one "u v" line per edge, rows in order and each
    row's targets ascending; each row goes out as one joined string. The
    targets are read a byte at a time: each nonzero byte of the row picks
    the names of its eight nodes, and _BYTE_BITS those of its set bits."""
    names = [str(v) for v in range(g.n)]
    octets = [names[k : k + 8] for k in range(0, g.n, 8)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.edge_count()}\n")
        for u, row in enumerate(g.rows):
            if row:
                data = row.to_bytes(len(octets), "little")
                nonzero = data.translate(None, b"\0")
                targets = [
                    octet[j]
                    for octet, b in zip(compress(octets, data), nonzero)
                    for j in _BYTE_BITS[b]
                ]
                head = f"{u} "
                fh.write(head + f"\n{head}".join(targets) + "\n")


# -- subcommands ---------------------------------------------------------------


def cmd_generate(args) -> int:
    spec = GenSpec(args.kind, args.n, args.p, args.seed, args.layers)
    g = generate(spec)
    write_graph_file(args.output, g)
    print(f"kind={args.kind} n={g.n} m={g.edge_count()} seed={args.seed}")
    return 0


def cmd_encode(args) -> int:
    g = read_graph_file(args.input)
    ls = encode(g, args.scheme, args.biclique_profile)
    write_label_file(args.output, ls.scheme_id, ls.n, ls.labels)
    lens = [len(b) for b in ls.labels]
    print(
        f"scheme={args.scheme} n={ls.n} max_bits={max(lens, default=0)}"
        f" mean_bits={sum(lens) / len(lens) if lens else 0.0:.3f}"
    )
    return 0


def _parse_file_labels(scheme_id: int, labels) -> list:
    """Checked views of ``labels``, read from a label file whose scheme id
    must be known and be each label's own."""
    if scheme_id not in SCHEME_NAMES:
        raise GraphFormatError(f"unknown scheme id {scheme_id} in label file")
    views = [parse_label(bits) for bits in labels]
    if any(lab.scheme_id != scheme_id for lab in views):
        raise ValueError(f"a label's scheme id differs from the file's {scheme_id}")
    return views


def cmd_query(args) -> int:
    scheme_id, _, got = read_labels_at(args.labels, [args.u, args.v])
    lu, lv = _parse_file_labels(scheme_id, (got[args.u], got[args.v]))
    print("true" if query(lu, lv) else "false")
    return 0


def cmd_stats(args) -> int:
    if args.labels:
        scheme_id, n, labels = read_label_file(args.labels)
        # the members of a component share one label
        _parse_file_labels(scheme_id, dict.fromkeys(labels))
        ls = LabelSet(SCHEME_NAMES[scheme_id], scheme_id, n, labels)
    else:
        g = read_graph_file(args.input)
        ls = encode(g, args.scheme, args.biclique_profile)
    rep = stats(ls)
    kind = "field" if args.ledger else "section"
    print(f"{kind},max_bits,mean_bits")
    for name, agg in rep["ledger" if args.ledger else "sections"].items():
        print(f"{name},{agg['max']},{agg['mean']:.3f}")
    print(f"total,{rep['max_bits']},{rep['mean_bits']:.3f}")
    return 0


def cmd_verify(args) -> int:
    if args.input:
        g = read_graph_file(args.input)
        rep = verify(g, args.scheme, args.biclique_profile)
        for line in report_lines(rep):
            print(line)
        if not rep.ok:
            u, v, _, _ = rep.examples[0]
            print(f"FAIL graph-seed=- u={u} v={v}", file=sys.stderr)
            return 1
        return 0

    trials = args.trials
    if trials < 1:
        raise ValueError("--trials must be at least 1")
    print(f"instances={trials}")
    bad = 0
    for seed in range(args.seed, args.seed + trials):
        g = generate(GenSpec(args.kind, args.n, args.p, seed, args.layers))
        rep = verify(g, args.scheme, args.biclique_profile)
        print(
            f"seed={seed} n={rep.n} pairs_checked={rep.pairs_checked}"
            f" mismatches={rep.mismatches} max_bits={rep.max_bits}"
            f" mean_bits={rep.mean_bits:.3f}"
        )
        if not rep.ok and not bad:
            u, v, _, _ = rep.examples[0]
            print(f"FAIL graph-seed={seed} u={u} v={v}", file=sys.stderr)
        bad += 0 if rep.ok else 1
    return 1 if bad else 0


# -- argument plumbing ----------------------------------------------------------


def _add_gen_flags(p: argparse.ArgumentParser, with_trials: bool) -> None:
    p.add_argument("--kind", choices=KINDS, default="digraph")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", type=int, default=None)
    if with_trials:
        p.add_argument("--trials", type=int, default=10)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reachlabel",
        description="Reachability labels: encode digraphs, query from two labels.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random graph file")
    _add_gen_flags(p, with_trials=False)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("encode", help="label a graph file")
    p.add_argument("--scheme", choices=sorted(SCHEME_IDS), required=True)
    p.add_argument("--biclique-profile", choices=PROFILES, default="paper")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("query", help="answer u -> v from a label file")
    p.add_argument("labels")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("stats", help="label size table (CSV)")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--labels")
    source.add_argument("--input")
    p.add_argument("--scheme", choices=sorted(SCHEME_IDS), default="third")
    p.add_argument("--biclique-profile", choices=PROFILES, default="paper")
    p.add_argument("--ledger", action="store_true",
                   help="one row per label field instead of per section")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="compare decode against the BFS oracle")
    p.add_argument("--input", help="verify this graph file instead of generating")
    p.add_argument("--scheme", choices=sorted(SCHEME_IDS), required=True)
    p.add_argument("--biclique-profile", choices=PROFILES, default="paper")
    _add_gen_flags(p, with_trials=True)
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "stats" and not (args.labels or args.input):
        print("error: stats needs --labels or --input", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
