"""Command-line surface: generate, encode, query, stats, verify, bench.

Graph files are plain text: a first line "n m", then m lines "u v" with
0-based node ids. Label files use the binary RLBL layout from bitio. Exit
codes: 0 success, 1 verification mismatch, 2 usage or format error. The
environment variable RLBL_THREADS caps how many worker processes verify may
fan out to (default 1); output order is deterministic either way.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from .bitio import read_label_file, read_labels_at, write_label_file
from .graph import Digraph, _iter_bits
from .oracle import KINDS, GenSpec, generate, report_lines, verify
from .scheme import (
    PROFILES,
    SCHEME_IDS,
    SCHEME_NAMES,
    LabelSet,
    encode,
    parse_label,
    query,
    stats,
)


class GraphFormatError(ValueError):
    pass


def read_graph_file(path: str) -> Digraph:
    """Parse "n m" + edge lines into bitmask rows; duplicates warn,
    malformed lines raise."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = ((no, line.strip()) for no, line in enumerate(fh, start=1))
        lines = ((no, line) for no, line in lines if line)
        head_no, head = next(lines, (1, ""))
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
        count = 0
        for no, line in lines:
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
    if count != m:
        raise GraphFormatError(
            f"line {head_no}: header promises {m} edges, file has {count}"
        )
    return Digraph(n, rows=rows)


def write_graph_file(path: str, g: Digraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.edge_count()}\n")
        for u, row in enumerate(g.rows):
            fh.write("".join(f"{u} {v}\n" for v in _iter_bits(row)))


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
    rep = stats(ls)
    print(
        f"scheme={args.scheme} n={ls.n} max_bits={rep['max_bits']}"
        f" mean_bits={rep['mean_bits']:.3f}"
    )
    return 0


def cmd_query(args) -> int:
    _, n, got = read_labels_at(args.labels, [args.u, args.v])
    lu = parse_label(got[args.u])
    lv = parse_label(got[args.v])
    print("true" if query(lu, lv) else "false")
    return 0


def cmd_stats(args) -> int:
    if args.labels:
        scheme_id, n, labels = read_label_file(args.labels)
        if scheme_id not in SCHEME_NAMES:
            raise GraphFormatError(f"unknown scheme id {scheme_id} in label file")
        ls = LabelSet(SCHEME_NAMES[scheme_id], scheme_id, n, labels)
    else:
        g = read_graph_file(args.input)
        ls = encode(g, args.scheme, args.biclique_profile)
    rep = stats(ls)
    print("section,max_bits,mean_bits")
    for name, agg in rep["sections"].items():
        print(f"{name},{agg['max']},{agg['mean']:.3f}")
    print(f"total,{rep['max_bits']},{rep['mean_bits']:.3f}")
    return 0


def _verify_one(task) -> tuple[int, "object"]:
    scheme, profile, kind, n, p, seed, layers = task
    g = generate(GenSpec(kind, n, p, seed, layers))
    return seed, verify(g, scheme, profile)


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
    print(f"instances={trials}")
    if trials == 0:
        return 0
    tasks = [
        (args.scheme, args.biclique_profile, args.kind, args.n, args.p,
         args.seed + t, args.layers)
        for t in range(trials)
    ]
    workers = max(1, int(os.environ.get("RLBL_THREADS", "1") or "1"))
    if workers > 1 and trials > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, trials)) as pool:
            results = list(pool.map(_verify_one, tasks))
    else:
        results = [_verify_one(t) for t in tasks]

    bad = 0
    for seed, rep in results:  # tasks are seed-ascending, so output is too
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


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    rng = random.Random(args.seed)
    print("n,encode_s,query_us,max_bits,mean_bits")
    per_query = []
    for n in sizes:
        g = generate(GenSpec(args.kind, n, args.p, args.seed))
        t0 = time.perf_counter()
        ls = encode(g, args.scheme, args.biclique_profile)
        t1 = time.perf_counter()
        parsed = [parse_label(b) for b in ls.labels]
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(args.queries)]
        t2 = time.perf_counter()
        for u, v in pairs:
            query(parsed[u], parsed[v])
        t3 = time.perf_counter()
        us = (t3 - t2) / max(1, len(pairs)) * 1e6
        per_query.append(us)
        rep = stats(ls)
        print(f"{n},{t1 - t0:.3f},{us:.3f},{rep['max_bits']},{rep['mean_bits']:.1f}")
    if len(per_query) > 1:
        ratio = max(per_query) / max(min(per_query), 1e-9)
        flat = "yes" if ratio <= 3.0 else "no"
        print(f"# query latency spread max/min = {ratio:.2f} -> flat={flat}")
    return 0


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
    p.add_argument("--labels")
    p.add_argument("--input")
    p.add_argument("--scheme", choices=sorted(SCHEME_IDS), default="third")
    p.add_argument("--biclique-profile", choices=PROFILES, default="paper")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="compare decode against the BFS oracle")
    p.add_argument("--input", help="verify this graph file instead of generating")
    p.add_argument("--scheme", choices=sorted(SCHEME_IDS), required=True)
    p.add_argument("--biclique-profile", choices=PROFILES, default="paper")
    _add_gen_flags(p, with_trials=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="encode/query timing table (CSV)")
    p.add_argument("--scheme", choices=sorted(SCHEME_IDS), default="third")
    p.add_argument("--biclique-profile", choices=PROFILES, default="paper")
    p.add_argument("--kind", choices=KINDS, default="poset")
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sizes", default="100,200,400,800")
    p.add_argument("--queries", type=int, default=20000)
    p.set_defaults(func=cmd_bench)

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
