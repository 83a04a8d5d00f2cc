"""reachlabel benchmark: graph -> encode -> label file -> answers, timed and checked.

Run from the repository root:

    python3 benchmark/run.py --workload dag-sparse --seed 1 --seconds 12 --trace 0
    python3 benchmark/run.py --workload all --seed 1    # all four, one process

Each run builds its graphs from ``--seed``, sets them up (generate, write the
graph file, read it back) several times, then repeats whole rounds of
encode -> label file -> load -> eager, lazy and cold queries until
``--seconds`` have passed. Every answer is checked against reachability the
benchmark computes itself, by BFS over the generated edge list. Timings are
paired with the host speed (see hostspeed.py) and reported scaled to a fixed
reference speed, with the raw wall time printed beside them. The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``. README.md explains the workloads and every metric.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

try:
    import reachlabel  # noqa: E402
except ImportError:
    raise SystemExit(f"benchmark: the reachlabel sources are not in {SRC}")
if Path(reachlabel.__file__).resolve().parent.parent != SRC:
    raise SystemExit(f"benchmark: reachlabel must be imported from {SRC}")

from hostspeed import SpeedMeter  # noqa: E402
from reachlabel.bitio import (  # noqa: E402
    LabelHeader,
    count_width,
    index_width,
    read_label_file,
    read_labels_at,
    write_label_file,
)
from reachlabel.cli import read_graph_file, write_graph_file  # noqa: E402
from reachlabel.oracle import GenSpec, generate  # noqa: E402
from reachlabel.scheme import encode, parse_label, query, query_lazy  # noqa: E402
from tracing import Tracer, traced_encode  # noqa: E402

SETUP_REPEATS = 3
EAGER_QUERIES_PER_ROUND = 100_000
QUERY_CHUNK = 50
WORD_BUDGET = 64


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    p: float
    scheme: str
    profile: str
    n: int = 1000
    graphs: int = 1
    """Graphs per run, each from its own seed; more graphs steady the metrics
    (label bits above all) that vary from graph to graph."""
    queries: int = 5000
    """Uniform random ordered pairs per graph, all asked eagerly and lazily;
    the first half is also asked cold, from the label file."""

    def graph_seed(self, seed: int, i: int) -> int:
        return seed * 100 + i


WORKLOADS = {
    w.name: w
    for w in (
        Workload("poset-dense", "poset", 0.5, "average", "force"),
        Workload("dag-sparse", "dag", 0.01, "third", "paper", graphs=12, queries=420),
        Workload("digraph-scc", "digraph", 0.002, "third", "paper", graphs=6, queries=834),
        Workload("dag-warmup", "dag", 0.01, "warmup", "paper", graphs=12, queries=420),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "encode_s": "s",
    "encode_peak_rss_mb": "MiB",
    "label_max_bits": "bits",
    "label_mean_bits": "bits",
    "load_s": "s",
    "eager_qps": "1/s",
    "lazy_us_p50": "us",
    "cold_us_p50": "us",
}

# Printed, but not in the result object: from run to run these tails moved by
# more than a third of the widest bound, see README.md.
TAIL_UNITS = {"lazy_us_p99": "us", "cold_us_p99": "us"}

LAYER_UNITS = {
    "oracle.generate_s": "s",
    "cli.read_graph_s": "s",
    "graph.scc_s": "s",
    "graph.closure_s": "s",
    "graph.layering_s": "s",
    "graph.components": "count",
    "graph.closure_edges": "count",
    "flatten.superlayers_s": "s",
    "flatten.inner_s": "s",
    "flatten.groups": "count",
    "flatten.intra_bits_mean": "bits",
    "biclique.find_s": "s",
    "biclique.bicliques": "count",
    "biclique.rest_edges": "count",
    "crosslabel.peel_s": "s",
    "crosslabel.sections_s": "s",
    "crosslabel.assemble_s": "s",
    "crosslabel.iterations": "count",
    "crosslabel.pairs": "count",
    "crosslabel.near_bits_mean": "bits",
    "crosslabel.far_bits_mean": "bits",
    "crosslabel.framing_bits_mean": "bits",
    "bipartite.encode_s": "s",
    "bipartite.embedded_header_bits_mean": "bits",
    "dictionary.build_s": "s",
    "dictionary.sets": "count",
    "dictionary.keys": "count",
    "dictionary.sorted_sets": "count",
    "dictionary.set_bits_mean": "bits",
    "warmup.encode_s": "s",
    "warmup.window_bits": "bits",
    "scheme.assemble_s": "s",
    "scheme.parse_us": "us",
    "scheme.eager_query_us": "us",
    "scheme.lazy_words_p50": "count",
    "scheme.lazy_words_max": "count",
    "scheme.header_bits_mean": "bits",
    "scheme.queries_same_scc": "count",
    "scheme.queries_intra": "count",
    "scheme.queries_cross": "count",
    "scheme.queries_order_false": "count",
    "bitio.write_file_s": "s",
    "bitio.read_file_s": "s",
    "bitio.read_labels_at_us": "us",
    "bitio.file_bytes": "bytes",
    "trace.overhead_s": "s",
}

# span name -> per-layer metric holding its self time
SPAN_METRICS = {
    "graph.scc": "graph.scc_s",
    "graph.closure": "graph.closure_s",
    "graph.layering": "graph.layering_s",
    "flatten.superlayers": "flatten.superlayers_s",
    "flatten.inner": "flatten.inner_s",
    "biclique.find": "biclique.find_s",
    "crosslabel.peel": "crosslabel.peel_s",
    "crosslabel.sections": "crosslabel.sections_s",
    "crosslabel.assemble": "crosslabel.assemble_s",
    "bipartite.encode": "bipartite.encode_s",
    "dictionary.build": "dictionary.build_s",
    "warmup.encode": "warmup.encode_s",
    "scheme.encode": "scheme.assemble_s",
    "bitio.write_file": "bitio.write_file_s",
}


# -- ground truth, independent of the program's graph algorithms ---------------


def reach_truth(n: int, edges, sources) -> dict[int, int]:
    """Reachability bitmask (self included) of each source, by a
    level-synchronous BFS over bitmask adjacency rows."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
    out = {}
    for s in set(sources):
        seen = frontier = 1 << s
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~seen
            seen |= frontier
        out[s] = seen
    return out


def make_pairs(n: int, count: int, rng: random.Random) -> list[tuple[int, int]]:
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def branch(lu, lv) -> str:
    """Which check of ``scheme.query`` answers this pair (parsed labels)."""
    if lu.scc == lv.scc:
        return "same_scc"
    if lu.warm is not None:  # the warm-up scheme answers from a window
        return "order_false" if lu.warm.index > lv.warm.index else "cross"
    if lu.inner.grp == lv.inner.grp:
        return "intra"
    if lu.cross.entry >= lv.cross.entry:
        return "order_false"
    return "cross"


def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


# -- one workload ------------------------------------------------------------------


@dataclass
class GraphCase:
    seed: int
    graph: object  # the Digraph read back from the graph file
    pairs: list[tuple[int, int]]
    truth: list[bool]
    label_path: str
    digest: str | None = None
    bits: dict = field(default_factory=dict)  # per-label-field means, counts


@dataclass
class Run:
    """Operation counts, problems and timing samples of one run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict = field(default_factory=dict)

    def add(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)


def setup(w: Workload, seed: int, out_dir: Path, meter: SpeedMeter, run: Run):
    """Generate, write and read back every graph, SETUP_REPEATS times."""
    cases = None
    for _ in range(SETUP_REPEATS):
        cases = []
        steps = {"generate": [], "write": [], "read": []}
        for i in range(w.graphs):
            gseed = w.graph_seed(seed, i)
            path = str(out_dir / f"{w.kind}-n{w.n}-p{w.p}-s{gseed}.graph")
            gc.collect()
            b = meter.begin()
            g = generate(GenSpec(w.kind, w.n, w.p, gseed))
            steps["generate"].append(meter.end(b))
            b = meter.begin()
            write_graph_file(path, g)
            steps["write"].append(meter.end(b))
            b = meter.begin()
            back = read_graph_file(path)
            steps["read"].append(meter.end(b))
            cases.append((gseed, g, back))
        per_graph = {
            k: (sum(t.scaled_s for t in v) / w.graphs, sum(t.raw_s for t in v) / w.graphs)
            for k, v in steps.items()
        }
        run.add("setup_s", tuple(map(sum, zip(*per_graph.values()))))
        run.add("oracle.generate_s", per_graph["generate"])
        run.add("cli.read_graph_s", per_graph["read"])
    out = []
    for gseed, g, back in cases:
        if back.edges != g.edges:
            run.problems.append(f"graph {gseed}: file read back differs from generated graph")
        rng = random.Random(f"queries:{gseed}")
        pairs = make_pairs(w.n, w.queries, rng)
        reach = reach_truth(w.n, g.edges, [u for u, _ in pairs])
        truth = [bool(reach[u] >> v & 1) for u, v in pairs]
        if all(truth) or not any(truth):
            run.problems.append(f"graph {gseed}: query set lacks a true or a false answer")
        label_path = str(out_dir / f"{w.name}-s{gseed}.rlbl")
        out.append(GraphCase(gseed, back, pairs, truth, label_path))
    return out


def label_bits(ls, tracer: Tracer | None) -> dict:
    """Per-field bit means and structure counts of one encoded label set."""
    n = ls.n
    lens = [len(b) for b in ls.labels]
    pl = ls.pipeline
    out = {
        "max": max(lens),
        "mean": sum(lens) / n,
        "graph.components": len(set(pl.scc.scc_id)),
        "graph.closure_edges": pl.closed.edge_count(),
        "scheme.header_bits_mean": statistics.fmean(
            LabelHeader.read(b).bit_length for b in ls.labels
        ),
    }
    if ls.cross is None:
        out["warmup.window_bits"] = statistics.fmean(wl.table_len for wl in pl.warm_labels)
        return out
    iw, cw = index_width(n), count_width(n)
    near = far = frame = intra = 0
    for u, b in enumerate(ls.labels):
        gl = pl.inner_labels[u]
        intra += 3 * iw + cw + 1 + (0 if gl.thick else gl.end - gl.beg)
        secs = ls.cross.sections[u]
        nb = sum(len(s) for s in secs[0::2])
        fb = sum(len(s) for s in secs[1::2])
        near += nb
        far += fb
        frame += len(b) - LabelHeader.read(b).offsets[1] - nb - fb
    out.update({
        "flatten.groups": pl.slayer.count,
        "flatten.intra_bits_mean": intra / n,
        "crosslabel.iterations": len(ls.cross.records),
        "crosslabel.pairs": sum(r.n_pairs for r in ls.cross.records),
        "crosslabel.near_bits_mean": near / n,
        "crosslabel.far_bits_mean": far / n,
        "crosslabel.framing_bits_mean": frame / n,
    })
    if tracer is not None:
        c = tracer.counts
        out.update({
            "biclique.bicliques": c["biclique.bicliques"],
            "biclique.rest_edges": c["biclique.rest_edges"],
            "bipartite.embedded_header_bits_mean": c["bipartite.embedded_header_bits"] / n,
            "dictionary.sets": c["dictionary.sets"],
            "dictionary.keys": c["dictionary.keys"],
            "dictionary.sorted_sets": c["dictionary.sorted_sets"],
            "dictionary.set_bits_mean": c["dictionary.set_bits"] / n,
        })
    return out


def run_graph(w, case, meter, run, traced, tamper, trace_log) -> None:
    """One round's work on one graph: encode, load, eager, lazy, cold."""
    gc.collect()
    meter.rss_peak_pages = 0
    meter.watch_rss = True
    b = meter.begin()
    ls = encode(case.graph, w.scheme, w.profile)
    if tamper is not None:
        ls.labels = tamper(ls)
    write_label_file(case.label_path, ls.scheme_id, ls.n, ls.labels)
    t = meter.end(b)
    meter.sample_rss()
    meter.watch_rss = False
    run.add("encode_s", (t.scaled_s, t.raw_s))
    run.add("encode_peak_rss_mb", (meter.rss_peak_mb(), meter.rss_peak_mb()))
    with open(case.label_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    ok = case.digest in (None, digest)
    if w.scheme == "warmup":
        want = LabelHeader.HEADER_FIXED_BITS + 2 * index_width(w.n) + w.n // 2
        ok = ok and all(len(x) == want for x in ls.labels)
    run.check(ok, f"graph {case.seed}: encode differs from the first round or has a wrong size")
    case.digest = digest

    tls = None
    if traced:
        tracer = Tracer()
        gc.collect()
        b = meter.begin()
        tls = traced_encode(tracer, case.graph, w.scheme, w.profile, case.label_path)
        if tamper is not None:
            tls.labels = tamper(tls)
            write_label_file(case.label_path, tls.scheme_id, tls.n, tls.labels)
        t = meter.end(b)
        run.check(tls.labels == ls.labels, f"graph {case.seed}: traced encode differs")
        run.add("traced_encode_s", (t.scaled_s, t.raw_s))
        factor = t.scaled_s / t.raw_s
        for span, ns in tracer.self_ns().items():
            if span in SPAN_METRICS:
                run.add(SPAN_METRICS[span] + "@" + str(case.seed), ns * factor / 1e9)
        if not case.bits:
            case.bits = label_bits(tls, tracer)
            trace_log.append({"graph_seed": case.seed, **tracer.to_json()})
    elif not case.bits:
        case.bits = label_bits(ls, None)
    encoded = ls.labels
    del ls, tls  # the pipelines: only the labels are needed from here on

    gc.collect()  # free the encoder's garbage before, not during, the next step
    b = meter.begin()
    _, _, labels = read_label_file(case.label_path)
    t_read = meter.end(b)
    b = meter.begin()
    parsed = []
    for x in labels:
        try:
            parsed.append(parse_label(x))
        except ValueError:
            parsed.append(None)
    t_parse = meter.end(b)
    run.add("load_s", (t_read.scaled_s + t_parse.scaled_s, t_read.raw_s + t_parse.raw_s))
    run.add("bitio.read_file_s", t_read.scaled_s)
    run.add("scheme.parse_us", t_parse.scaled_s / len(labels) * 1e6)
    run.check(labels == encoded and None not in parsed,
              f"graph {case.seed}: labels read back differ from the encoded ones or fail to parse")

    # Eager, lazy and cold queries take turns chunk by chunk, so that each
    # kind is sampled across the whole query phase: memory latency on this
    # kind of host drifts over seconds, and a single block would catch one
    # moment of it.
    pairs, truth = case.pairs, case.truth
    passes = max(1, EAGER_QUERIES_PER_ROUND // (w.graphs * len(pairs)))
    gc.collect()
    for lo in range(0, len(pairs), QUERY_CHUNK):
        chunk = list(zip(pairs[lo : lo + QUERY_CHUNK], truth[lo : lo + QUERY_CHUNK]))
        eager_chunk(run, meter, parsed, chunk, passes)
        lazy_chunk(run, meter, labels, chunk)
        cold_chunk(run, meter, case.label_path, chunk[: len(chunk) // 2])

    if "branches" not in case.bits:
        mix = dict.fromkeys(("same_scc", "intra", "cross", "order_false"), 0)
        for u, v in pairs:
            if parsed[u] is not None and parsed[v] is not None:
                mix[branch(parsed[u], parsed[v])] += 1
        case.bits["branches"] = mix
        case.bits["file_bytes"] = os.path.getsize(case.label_path)


def eager_chunk(run: Run, meter: SpeedMeter, parsed, chunk, passes: int) -> None:
    """``query`` over parsed labels, ``passes`` times over the chunk, timed as one."""
    b = meter.begin()
    answers = []
    for _ in range(passes):
        for (u, v), _ in chunk:
            try:
                answers.append(query(parsed[u], parsed[v]))
            except (ValueError, AttributeError):
                answers.append(None)
    t = meter.end(b)
    run.add("eager", (len(answers), t.scaled_s, t.raw_s))
    for i, ans in enumerate(answers):
        (u, v), want = chunk[i % len(chunk)]
        run.check(ans == want, f"eager {u}->{v} answered {ans}")


def lazy_chunk(run: Run, meter: SpeedMeter, labels, chunk) -> None:
    """``query_lazy`` on raw label bits, each query timed and scaled alone
    (within a process the probes around one query track its speed closely)."""
    for (u, v), want in chunk:
        b = meter.begin()
        try:
            ans, words = query_lazy(labels[u], labels[v])
        except ValueError:
            ans, words = None, 0
        t = meter.end(b)
        run.add("lazy_us", (t.scaled_s * 1e6, t.raw_s * 1e6))
        run.add("lazy_words", words)
        run.check(ans == want and words <= WORD_BUDGET,
                  f"lazy {u}->{v} answered {ans} in {words} words")


def cold_chunk(run: Run, meter: SpeedMeter, path: str, chunk) -> None:
    """The ``reachlabel query`` path in-process: two labels from the file."""
    clock = time.perf_counter_ns
    for (u, v), want in chunk:
        b = meter.begin()
        try:
            t0 = clock()
            _, _, got = read_labels_at(path, [u, v])
            t1 = clock()
            ans = query(parse_label(got[u]), parse_label(got[v]))
        except ValueError:
            ans, t1 = None, clock()
        t = meter.end(b)
        run.add("cold_us", (t.scaled_s * 1e6, t.raw_s * 1e6))
        run.add("read_at_us", (t1 - t0) / 1e3 * t.scaled_s / t.raw_s)
        run.check(ans == want, f"cold {u}->{v} answered {ans}")


def run_workload(
    w: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    out_dir: Path = OUT,
    tamper=None,
    log=print,
) -> dict:
    """One seeded run of one workload; returns the result object."""
    out_dir.mkdir(parents=True, exist_ok=True)
    run = Run()
    trace_log: list = []
    t0 = time.perf_counter()
    with SpeedMeter() as meter:
        cases = setup(w, seed, out_dir, meter, run)
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < seconds:
            per_round = {k: len(v) for k, v in run.samples.items()}
            for case in cases:
                run_graph(w, case, meter, run, traced, tamper, trace_log)
            for key in ("encode_s", "load_s", "traced_encode_s"):
                fold_round(run, key, per_round.get(key, 0))
            rounds += 1
        end = time.perf_counter()
    for case in cases:
        log(f"label_sha256 {w.name} graph_seed={case.seed} {case.digest}")
    metrics, raw = summarize(run, cases, traced)
    for name, value in metrics.items():
        unit = (LAYER_UNITS if traced else E2E_UNITS | TAIL_UNITS)[name]
        extra = f"  (raw {raw[name]!r} {unit})" if name in raw else ""
        log(f"{w.name} {name} = {value!r} {unit}{extra}")
    for p in run.problems:
        log(f"{w.name} PROBLEM {p}")
    correct = run.failed == 0 and not run.problems
    units = LAYER_UNITS if traced else E2E_UNITS
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            k: {"value": v, "unit": units[k]}
            for k, v in metrics.items()
            if k in units
        },
    }
    log(f"{w.name} rounds={rounds} graphs={w.graphs} queries/graph={w.queries}"
        f" attempted={run.attempted} failed={run.failed}"
        f" wall: setup+truth {start - t0:.1f} s, rounds {end - start:.1f} s")
    stem = f"{w.name}-s{seed}-{'trace' if traced else 'e2e'}"
    with open(out_dir / f"{stem}.result.json", "w") as fh:
        json.dump(result, fh, indent=1)
    if traced:
        with open(out_dir / f"{stem}.spans.json", "w") as fh:
            json.dump({"workload": w.name, "seed": seed, "graphs": trace_log}, fh)
    return result


def fold_round(run: Run, key: str, first: int) -> None:
    """Replace this round's per-graph samples of ``key`` by their mean."""
    vals = run.samples.get(key, [])[first:]
    if vals:
        del run.samples[key][first:]
        run.add(key + "/round", tuple(statistics.fmean(x) for x in zip(*vals)))


def _median_pair(vals) -> tuple[float, float]:
    return statistics.median(v[0] for v in vals), statistics.median(v[1] for v in vals)


def summarize(run: Run, cases: list[GraphCase], traced: bool):
    """Metric values (scaled) and the raw times printed beside them."""
    s = run.samples
    m, raw = {}, {}
    lazy = sorted(x[0] for x in s["lazy_us"])
    cold = sorted(x[0] for x in s["cold_us"])
    eager_n = sum(x[0] for x in s["eager"])
    if not traced:
        for key in ("setup_s", "encode_s/round", "load_s/round"):
            name = key.split("/")[0]
            m[name], raw[name] = _median_pair(s[key])
        m["encode_peak_rss_mb"] = statistics.median(x[0] for x in s["encode_peak_rss_mb"])
        m["label_max_bits"] = max(c.bits["max"] for c in cases)
        m["label_mean_bits"] = statistics.fmean(c.bits["mean"] for c in cases)
        m["eager_qps"] = eager_n / sum(x[1] for x in s["eager"])
        raw["eager_qps"] = eager_n / sum(x[2] for x in s["eager"])
        for name, vals, rvals in (
            ("lazy_us", lazy, sorted(x[1] for x in s["lazy_us"])),
            ("cold_us", cold, sorted(x[1] for x in s["cold_us"])),
        ):
            if len(vals) < 1000:
                run.problems.append(f"{name}: {len(vals)} samples, p99 needs 1000")
            for q in (50, 99):
                m[f"{name}_p{q}"] = percentile(vals, q / 100)
                raw[f"{name}_p{q}"] = percentile(rvals, q / 100)
        return m, raw

    m = dict.fromkeys(LAYER_UNITS, 0)
    for key in ("oracle.generate_s", "cli.read_graph_s"):
        m[key], raw[key] = _median_pair(s[key])
    for key in ("bitio.read_file_s", "scheme.parse_us"):
        m[key] = statistics.median(s[key])
    for metric in SPAN_METRICS.values():
        per_graph = [s.get(f"{metric}@{c.seed}") for c in cases]
        if all(per_graph):
            m[metric] = statistics.fmean(statistics.median(v) for v in per_graph)
    for key in m:
        vals = [c.bits[key] for c in cases if key in c.bits]
        if vals:
            m[key] = statistics.fmean(vals)
    for c in cases:
        for br, count in c.bits["branches"].items():
            m[f"scheme.queries_{br}"] += count
    m["scheme.eager_query_us"] = sum(x[1] for x in s["eager"]) / eager_n * 1e6
    words = sorted(s["lazy_words"])
    m["scheme.lazy_words_p50"] = percentile(words, 0.5)
    m["scheme.lazy_words_max"] = words[-1]
    m["bitio.read_labels_at_us"] = statistics.fmean(s["read_at_us"])
    m["bitio.file_bytes"] = statistics.fmean(c.bits["file_bytes"] for c in cases)
    traced_s = _median_pair(s["traced_encode_s/round"])[0]
    m["trace.overhead_s"] = traced_s - _median_pair(s["encode_s/round"])[0]
    return m, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        results[name] = res
        if len(names) > 1:
            print(json.dumps({"workload": name, **res}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
