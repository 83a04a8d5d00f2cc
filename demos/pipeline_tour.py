"""Tour the full encoding pipeline on one random digraph.

Shows each stage's output: the condensation into a DAG of strongly
connected components (every later stage runs on it), its layered closure, the super-layer grouping, the iterative peeling of cross-group
edges, and what all of it costs in label bits. Ends with lazy queries
that count how many 64-bit words the decoder actually touched.

    python3 demos/pipeline_tour.py [seed]
"""

import statistics
import sys
from collections import Counter

from reachlabel.graph import reach_rows
from reachlabel.oracle import GenSpec, generate, verify
from reachlabel.scheme import Pipeline, encode, query_lazy

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
g = generate(GenSpec("digraph", 60, 0.05, seed=seed))
print(f"input: n={g.n}, edges={g.edge_count()}, seed={seed}")

pl = Pipeline(g)
members = Counter(pl.scc.scc_id)
print(f"condensation: {len(members)} strongly connected components, the largest "
      f"with {max(members.values())} nodes; the rest of the pipeline labels this "
      f"{pl.scc.dag.n}-node quotient DAG, and members share their component's label")
print(f"layered closure: {len(pl.layered.layers)} antichain layers, "
      f"{pl.closed.edge_count()} closure edges")

s = pl.slayer
kinds = {1: "thick", 2: "run", 3: "tail"}
print(f"super-layers (gamma={s.gamma}): "
      + ", ".join(f"[{gr.beg},{gr.end}) {kinds[gr.gtype]}" for gr in s.groups))

# the relaxed profile matches small bicliques; the strict one waits
# for structures only large dense graphs contain
cl = pl.cross_labeling("force", "third")
print(f"\npeeling: {cl.k} groups, {cl.k - 1} iterations")
for rec in cl.records:
    if rec.n_pairs:
        print(f"  iter {rec.s}: {len(rec.live)} live nodes, "
              f"{len(rec.bicliques)} bicliques, {rec.n_pairs} matched pairs, "
              f"near/far tables {rec.near_inst.alpha}/{rec.far_inst.alpha} "
              f"and {rec.near_inst.beta}/{rec.far_inst.beta} bits")
    else:
        print(f"  iter {rec.s}: {len(rec.live)} live nodes, nothing matched")

print()
for scheme in ("warmup", "third", "average"):
    ls = encode(g, scheme, "force", pipeline=pl)
    sizes = [len(b) for b in ls.labels]
    print(f"{scheme:8s} labels: mean {statistics.fmean(sizes):7.1f} bits, "
          f"max {max(sizes)}")

ls = encode(g, "third", "force", pipeline=pl)
print("\nlazy decoding (words = 64-bit label words read):")
sid = pl.scc.scc_id
cross = [(u, v) for u in range(g.n) for v in range(g.n) if sid[u] != sid[v]]
rows = reach_rows(g)
ordered = next((u, v) for u, v in cross if rows[u] >> v & 1)
apart = next(
    (u, v) for u, v in cross if not (rows[u] >> v | rows[v] >> u) & 1
)
for u, v in (ordered, ordered[::-1], apart, apart[::-1]):
    ans, words = query_lazy(ls.labels[u], ls.labels[v])
    print(f"  reach({u:2d} -> {v:2d}) = {str(ans):5s} in {words} words")

rep = verify(g, "third", "force")
print(f"\noracle check: {rep.pairs_checked} pairs, {rep.mismatches} mismatches")
assert rep.ok
