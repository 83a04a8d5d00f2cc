"""Walk through the warm-up scheme on a hand-sized partial order.

Builds a small poset, encodes every node, dissects one label field by
field, then answers a few queries and checks the whole n x n table
against a BFS oracle. Run from anywhere after installing the package:

    python3 demos/warmup_tour.py
"""

from reachlabel.bitio import index_width, read_fixed
from reachlabel.graph import Digraph, reach_rows
from reachlabel.scheme import LabelHeader, encode, parse_label, query

# a diamond with a tail: 0 below 1 and 2, both below 3, then 3 below 4
edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 3), (0, 4), (1, 4), (2, 4)]
g = Digraph(5, edges)
ls = encode(g, "warmup")

print(f"graph: n={g.n}, closure edges={g.edge_count()}")
print(f"scheme={ls.scheme} (id {ls.scheme_id})")
print()

iw = index_width(g.n)
fixed = LabelHeader.HEADER_FIXED_BITS
print(f"every label: {fixed}-bit header, {iw}-bit component id, "
      f"{iw}-bit position, {g.n // 2}-bit reach window")
for u in range(g.n):
    bits = ls.labels[u]
    comp = read_fixed(bits, fixed, iw)
    idx = read_fixed(bits, fixed + iw, iw)
    table = read_fixed(bits, fixed + 2 * iw, g.n // 2)  # bit j is window bit j
    window = "".join(str(table >> j & 1) for j in range(g.n // 2))
    print(f"  node {u}: {len(bits)} bits, component {comp}, "
          f"position {idx}, window {window}")

print()
print("a window bit j answers: can I reach the node j+1 steps after me")
print("in topological order, wrapping around; the far half is read from")
print("the other endpoint's label.")
print()

parsed = [parse_label(b) for b in ls.labels]
for u, v in [(0, 4), (4, 0), (1, 2), (2, 3)]:
    print(f"  reach({u} -> {v}) = {query(parsed[u], parsed[v])}")

rows = reach_rows(g)
bad = sum(
    query(parsed[u], parsed[v]) != bool(rows[u] >> v & 1)
    for u in range(g.n)
    for v in range(g.n)
)
print()
print(f"full check against BFS: {g.n * g.n} pairs, {bad} mismatches")
assert bad == 0
