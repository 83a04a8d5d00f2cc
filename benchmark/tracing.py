"""Per-layer spans and counts, recorded from the benchmark's own files.

A traced encode first reads the ``Pipeline`` stage properties one by one,
each inside its own span, and then runs ``scheme.encode`` with a few module
functions replaced, in the module namespace their callers look them up in,
by wrappers that open a span or bump a counter. Nothing in ``src/`` changes:
the wrappers are put back when the encode returns.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from reachlabel import crosslabel, scheme
from reachlabel.bipartite import embedded_width
from reachlabel.bitio import write_label_file


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str | None, count=None):
        """Wrap ``fn`` in a span called ``name`` (None: count only)."""

        def traced(*args, **kwargs):
            if name is None:
                out = fn(*args, **kwargs)
            else:
                idx = self._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._close(idx)
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    @contextmanager
    def patched(self, patches):
        """Install wrappers for (module, attribute, span name, counter)."""
        saved = []
        try:
            for module, attr, name, count in patches:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, count))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_ns(self) -> dict[str, int]:
        """Self time per span name, summed over all spans of that name."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def to_json(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0
        return {
            "spans": [
                {"name": s[0], "start_ns": s[1] - t0, "end_ns": s[2] - t0, "parent": s[3]}
                for s in self.spans
            ],
            "self_ns": self.self_ns(),
            "counts": dict(self.counts),
        }


def _count_bicliques(counts, args, dec) -> None:
    counts["biclique.bicliques"] += len(dec.bicliques)
    counts["biclique.rest_edges"] += len(dec.rest_edges)


def _count_set(counts, args, ss) -> None:
    counts["dictionary.sets"] += 1
    counts["dictionary.keys"] += ss.size
    counts["dictionary.sorted_sets"] += ss.mode == 1 and ss.size > 0
    counts["dictionary.set_bits"] += ss.bit_length()


def _count_embedded(counts, args, _) -> None:
    limit = args[2]
    counts["bipartite.embedded_header_bits"] += embedded_width(limit, 0)


# Module functions wrapped during a traced encode, where their callers look
# them up: scheme's pipeline calls the peeling, the section encoding and the
# per-node blob assembly; crosslabel calls the biclique search, the pair-table
# encoder, the membership-set constructor and the sub-label writer.
PATCHES = (
    (scheme, "peel_cross", "crosslabel.peel", None),
    (scheme, "build_cross_labeling", "crosslabel.sections", None),
    (scheme, "assemble_cross", "crosslabel.assemble", None),
    (crosslabel, "find_bicliques", "biclique.find", _count_bicliques),
    (crosslabel, "encode_bipartite", "bipartite.encode", None),
    (crosslabel, "build_set", "dictionary.build", _count_set),
    (crosslabel, "write_embedded", None, _count_embedded),
)


def traced_encode(tracer: Tracer, g, scheme_name: str, profile: str, path: str):
    """``scheme.encode`` plus ``write_label_file``, stage by stage in spans."""
    pl = scheme.Pipeline(g)
    stages = [("graph.scc", "scc"), ("graph.closure", "closed"), ("graph.layering", "layered")]
    if scheme_name == "warmup":
        stages.append(("warmup.encode", "warm_labels"))
    else:
        # inner_labels also splits the closure rows into inner and cross
        stages += [("flatten.superlayers", "slayer"), ("flatten.inner", "inner_labels")]
    with tracer.span("encode"):
        for name, prop in stages:
            with tracer.span(name):
                getattr(pl, prop)
        with tracer.span("scheme.encode"), tracer.patched(PATCHES):
            ls = scheme.encode(g, scheme_name, profile, pipeline=pl)
        with tracer.span("bitio.write_file"):
            write_label_file(path, ls.scheme_id, ls.n, ls.labels)
    return ls
