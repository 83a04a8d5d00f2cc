"""Reachability labels for directed graphs.

Encode once, then answer "is there a directed path u -> v?" from the two
node labels alone. Three schemes trade label size for machinery: a warm-up
half-window scheme, the main grouped-and-peeled scheme, and a variant that
minimizes the average label size.
"""

from .bitio import BitString, read_label_file, read_labels_at, write_label_file
from .graph import Dag, Digraph, oracle_reach, reach_rows
from .oracle import GenSpec, VerifyReport, generate, verify
from .scheme import (
    LabelSet,
    Pipeline,
    SCHEME_IDS,
    encode,
    parse_label,
    query,
    query_lazy,
    stats,
)

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "Dag",
    "Digraph",
    "GenSpec",
    "LabelSet",
    "Pipeline",
    "SCHEME_IDS",
    "VerifyReport",
    "encode",
    "generate",
    "oracle_reach",
    "parse_label",
    "query",
    "query_lazy",
    "reach_rows",
    "read_label_file",
    "read_labels_at",
    "stats",
    "verify",
    "write_label_file",
    "__version__",
]
