"""The names the command line prints: theorem ids and statements, index names,
graph classes and the vertex caps.

It imports nothing, so ``topoline theorems`` and ``--help`` load no other
module.  Each name is spelled here once; the layers that use them import them
from here.
"""

THEOREM_IDS = tuple(f"T{i}" for i in range(1, 12))

#: One-line statements for CLI listings and reports.
THEOREM_STATEMENTS: dict[str, str] = {
    "T1": "first Zagreb index bounded by the max of three expressions in (m, max degree)",
    "T2": "GA1(G) + GA1(L(G)) bounded by half the T1 maximum",
    "T3": "line-graph edge count / Platt number / first Zagreb identities",
    "T4": "Platt-number bounds on GA1 of the graph and of its line graph",
    "T5": "GA1 of the line graph bounded below via the hyperbolicity constant",
    "T6": "GA1 bounded below by a min-coefficient multiple of M1 (equality for regular)",
    "T7": "first Zagreb index of the line graph identity (uses the forgotten index)",
    "T8": "GA1 of the line graph bounded below via M1(L(G))",
    "T9": "harmonic index order bounds with regular/biregular equality characterizations",
    "T10": "reciprocal-sum lemma and its fixed-coefficient corollary",
    "T11": "harmonic-index sandwich between a graph and its line graph",
}

#: The six indices of ``indices.IndexVector``, in the column order of index reports.
INDEX_NAMES = ("m1", "m2", "forgotten", "harmonic", "ga1", "platt")

#: The classes ``extremal_search`` draws its graphs from.
GRAPH_CLASSES = ("all", "trees", "unicyclic", "connected")

#: Largest order internal enumeration produces.
ENUMERATION_CAP = 8

#: Largest order whose hyperbolicity constant is computed exactly by default.
DEFAULT_VERTEX_CAP = 8
