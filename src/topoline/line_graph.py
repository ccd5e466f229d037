"""Line-graph construction and the degree identity that comes with it.

Line-graph vertices are indexed by the rank of the source edge in sorted
(u, v) order, so reports and the vertex map are deterministic.  Trivial
components (fewer than two edges) are rejected up front: the line graph of a
single edge is an isolated vertex, which would silently break every
index comparison downstream.
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .graph_core import Graph, GraphError


class TrivialComponentError(GraphError):
    """A component has fewer than two edges, so its line graph degenerates."""


@dataclass(frozen=True, eq=False)
class LineGraphResult:
    line_graph: Graph
    vertex_map: Mapping[tuple[int, int], int]  # source edge -> line-graph vertex


# One entry: a run checks one graph at a time, and an older L(G) is garbage.
@functools.lru_cache(maxsize=1)
def line_graph(g: Graph) -> LineGraphResult:
    """Construct L(g): one vertex per edge, adjacent iff the edges share an endpoint."""
    for comp in g._components:
        if comp.edge_count < 2:
            raise TrivialComponentError(
                f"non-trivial graph required: component {comp.vertices} "
                f"has {comp.edge_count} edge(s)"
            )
    edge_index = {e: i for i, e in enumerate(g.edges)}
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for e, i in edge_index.items():
        incident[e[0]].append(i)
        incident[e[1]].append(i)
    # Graph sorts the pairs itself; none repeats, as two edges share at most one end.
    lg = Graph(g.m, tuple(p for inc in incident for p in combinations(inc, 2)))

    degs = g.degrees
    for (u, v), i in edge_index.items():
        if lg.degrees[i] != degs[u] + degs[v] - 2:
            raise AssertionError(f"line-graph degree identity violated at edge {(u, v)}")

    return LineGraphResult(lg, types.MappingProxyType(edge_index))
