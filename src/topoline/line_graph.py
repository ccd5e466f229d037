"""Line-graph construction and the degree identity that comes with it.

Vertex i of L(G) is edge i of G, that is ``g.edges[i]`` in sorted (u, v)
order, so reports are deterministic.  Trivial components (fewer than two
edges) are rejected up front: the line graph of a single edge is an isolated
vertex, which would silently break every index comparison downstream.
"""

from __future__ import annotations

import functools
from itertools import combinations

from .graph_core import Graph, GraphError


class TrivialComponentError(GraphError):
    """A component has fewer than two edges, so its line graph degenerates."""


# One entry: a run checks one graph at a time, and an older L(G) is garbage.
@functools.lru_cache(maxsize=1)
def line_graph(g: Graph) -> Graph:
    """L(g): vertex i is ``g.edges[i]``, and two vertices are adjacent iff
    their edges share an endpoint."""
    for comp in g._components:
        if comp.edge_count < 2:
            raise TrivialComponentError(
                f"non-trivial graph required: component {comp.vertices} "
                f"has {comp.edge_count} edge(s)"
            )
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        incident[u].append(i)
        incident[v].append(i)
    # Graph sorts the pairs itself; none repeats, as two edges share at most one end.
    lg = Graph(g.m, tuple(p for inc in incident for p in combinations(inc, 2)))

    degs = g.degrees
    for i, (u, v) in enumerate(g.edges):
        if lg.degrees[i] != degs[u] + degs[v] - 2:
            raise AssertionError(f"line-graph degree identity violated at edge {(u, v)}")
    return lg
