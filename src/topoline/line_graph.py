"""Line-graph construction and the degree identity that comes with it.

Vertex i of L(G) is edge i of G, that is ``g.edges[i]`` in sorted (u, v)
order, so reports are deterministic.  Trivial components (fewer than two
edges) are rejected up front: the line graph of a single edge is an isolated
vertex, which would silently break every index comparison downstream.
"""

from __future__ import annotations

import functools
from itertools import chain, combinations, repeat

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
    # Each list is increasing, so every pair has i < j; none repeats, as two
    # edges share at most one end.  So one sort gives Graph's normal form.
    pairs = sorted(chain.from_iterable(map(combinations, incident, repeat(2))))
    lg = Graph._from_sorted_pairs(g.m, tuple(pairs))

    degs, line_degs = g.degrees, lg.degrees
    for i, (u, v) in enumerate(g.edges):
        if line_degs[i] != degs[u] + degs[v] - 2:
            raise AssertionError(f"line-graph degree identity violated at edge {(u, v)}")
    return lg
