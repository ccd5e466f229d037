"""Immutable simple graphs and the structural predicates the theorem checks need.

Vertices are dense 0-indexed integers.  A :class:`Graph` is a hashable value:
two graphs compare equal iff they have the same vertex count and edge set
(labels matter; use :func:`is_isomorphic` for label-free comparison).
Disconnected graphs are first-class; every predicate that the literature states
"per connected component" is evaluated per component here.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Sequence

#: Default vertex cap for exact canonicalization (brute force with pruning).
CANONICAL_CAP = 10


class GraphError(ValueError):
    """Invalid graph construction or an out-of-contract operation."""


class CanonicalCapError(GraphError):
    """Graph too large for exact canonicalization."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``edges`` is normalized on construction: endpoints sorted, duplicates
    removed, pairs stored in lexicographic order.  Loops and out-of-range
    vertices are rejected.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError(f"vertex count must be non-negative, got {self.n}")
        normalized = set()
        for pair in self.edges:
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise GraphError(f"edge {pair!r} is not a pair of vertices") from None
            if type(u) is not int or type(v) is not int:
                try:
                    u, v = operator.index(u), operator.index(v)
                except TypeError:
                    raise GraphError(f"edge {tuple(pair)!r} has a non-integer vertex label") from None
            if u == v:
                raise GraphError(f"loop edge {tuple(pair)!r} is not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge {tuple(pair)!r} out of range for n={self.n}")
            normalized.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @classmethod
    def _from_sorted_pairs(cls, n: int, edges: tuple[tuple[int, int], ...]) -> Graph:
        """The graph on ``n`` vertices with exactly ``edges``, built unchecked.

        ``edges`` must already be what ``__post_init__`` would make of it:
        distinct ``(u, v)`` pairs of ints with ``0 <= u < v < n``, in sorted
        order.  Nothing here checks it.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        neigh: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            neigh[u].add(v)
            neigh[v].add(u)
        return tuple(frozenset(s) for s in neigh)

    @functools.cached_property
    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        if sum(degs) != 2 * self.m:
            raise AssertionError("degree-sum invariant violated")
        return tuple(degs)

    @functools.cached_property
    def max_degree(self) -> int:
        """Largest vertex degree; 0 for the empty graph."""
        return max(self.degrees, default=0)

    @functools.cached_property
    def min_degree(self) -> int:
        """Smallest vertex degree; 0 for the empty graph."""
        return min(self.degrees, default=0)

    @functools.cached_property
    def _adj_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @functools.cached_property
    def _components(self) -> tuple[ComponentInfo, ...]:
        return _decompose(self)

    @functools.cached_property
    def _canonical_key(self) -> str:
        cols = _min_columns(self._adj_masks, self.n)
        bits = "".join(format(col, f"0{t}b") for t, col in enumerate(cols) if t >= 1)
        return f"{self.n}:{bits}"

    @functools.cached_property
    def index_vector(self) -> IndexVector:
        """Every degree-based index of this graph (see :mod:`topoline.indices`)."""
        from . import indices  # here, as indices imports this module; looked up per call
        return indices.compute_index_vector(self)


# ---------------------------------------------------------------------------
# Standard small-graph constructors (used heavily by tests and the CLI docs).

def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def star_graph(n: int) -> Graph:
    """Star on ``n`` vertices: center 0 joined to 1..n-1."""
    if n < 1:
        raise GraphError("star needs n >= 1")
    return Graph(n, tuple((0, i) for i in range(1, n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    shifted = tuple((u + g1.n, v + g1.n) for u, v in g2.edges)
    return Graph(g1.n + g2.n, g1.edges + shifted)


# ---------------------------------------------------------------------------
# Degrees and components.

@dataclass(frozen=True)
class ComponentInfo:
    """One connected component with its classification flags.

    ``regular`` and ``biregular`` are disjoint by convention: biregular means
    the degree set is exactly {a, b} with a != b and every edge joins a
    degree-a endpoint to a degree-b endpoint (the condition under which the
    component's line graph is regular).
    """

    vertices: tuple[int, ...]
    edge_count: int
    regular: bool
    biregular: bool
    tree: bool


def _decompose(g: Graph) -> tuple[ComponentInfo, ...]:
    """The one component walk; ``Graph._components`` caches its result."""
    adj, degs = g.adjacency, g.degrees
    seen = [False] * g.n
    infos = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for u in comp:  # breadth-first: comp grows while it is scanned
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comp.sort()
        nc = len(comp)
        mc = sum(degs[v] for v in comp) // 2
        degset = {degs[v] for v in comp}
        # With exactly two degrees, every edge joins them iff no edge joins equal ones.
        biregular = len(degset) == 2 and all(degs[w] != degs[u] for u in comp for w in adj[u])
        infos.append(ComponentInfo(
            vertices=tuple(comp),
            edge_count=mc,
            regular=len(degset) == 1,
            biregular=biregular,
            tree=mc == nc - 1,
        ))
    return tuple(infos)


def components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Connected components as sorted vertex tuples, ordered by smallest vertex."""
    return tuple(c.vertices for c in g._components)


def is_connected(g: Graph) -> bool:
    return len(g._components) <= 1


def is_forest(g: Graph) -> bool:
    return all(c.tree for c in g._components)


def is_non_trivial(g: Graph) -> bool:
    """Every component has at least 2 edges (true for the empty graph)."""
    return all(c.edge_count >= 2 for c in g._components)


def all_regular(g: Graph) -> bool:
    return all(c.regular for c in g._components)


def all_regular_or_biregular(g: Graph) -> bool:
    return all(c.regular or c.biregular for c in g._components)


# ---------------------------------------------------------------------------
# Canonical form and isomorphism.
#
# The key is the lexicographically minimal upper-triangular adjacency bit
# string over all vertex permutations, with bits read column by column:
# (0,1), (0,2), (1,2), (0,3), ... (the graph6 bit order).  The search fills
# positions level by level.  A state is a partial ordering: its ``used``
# bitmask and each free vertex's column so far (its adjacency to the placed
# vertices, in order).  Every state shares the minimal columns so far; a level
# keeps only the placements that achieve the least next column over all
# states, so an ordering dies at the first column where it loses.  Within a
# state, a tied vertex interchangeable with an already-kept one (same
# adjacency to every other free vertex) is dropped: the two orderings differ by
# an automorphism that fixes the prefix.


def _min_columns(masks: Sequence[int], n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    states = [(0, dict.fromkeys(range(n), 0))]
    cols: list[int] = []
    for _ in range(n):
        cmin = min(min(free.values()) for _, free in states)
        level = []
        for used, free in states:
            kept: list[int] = []
            for v, c in free.items():
                if c != cmin:
                    continue
                mv = masks[v]
                for u in kept:
                    rest = full & ~used & ~(1 << u) & ~(1 << v)
                    if masks[u] & rest == mv & rest:
                        break
                else:
                    kept.append(v)
            for w in kept:
                level.append((used | 1 << w, {
                    v: (c << 1) | (masks[v] >> w & 1) for v, c in free.items() if v != w
                }))
        cols.append(cmin)
        states = level
    return tuple(cols)


def canonical_form(g: Graph, cap: int = CANONICAL_CAP) -> str:
    """Canonical key: identical keys iff the graphs are isomorphic.

    The minimal adjacency bit string, computed once per ``Graph`` object; cost
    is exponential in the worst case, hence the explicit cap.
    """
    if g.n > cap:
        raise CanonicalCapError(
            f"graph on {g.n} vertices is too large for exact canonicalization (cap {cap})"
        )
    return g._canonical_key


def with_canonical_key(g: Graph, key: str) -> Graph:
    """``g``, its canonical key set to ``key`` without a search.

    ``key`` must be the canonical form of a graph equal to ``g``, such as the
    one ``g`` was decoded from again.
    """
    object.__setattr__(g, "_canonical_key", key)  # where the cached property keeps it
    return g


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test by canonical-form comparison.

    Intended for small graphs (n <= 10); larger inputs are accepted but the
    canonical search may be slow.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.degrees) != sorted(g2.degrees):
        return False
    cap = max(CANONICAL_CAP, g1.n)
    return canonical_form(g1, cap=cap) == canonical_form(g2, cap=cap)
