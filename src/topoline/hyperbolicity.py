"""Exact Gromov hyperbolicity of unit-edge metric graphs at desk scale.

The hyperbolicity constant delta(G) is the least t such that in every geodesic
triangle, each side lies in the t-neighborhood of the union of the other two
sides, where points range over the whole metric graph (every edge has length
1).  For such graphs delta is an integer multiple of 1/4, and it is attained
by a geodesic triangle whose corners lie in J(G), the set of vertices and edge
midpoints (Bermudo, Rodriguez, Sigarreta and Vilaire, "Gromov hyperbolic
graphs", Discrete Math. 313 (2013)).  That makes a finite computation
possible:

* every edge is subdivided into ``granularity`` equal segments, giving a
  lattice of integer indices on which shortest-path distances are exact
  rationals (see `SubdividedLattice`);
* triangle corners range over J(G), n + m points found by index, probe points
  over the full lattice;
* for a probe point p and a corner pair (a, b), the largest distance from p to
  *some* geodesic a-b is a bottleneck-path value, tabulated for every b at once
  by BFS level from a; the two far sides of a triangle maximize independently,
  so one reduction per probed side covers every apex, and no explicit
  enumeration of geodesic triangles is needed — all geodesic choices
  (including non-unique geodesics and degenerate two-corner triangles) are
  still covered exactly;
* no sampled value exceeds half the lattice diameter, so the search stops as
  soon as it reaches that bound;
* a disconnected graph is searched as one lattice: points in different
  components are at hop distance -1, so such a corner pair is never a side
  and delta is the largest over the components.

Why the default granularity 4 is exact.  The J(G) corners are points of the
k = 4 lattice, so every geodesic between two of them is a lattice path, and
the distance from a lattice point to a union of such paths is a lattice
distance, a multiple of 1/4.  Along a probed side the distance to the union
of the other two sides is 1-Lipschitz, and every point of the side lies
within 1/8 of a lattice point on it, so the sampled maximum is within 1/8 of
the supremum and never above it.  On a triangle attaining delta the
supremum is delta, a quarter-integer, and the sample, itself a
quarter-integer, equals it (the same argument holds at k = 8).  Should the
sampled value ever fall strictly between quarter-integers the result is
rounded up (delta is certified from below by an explicit triangle) and the
``rounded_up`` flag is set; the test suite asserts this never happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .catalog import DEFAULT_VERTEX_CAP
from .graph_core import Graph, is_forest

GRANULARITIES = (4, 8)  # k = 2 is not exact: it samples delta(C5) = 5/4 as 1
DEFAULT_GRANULARITY = 4
# Most cells the search's F table may hold, (n + m)(n + (k-1)m)^2 at granularity
# k.  Peak memory grows by about 10 bytes a cell (K14 at k = 4: 8.6 M cells,
# 87 MB), so the budget holds a search to under 1 GB.  No graph with n <= 8
# needs more than 1.5 M cells, even at k = 8.
SEARCH_CELL_BUDGET = 1 << 26


class HyperbolicityCapError(ValueError):
    """Exact computation refused; fall back to the m/4 upper bound."""


@dataclass(frozen=True)
class MetricPoint:
    """A point of the metric graph: ``offset`` along ``edge`` from its first endpoint.

    Offsets live on the working lattice (multiples of 1/8, which covers every
    supported granularity).  Vertex points are written with the degenerate
    pair ``(v, v)`` and offset 0.
    """

    edge: tuple[int, int]
    offset: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.offset <= 1:
            raise ValueError(f"offset must lie in [0, 1], got {self.offset}")
        if (self.offset * 8).denominator != 1:
            raise ValueError(f"offset must be a multiple of 1/8, got {self.offset}")

    @staticmethod
    def at_vertex(v: int) -> "MetricPoint":
        return MetricPoint((v, v), Fraction(0))

    def __str__(self) -> str:
        if self.edge[0] == self.edge[1]:
            return f"v{self.edge[0]}"
        return f"({self.edge[0]}-{self.edge[1]})@{self.offset}"


@dataclass(frozen=True, eq=False)
class SubdividedLattice:
    """All-pairs exact distances on the subdivision lattice of a graph.

    Points are integer indices: vertex v is index v, and the inner point
    ``step`` (1 <= step < k) of edge e is index n + e(k-1) + step - 1.
    ``hops[i, j]`` is the shortest-path distance in units of 1/granularity,
    or -1 when the points lie in different components.
    """

    graph: Graph
    granularity: int
    hops: np.ndarray

    def point(self, i: int) -> MetricPoint:
        """The metric point at index ``i``."""
        n, k = self.graph.n, self.granularity
        if i < n:
            return MetricPoint.at_vertex(i)
        e, step = divmod(i - n, k - 1)
        return MetricPoint(self.graph.edges[e], Fraction(step + 1, k))

    @property
    def points(self) -> tuple[MetricPoint, ...]:
        return tuple(map(self.point, range(len(self.hops))))

    def neighbours(self) -> list[list[int]]:
        """Lattice adjacency, one hop apart, read off each edge's chain of points."""
        n, k = self.graph.n, self.granularity
        adj: list[list[int]] = [[] for _ in range(len(self.hops))]
        for e, (u, v) in enumerate(self.graph.edges):
            first = n + e * (k - 1)
            chain = [u, *range(first, first + k - 1), v]
            for a, b in zip(chain, chain[1:]):
                adj[a].append(b)
                adj[b].append(a)
        return adj


def subdivided_distances(g: Graph, granularity: int) -> SubdividedLattice:
    """Split each edge into ``granularity`` segments and measure all lattice pairs."""
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity must be one of {GRANULARITIES}, got {granularity}")
    # numpy loads here, not at module import: runs that compute no delta never need it
    import numpy as np

    k = granularity
    # Vertex hops by Floyd-Warshall; a lattice path between two points leaves
    # each point's edge through one of its ends unless they share the edge.
    E = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    ends = np.concatenate([np.repeat(np.arange(g.n), 2).reshape(-1, 2), np.repeat(E, k - 1, axis=0)])
    steps = np.concatenate([np.zeros(g.n, dtype=np.int64), np.tile(np.arange(1, k), len(E))])
    offs = np.stack([steps, k - steps], axis=1)
    unreached = k * (g.n + 2)
    dv = np.full((g.n, g.n), unreached)
    np.fill_diagonal(dv, 0)
    dv[E[:, 0], E[:, 1]] = dv[E[:, 1], E[:, 0]] = k
    for w in range(g.n):
        np.minimum(dv, dv[:, w, None] + dv[w], out=dv)
    hops = np.abs(steps[:, None] - steps)
    hops[(ends[:, None] != ends).any(axis=2)] = unreached
    for a in (0, 1):
        for b in (0, 1):
            via = offs[:, a, None] + dv[np.ix_(ends[:, a], ends[:, b])] + offs[:, b]
            np.minimum(hops, via, out=hops)
    hops[hops >= unreached] = -1
    return SubdividedLattice(graph=g, granularity=k, hops=hops.astype(np.int32))


@dataclass(frozen=True, eq=False)
class GeodesicTriangle:
    """Witness triangle: ``sides[i]`` joins the two corners other than ``corners[i]``,
    and ``probe`` lies on ``sides[0]``."""

    corners: tuple[MetricPoint, MetricPoint, MetricPoint]
    sides: tuple[tuple[MetricPoint, ...], ...]
    probe: MetricPoint


@dataclass(frozen=True, eq=False)
class HyperbolicityResult:
    """``witness`` is None exactly when delta is 0 (every triangle is trivially thin)."""

    delta: Fraction
    witness: GeodesicTriangle | None
    granularity: int
    corner_points: int
    evaluations: int
    rounded_up: bool


def hyperbolicity_upper_bound(g: Graph) -> Fraction:
    """The m/4 bound; used beyond the exact-computation cap and as an invariant."""
    return Fraction(g.m, 4)


def _refuse_past_cap(n: int, cap: int = DEFAULT_VERTEX_CAP) -> None:
    """Refuse exact computation on ``n`` vertices past ``cap``."""
    if n > cap:
        raise HyperbolicityCapError(
            f"n={n} exceeds the exact-computation cap {cap}; "
            f"fall back to hyperbolicity_upper_bound() = m/4"
        )


def hyperbolicity_constant(
    g: Graph,
    granularity: int = DEFAULT_GRANULARITY,
    cap: int = DEFAULT_VERTEX_CAP,
) -> HyperbolicityResult:
    """Exact delta(G); disconnected graphs take the maximum over components.

    Refused past ``cap`` vertices or ``SEARCH_CELL_BUDGET`` search-table cells.
    """
    _refuse_past_cap(g.n, cap)
    cells = (g.n + g.m) * (g.n + (granularity - 1) * g.m) ** 2
    if cells > SEARCH_CELL_BUDGET:
        raise HyperbolicityCapError(
            f"n={g.n}, m={g.m} needs {cells} search-table cells, past the work budget "
            f"{SEARCH_CELL_BUDGET}; fall back to hyperbolicity_upper_bound() = m/4"
        )
    lat = subdivided_distances(g, granularity)
    # an edgeless graph has only trivial triangles (and n = 0 an empty lattice)
    best, witness, evaluations, corner_points = _lattice_delta(lat) if g.m else (0, None, 0, 0)

    value = Fraction(best, granularity)
    quarters = value * 4
    if quarters.denominator == 1:
        delta = value
        rounded = False
    else:
        delta = Fraction(math.ceil(quarters), 4)
        rounded = True

    _validate_structural_facts(g, delta, Fraction(int(lat.hops.max(initial=0)), granularity))
    return HyperbolicityResult(
        delta=delta,
        witness=witness,
        granularity=granularity,
        corner_points=corner_points,
        evaluations=evaluations,
        rounded_up=rounded,
    )


def _geodesic_walk(
    D: np.ndarray, adj: list[list[int]], frm: int, to: int, key=lambda r: -r
) -> list[int]:
    """A geodesic frm-to down the BFS-predecessor DAG of ``to``.

    Each step takes the neighbour one hop closer to ``to`` that maximizes
    ``key``; the default takes the smallest index.
    """
    path = [frm]
    while path[-1] != to:
        cur = path[-1]
        path.append(max((r for r in adj[cur] if D[to, r] == D[to, cur] - 1), key=key))
    return path


def _farthest_tables(D: np.ndarray, adj: list[list[int]], corners: np.ndarray) -> np.ndarray:
    """F[i, b, p]: over the geodesics corners[i]-b, the largest min hop distance p-to-path.

    Filled one BFS level from the corner at a time: F[i, b] is D[b] capped by the
    best F[i, r] over the predecessors r of b (neighbours one level closer).
    Entries with b or p in another component than corners[i] read -1.
    """
    import numpy as np

    width = max(len(a) for a in adj)
    # pad with the point itself, which is never its own predecessor
    nbr = np.array([list(a) + [q] * (width - len(a)) for q, a in enumerate(adj)])
    level = D[corners]
    F = np.full((len(corners), len(D), len(D)), -1, dtype=D.dtype)
    F[np.arange(len(corners)), corners] = level
    for step in range(1, int(level.max()) + 1):
        ci, q = np.nonzero(level == step)
        cand = nbr[q]
        prev = F[ci[:, None], cand]
        prev[level[ci[:, None], cand] != step - 1] = -1
        F[ci, q] = np.minimum(D[q], prev.max(axis=1))
    return F


def _lattice_delta(lat: SubdividedLattice):
    """Max sampled triangle value (in hops): corners in J(G), every lattice point a probe."""
    import numpy as np

    D = lat.hops.astype(np.min_scalar_type(-int(lat.hops.max()) - 1))
    adj = lat.neighbours()
    # J(G): vertex v is index v, the midpoint of edge e index n + e(k-1) + k/2 - 1
    n, k = lat.graph.n, lat.granularity
    corners = np.concatenate([np.arange(n), n + np.arange(lat.graph.m) * (k - 1) + k // 2 - 1])
    F = _farthest_tables(D, adj, corners)
    G = F[:, corners]  # G[x, e] = farthest value of geodesics x-e; symmetric in x, e
    wide = D[corners].astype(np.int32)  # the union test sums two distances
    # a probe on side e1-e2 is within d(p, e1) and d(p, e2) of the far sides, so
    # side e1-e2 samples at most d(e1, e2) // 2, and nothing exceeds max(D) // 2
    ceiling = int(D.max()) // 2

    best = 0
    best_args: tuple | None = None
    pairs = 0
    # Probe side e1-e2 (e1 < e2) against the sides from every apex x at once;
    # x in {e1, e2} is the degenerate two-corner triangle.  A corner pair in
    # different components reads -1 // 2 = -1, and an apex in another
    # component reads -1 throughout, so neither can beat best.
    for e1 in range(len(corners) - 1):
        if best >= ceiling:
            break
        # only sides long enough to beat best
        e2 = e1 + 1 + np.flatnonzero(wide[e1, corners[e1 + 1 :]] // 2 > best)
        if not len(e2):
            continue
        union = wide[e1] + wide[e2] == wide[e1, corners[e2], None]
        vals = G[:, e2]
        vals[:, ~union] = -1
        np.minimum(vals, G[:, e1, None], out=vals)
        peaks = vals.max(axis=2)
        pairs += len(e2)
        x, j = np.unravel_index(int(peaks.argmax()), peaks.shape)
        if peaks[x, j] > best:
            best = int(peaks[x, j])
            best_args = (int(x), e1, int(e2[j]), int(vals[x, j].argmax()))

    witness = None
    if best_args is not None:
        witness = _build_witness(lat, D, adj, F, corners, best_args)
    return best, witness, len(corners) * pairs, len(corners)


def _build_witness(lat, D, adj, F, corners, args) -> GeodesicTriangle:
    x, e1, e2, p = args
    apex, a, b = (int(corners[c]) for c in (x, e1, e2))

    def pts(path: list[int]) -> tuple[MetricPoint, ...]:
        return tuple(map(lat.point, path))

    def far_side(end: int) -> tuple[MetricPoint, ...]:
        # a geodesic apex-end attaining F[x, end, p]: walk back from end over
        # the apex's table, ties to the smallest index
        return pts(_geodesic_walk(D, adj, end, apex, key=lambda r: (F[x, r, p], -r))[::-1])

    probe_path = _geodesic_walk(D, adj, a, p) + _geodesic_walk(D, adj, p, b)[1:]
    # an apex equal to a or b makes one far side that single corner
    sides = (pts(probe_path), far_side(b), far_side(a))  # sides[0] joins a-b, opposite the apex
    return GeodesicTriangle(pts([apex, a, b]), sides, lat.point(p))


def _validate_structural_facts(g: Graph, delta: Fraction, diameter: Fraction) -> None:
    # Proven facts about delta of simple unit-edge graphs; a violation here
    # means the computation itself is broken, so fail loudly.
    if (delta * 4).denominator != 1:
        raise RuntimeError(f"delta={delta} is not a quarter-integer")
    if delta in (Fraction(1, 4), Fraction(1, 2)):
        raise RuntimeError(f"delta={delta} is impossible for a simple graph")
    if is_forest(g):
        if delta != 0:
            raise RuntimeError(f"forest must have delta 0, computed {delta}")
    elif delta < Fraction(3, 4):
        raise RuntimeError(f"non-forest must have delta >= 3/4, computed {delta}")
    if delta > hyperbolicity_upper_bound(g):
        raise RuntimeError(f"delta={delta} exceeds the m/4 bound {hyperbolicity_upper_bound(g)}")
    if delta > diameter / 2:
        raise RuntimeError(f"delta={delta} exceeds half the diameter {diameter}")
