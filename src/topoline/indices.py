"""Vertex-degree-based topological indices, exact wherever no root appears.

All edge-sum indices follow the shape sum over edges uv of f(d_u, d_v).  The
root-free ones (first/second Zagreb, forgotten, harmonic, Platt) are computed
as exact rationals.  The geometric-arithmetic index carries a square root per
edge and is reported as a float; when every edge product d_u*d_v is a perfect
square (regular graphs, many biregular ones) an exact rational value is kept
alongside so that equality cases never depend on rounding.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .catalog import INDEX_NAMES  # also importable from here
from .graph_core import Graph


class IsolatedVertexError(ValueError):
    """The input violates the standing assumption that every component has an edge."""


def _require_no_isolated(g: Graph) -> None:
    if g.n and g.min_degree == 0:
        isolated = [v for v, d in enumerate(g.degrees) if d == 0]
        raise IsolatedVertexError(
            f"isolated vertices {isolated}: every component needs at least one edge"
        )


def exact_sqrt(k: int) -> int | None:
    """Integer square root of ``k`` if ``k`` is a perfect square, else None."""
    if k < 0:
        return None
    r = math.isqrt(k)
    return r if r * r == k else None


@dataclass(frozen=True)
class IndexVector:
    """All degree-based quantities for one graph.

    ``ga1_exact`` is set iff every edge term of the geometric-arithmetic index
    is rational; it then equals ``ga1`` up to float rounding.
    """

    m1: Fraction
    m2: Fraction
    forgotten: Fraction
    harmonic: Fraction
    ga1: float
    platt: Fraction
    ga1_exact: Fraction | None = None

    def ga1_value(self) -> Fraction | float:
        """Exact geometric-arithmetic value when available, float otherwise."""
        return self.ga1_exact if self.ga1_exact is not None else self.ga1


def _ratio_sum(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """Numerator and denominator of sum(w / d) over ``(w, d)`` terms with d >= 1:
    integer numerators over lcm(d), not reduced; (0, 1) for no terms."""
    den = math.lcm(*(d for _, d in terms))
    return sum(w * (den // d) for w, d in terms), den


def compute_index_vector(g: Graph) -> IndexVector:
    """Compute every index at once, asserting the internal exact identities.

    Every edge sum is taken over the degree-pair counts m_ij, so a term is
    evaluated once per distinct pair (i, j), not once per edge.
    """
    _require_no_isolated(g)
    degs = g.degrees
    # m_ij: the number of edges joining degrees i <= j
    pair_counts: Counter[tuple[int, int]] = Counter()
    for (i, j), c in Counter((degs[u], degs[v]) for u, v in g.edges).items():
        pair_counts[(i, j) if i <= j else (j, i)] += c
    counts = pair_counts.items()
    m1_edges = sum(c * (i + j) for (i, j), c in counts)
    m1_squares = sum(d * d for d in degs)
    if m1_edges != m1_squares:
        raise AssertionError("the two first-Zagreb formulas disagree")
    m2 = sum(c * i * j for (i, j), c in counts)
    forgotten = sum(d ** 3 for d in degs)
    harmonic = Fraction(*_ratio_sum([(2 * c, i + j) for (i, j), c in counts]))
    platt = sum(c * (i + j - 2) for (i, j), c in counts)
    if platt != m1_edges - 2 * g.m:
        raise AssertionError("Platt identity P = M1 - 2m violated")

    # fsum is correctly rounded, so repeating each pair's term c times gives
    # the same float as summing one term per edge (c * term would not).
    ga1 = math.fsum(itertools.chain.from_iterable(
        itertools.repeat(2.0 * math.sqrt(i * j) / (i + j), c) for (i, j), c in counts
    ))
    roots = {(i, j): exact_sqrt(i * j) for i, j in pair_counts}
    ga1_exact = (
        Fraction(*_ratio_sum([(2 * c * roots[i, j], i + j) for (i, j), c in counts]))
        if None not in roots.values() else None
    )

    return IndexVector(
        m1=Fraction(m1_edges),
        m2=Fraction(m2),
        forgotten=Fraction(forgotten),
        harmonic=harmonic,
        ga1=ga1,
        platt=Fraction(platt),
        ga1_exact=ga1_exact,
    )
