"""Every bound and identity of the catalog as an executable check.

Each check returns a :class:`BoundCheckResult` with the evaluated sides, a
satisfied flag, an equality flag and the slack (rhs - lhs for upper bounds,
lhs - rhs for lower bounds, so satisfied means slack >= 0 up to tolerance).
Rational comparisons are exact; comparisons involving the geometric-arithmetic
index or the hyperbolicity bound fall back to floats with tolerance 1e-9.
Checks whose preconditions fail return a first-class not-applicable result
rather than being skipped, so reports account for coverage.

Every result comes from one of six rules: ``_not_applicable``, ``_compare``
(one bound), ``_combine`` (every part must hold), ``_loosest`` (the loosest
of several named bounds decides: T1, T6), ``_equality_iff`` (an "equality
iff" claim: T9) and ``_lemma_decision`` (T10, for one bound, one vertex or
the graph).  No check body builds a result itself.

Each graph check declares one of three cumulative precondition levels:

standing     the standing assumption: n >= 1, m >= 1, no isolated vertex
non_trivial  standing, and every component has at least 2 edges
cyclic       non_trivial, connected and not a tree

Catalog (global Delta = max degree, delta_min = min degree, n, m as usual):

T1   M1(G) <= max{2D^2+m^2+(6-2D)m-2D-4, 2D^2+m^2+(4-2D)m+4, m(m-1)}  [standing]
T2   GA1(G) + GA1(L(G)) <= half of the T1 maximum            [non_trivial]
T3   m_L = P/2,  P = M1 - 2m,  m = (M1 - P)/2                [non_trivial]
T4   sqrt((D-1)(d-1))/(D+d-2) * P <= GA1(L(G)) <= P/2  and
     sqrt(D d)/(D+d) * (M1-P) <= GA1(G) <= (M1-P)/2          [non_trivial]
T5   GA1(L(G)) >= (4 delta(G) - 1)^(3/2) / (2 delta(G))      [cyclic]
T6   GA1(G) >= min{1/(2D), 2 sqrt(D d)/(D+d)^2} * M1(G); equality for regular G
                                                             [standing]
T7   M1(L(G)) = 4m - 4 M1(G) + 2 M2(G) + F(G)                [non_trivial]
T8   GA1(L(G)) >= min{1/(4(D-1)), sqrt((D-1)(d-1))/(D+d-2)^2} * M1(L(G))
                                                             [non_trivial]
T9   H(G) <= n/2 (equality iff all components regular) and
     H(L(G)) <= m/2 (equality iff all components regular or biregular)
                                         [standing; line branch non_trivial]
T10  for integers 3 <= k <= D and x_1..x_k in [1, D], with
     S = sum_j 1/(x_j+k) and T = sum_{i<j} 1/(x_i+x_j+2k-4)
     (both summed over the distinct x values, weighted by their counts):
     2/(k-1) * T <= S <= 2(D+2k-3)/(k^2-1) * T   and
     2/(D-1) * T <= S <= (D+3)/4 * T
     [on a graph, standing and a vertex of degree >= 3]
T11  c_low * H(G) <= H(L(G)) <= c_high * H(G) with
     (c_low, c_high) = (8/11, 1) if D < 3, (4/(D+3), D-1) if 3 <= D <= 4,
     (3/(2D-1), D-1) if D > 4                                 [non_trivial]
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Union

from .catalog import THEOREM_IDS, THEOREM_STATEMENTS  # also importable from here
from .graph_core import (
    Graph,
    all_regular,
    all_regular_or_biregular,
    is_connected,
    is_forest,
    is_non_trivial,
)
from .hyperbolicity import HyperbolicityCapError, hyperbolicity_constant
from .indices import exact_sqrt
from .line_graph import line_graph

REAL_TOLERANCE = 1e-9

Value = Union[Fraction, float]

#: Per-graph dispatch table used by the verification harness; :func:`_check`
#: fills it in catalog order.
GRAPH_CHECKS: dict[str, Callable[[Graph], "BoundCheckResult"]] = {}


@dataclass(frozen=True, eq=False)
class BoundCheckResult:
    """Outcome of one theorem instance on one input.

    ``branches`` carries sub-inequalities or per-branch values (e.g. the three
    T1 expressions) for auditability; ``satisfied`` on the top-level result is
    the conjunction over all mandatory sub-checks.  It is a tuple, except on
    :func:`check_T10_on_graph`'s result, where it is a read-only sequence of
    the per-vertex results, built on first iteration or indexing (``len()``
    builds nothing).  The JSON report (``io_formats._check_json``) and the
    tests are its only readers, so a CSV report never builds them.
    """

    theorem_id: str
    lhs: Value | None
    rhs: Value | None
    satisfied: bool
    equality: bool
    slack: Value | None
    applicable: bool = True
    reason: str = ""
    branches: Sequence["BoundCheckResult"] = ()

    def __post_init__(self) -> None:
        if self.equality and not self.satisfied:
            raise AssertionError("equality implies satisfied")


def _not_applicable(theorem_id: str, reason: str) -> BoundCheckResult:
    return BoundCheckResult(
        theorem_id, None, None, satisfied=True, equality=False, slack=None,
        applicable=False, reason=reason,
    )


def _tolerance(diff: Value) -> float:
    """0 for an exact difference, REAL_TOLERANCE once a float is involved."""
    return 0 if isinstance(diff, (Fraction, int)) else REAL_TOLERANCE


def _compare(theorem_id: str, lhs: Value, rhs: Value, kind: str) -> BoundCheckResult:
    """Build a result for lhs <= rhs ("upper"), lhs >= rhs ("lower") or lhs == rhs.

    Two ``Fraction``s are decided from the numerator of rhs - lhs over the
    product of their denominators: one cross-multiplication, no tolerance."""
    if type(lhs) is Fraction and type(rhs) is Fraction:
        ld, rd = lhs.denominator, rhs.denominator
        num = rhs.numerator * ld - lhs.numerator * rd
        if kind == "lower":
            num = -num
        elif kind != "upper":
            num = -abs(num)
        return BoundCheckResult(theorem_id, lhs, rhs, num >= 0, num == 0, Fraction(num, ld * rd))
    diff = rhs - lhs
    tolerance = _tolerance(diff)
    if kind == "upper":
        slack = diff
    elif kind == "lower":
        slack = -diff
    else:
        slack = -abs(diff)
    satisfied = slack >= -tolerance
    equality = abs(diff) <= tolerance and satisfied
    return BoundCheckResult(theorem_id, lhs, rhs, satisfied, equality, slack)


def _combine(theorem_id: str, parts: list[BoundCheckResult], reason: str = "") -> BoundCheckResult:
    satisfied = all(p.satisfied for p in parts)
    equality = satisfied and any(p.equality for p in parts if p.applicable)
    scored = [p for p in parts if p.slack is not None]
    binding = min(scored, key=lambda p: float(p.slack)) if scored else parts[0]
    return BoundCheckResult(
        theorem_id, binding.lhs, binding.rhs, satisfied, equality, binding.slack,
        reason=reason, branches=tuple(parts),
    )


def _loosest(theorem_id: str, lhs: Value, kind: str,
             bounds: Sequence[tuple[str, Value]]) -> BoundCheckResult:
    """lhs against the loosest of the named ``bounds`` ("upper": the largest
    rhs, "lower": the smallest); each bound is recorded as a branch."""
    rhs = (max if kind == "upper" else min)((r for _, r in bounds), key=float)
    return replace(_compare(theorem_id, lhs, rhs, kind),
                   branches=tuple(_compare(name, lhs, r, kind) for name, r in bounds))


def _equality_iff(theorem_id: str, bound: BoundCheckResult, what: str,
                  flag: bool) -> BoundCheckResult:
    """The claim "``bound`` is tight iff ``what``", given whether ``what`` holds."""
    return BoundCheckResult(
        theorem_id, None, None, satisfied=bound.equality == flag, equality=False, slack=None,
        reason=f"equality={bound.equality}, {what}={flag}",
    )


#: Precondition levels, each implying the ones before it.
_LEVELS = ("standing", "non_trivial", "cyclic")


def _unmet(g: Graph, level: int) -> str:
    """Why ``g`` fails the precondition level, or "" if it meets it."""
    if g.n == 0:
        return "empty graph"
    if g.m == 0:
        return "no edges"
    if g.min_degree == 0:
        return "isolated vertex violates the standing assumption"
    if level >= 1 and not is_non_trivial(g):
        return "trivial graph (a component has fewer than 2 edges)"
    if level >= 2:
        if not is_connected(g):
            return "disconnected graph"
        if is_forest(g):
            return "tree: hyperbolicity constant is 0"
    return ""


def _check(theorem_id: str, needs: str = "standing"):
    """Register a graph check in GRAPH_CHECKS behind its precondition guard.

    The body is called as ``body(g)`` only when ``g`` meets ``needs``;
    otherwise the check returns a not-applicable result naming the first
    unmet hypothesis.
    """
    level = _LEVELS.index(needs)

    def decorate(body):
        @functools.wraps(body)
        def check(g: Graph) -> BoundCheckResult:
            reason = _unmet(g, level)
            if reason:
                return _not_applicable(theorem_id, reason)
            return body(g)

        GRAPH_CHECKS[theorem_id] = check
        return check

    return decorate


def _sqrt_ratio(num_product: int, denom: int) -> Value:
    """sqrt(num_product)/denom, exact when the radicand is a perfect square."""
    root = exact_sqrt(num_product)
    if root is not None:
        return Fraction(root, denom)
    return math.sqrt(num_product) / denom


def _t1_expressions(max_degree: int, m: int) -> tuple[Fraction, Fraction, Fraction]:
    d = max_degree
    e1 = Fraction(2 * d * d + m * m + (6 - 2 * d) * m - 2 * d - 4)
    e2 = Fraction(2 * d * d + m * m + (4 - 2 * d) * m + 4)
    e3 = Fraction(m * (m - 1))
    return e1, e2, e3


# ---------------------------------------------------------------------------
# T1 .. T11


@_check("T1")
def check_T1_m1_upper(g: Graph) -> BoundCheckResult:
    e1, e2, e3 = _t1_expressions(g.max_degree, g.m)
    return _loosest("T1", g.index_vector.m1, "upper", (
        ("T1.near_max_sum", e1), ("T1.two_high_degrees", e2), ("T1.edge_product", e3)))


@_check("T2", needs="non_trivial")
def check_T2_ga_sum(g: Graph) -> BoundCheckResult:
    lhs = g.index_vector.ga1_value() + line_graph(g).index_vector.ga1_value()
    rhs = max(_t1_expressions(g.max_degree, g.m)) / 2
    return _compare("T2", lhs, rhs, "upper")


@_check("T3", needs="non_trivial")
def check_T3_line_identities(g: Graph) -> BoundCheckResult:
    iv = g.index_vector
    m_line = Fraction(line_graph(g).m)
    parts = [
        _compare("T3.line_edges", m_line, iv.platt / 2, "identity"),
        _compare("T3.platt", iv.platt, iv.m1 - 2 * g.m, "identity"),
        _compare("T3.edges", Fraction(g.m), (iv.m1 - iv.platt) / 2, "identity"),
    ]
    return _combine("T3", parts)


@_check("T4", needs="non_trivial")
def check_T4_ga_platt(g: Graph) -> BoundCheckResult:
    d_max, d_min = g.max_degree, g.min_degree
    iv = g.index_vector
    ga = iv.ga1_value()
    ga_line = line_graph(g).index_vector.ga1_value()
    platt = iv.platt

    line_coeff = _sqrt_ratio((d_max - 1) * (d_min - 1), d_max + d_min - 2)
    graph_coeff = _sqrt_ratio(d_max * d_min, d_max + d_min)
    two_m = iv.m1 - platt
    parts = [
        _compare("T4.line_lower", ga_line, line_coeff * platt, "lower"),
        _compare("T4.line_upper", ga_line, platt / 2, "upper"),
        _compare("T4.graph_lower", ga, graph_coeff * two_m, "lower"),
        _compare("T4.graph_upper", ga, two_m / 2, "upper"),
    ]
    return _combine("T4", parts)


@_check("T5", needs="cyclic")
def check_T5_ga_hyperbolicity(g: Graph) -> BoundCheckResult:
    try:
        delta = hyperbolicity_constant(g).delta
    except HyperbolicityCapError as exc:
        return _not_applicable("T5", str(exc))
    return ga_hyperbolicity_bound(g, delta)


def ga_hyperbolicity_bound(g: Graph, delta: Fraction) -> BoundCheckResult:
    """T5 on a connected non-tree ``g`` whose hyperbolicity constant is ``delta``."""
    lhs = line_graph(g).index_vector.ga1_value()
    rhs = float(4 * delta - 1) ** 1.5 / float(2 * delta)
    return replace(_compare("T5", lhs, rhs, "lower"), reason=f"delta={delta}")


@_check("T6")
def check_T6_ga_vs_m1(g: Graph) -> BoundCheckResult:
    d_max, d_min = g.max_degree, g.min_degree
    iv = g.index_vector
    c1 = Fraction(1, 2 * d_max)
    c2 = 2 * _sqrt_ratio(d_max * d_min, (d_max + d_min) ** 2)
    return _loosest("T6", iv.ga1_value(), "lower", (
        ("T6.max_degree_branch", c1 * iv.m1), ("T6.mixed_branch", c2 * iv.m1)))


@_check("T7", needs="non_trivial")
def check_T7_m1_line_identity(g: Graph) -> BoundCheckResult:
    iv = g.index_vector
    rhs = 4 * g.m - 4 * iv.m1 + 2 * iv.m2 + iv.forgotten
    return _compare("T7", line_graph(g).index_vector.m1, rhs, "identity")


@_check("T8", needs="non_trivial")
def check_T8_ga_line_lower(g: Graph) -> BoundCheckResult:
    d_max, d_min = g.max_degree, g.min_degree
    line = line_graph(g).index_vector
    c1 = Fraction(1, 4 * (d_max - 1))
    c2 = _sqrt_ratio((d_max - 1) * (d_min - 1), (d_max + d_min - 2) ** 2)
    return _compare("T8", line.ga1_value(), min(c1, c2, key=float) * line.m1, "lower")


@_check("T9")
def check_T9_harmonic_bounds(g: Graph) -> BoundCheckResult:
    order = _compare("T9.order_bound", g.index_vector.harmonic, Fraction(g.n, 2), "upper")
    parts = [order, _equality_iff("T9.order_equality_iff_regular", order,
                                  "all components regular", all_regular(g))]
    if not is_non_trivial(g):
        return _combine("T9", parts, reason="line branch skipped: trivial graph")
    line = _compare("T9.line_bound", line_graph(g).index_vector.harmonic, Fraction(g.m, 2), "upper")
    return _combine("T9", [*parts, line, _equality_iff(
        "T9.line_equality_iff_regular_or_biregular", line,
        "all components regular-or-biregular", all_regular_or_biregular(g))])


#: One bound of the lemma on integers: (name, s_num, s_den, r_num, r_den,
#: slack_num) for S = s_num/s_den against the bound r = r_num/r_den, whose
#: slack is slack_num/(r_den s_den); the bound is tight iff slack_num == 0.
_LemmaBound = tuple[str, int, int, int, int, int]


def _lemma_ints(k: int, d_max: int, xs: Iterable[int]) -> list[_LemmaBound]:
    """The lemma's four bounds on a tuple known to be valid, as integers.

    S = sum c_v/(v+k) and T = sum_{v<w} c_v c_w/(v+w+2k-4) + sum_v C(c_v, 2)/(2v+2k-4)
    over the distinct entries v with counts c_v are summed as integer
    numerators over the lcm of their distinct denominators.  With
    st = s_num t_den and ts = t_num s_den, the bound (num/den) T against S
    has rhs - S = (num ts - den st)/(den t_den s_den), so each bound is
    decided by the sign of that numerator; no :class:`Fraction` is built."""
    counts: dict[int, int] = {}
    for x in xs:
        counts[x] = counts.get(x, 0) + 1
    s_den = math.lcm(*[v + k for v in counts])
    s_num = 0
    shift = 2 * k - 4
    t_terms: dict[int, int] = {}  # T's weight per distinct denominator
    seen: list[tuple[int, int]] = []
    for v, c in counts.items():
        s_num += c * (s_den // (v + k))
        if c > 1:
            d = 2 * v + shift
            t_terms[d] = t_terms.get(d, 0) + c * (c - 1) // 2
        for w, cw in seen:
            d = v + w + shift
            t_terms[d] = t_terms.get(d, 0) + c * cw
        seen.append((v, c))
    t_den = math.lcm(*t_terms)
    t_num = 0
    for d, weight in t_terms.items():
        t_num += weight * (t_den // d)
    st, ts = s_num * t_den, t_num * s_den
    bounds = []
    # S against (num/den) T: an upper bound is S <= rhs, a lower one S >= rhs
    for name, num, den, upper in (
        ("T10.lemma_lower", 2, k - 1, False),
        ("T10.lemma_upper", 2 * (d_max + 2 * k - 3), k * k - 1, True),
        ("T10.corollary_lower", 2, d_max - 1, False),
        ("T10.corollary_upper", d_max + 3, 4, True),
    ):
        gap = num * ts - den * st  # sign of rhs - S
        bounds.append((name, s_num, s_den, num * t_num, den * t_den, gap if upper else -gap))
    return bounds


def _lemma_decision(theorem_id: str, bounds: Sequence[_LemmaBound],
                    branches: Sequence[BoundCheckResult] = ()) -> BoundCheckResult:
    """The lemma's result over ``bounds`` (one bound, one vertex's four, or
    every vertex's), decided from their integers: satisfied if every slack
    numerator is >= 0, equality if also one is 0, and the binding bound the
    first least slack, keyed by ``slack_num / (r_den * s_den)``, which int/int
    true division rounds to the ``float`` of the slack that :func:`_combine`
    keys on.  Only the binding bound becomes :class:`Fraction`s."""
    satisfied = all(b[5] >= 0 for b in bounds)
    equality = satisfied and any(b[5] == 0 for b in bounds)
    _, s_num, s_den, r_num, r_den, slack = min(bounds, key=lambda b: b[5] / (b[4] * b[2]))
    return BoundCheckResult(theorem_id, Fraction(s_num, s_den), Fraction(r_num, r_den),
                            satisfied, equality, Fraction(slack, r_den * s_den),
                            branches=branches)


def _lemma_result(theorem_id: str, bounds: Sequence[_LemmaBound]) -> BoundCheckResult:
    """One vertex's lemma result from :func:`_lemma_ints`, each bound a branch."""
    return _lemma_decision(theorem_id, bounds, tuple(_lemma_decision(b[0], [b]) for b in bounds))


class _VertexLemmas(Sequence):
    """T10's per-vertex results ``T10.vertex{u}``, built from the kept
    integers on first access and then held; ``len()`` builds nothing."""

    def __init__(self, kept: list[tuple[int, list[_LemmaBound]]]) -> None:
        self._kept = kept  # (u, bounds) per vertex of degree >= 3

    @functools.cached_property
    def _results(self) -> tuple[BoundCheckResult, ...]:
        return tuple(_lemma_result(f"T10.vertex{u}", bounds) for u, bounds in self._kept)

    def __len__(self) -> int:
        return len(self._kept)

    def __getitem__(self, i):
        return self._results[i]


@_check("T10")
def check_T10_on_graph(g: Graph) -> BoundCheckResult:
    """Instantiate the lemma at every vertex of degree >= 3 (k = d_u, xs = neighbor degrees).

    :func:`_lemma_decision` decides it over every vertex's bounds; the
    per-vertex results wait in ``branches`` for a reader."""
    degrees, adjacency = g.degrees, g.adjacency
    kept = [(u, _lemma_ints(degrees[u], g.max_degree, [degrees[v] for v in adjacency[u]]))
            for u in range(g.n) if degrees[u] >= 3]
    if not kept:
        return _not_applicable("T10", "no vertex of degree >= 3")
    return _lemma_decision("T10", [b for _, bounds in kept for b in bounds], _VertexLemmas(kept))


@_check("T11", needs="non_trivial")
def check_T11_harmonic_sandwich(g: Graph) -> BoundCheckResult:
    d_max = g.max_degree
    if d_max < 3:
        lo, hi = Fraction(8, 11), Fraction(1)
    elif d_max <= 4:
        lo, hi = Fraction(4, d_max + 3), Fraction(d_max - 1)
    else:
        lo, hi = Fraction(3, 2 * d_max - 1), Fraction(d_max - 1)
    h = g.index_vector.harmonic
    h_line = line_graph(g).index_vector.harmonic
    parts = [
        _compare("T11.lower", h_line, lo * h, "lower"),
        _compare("T11.upper", h_line, hi * h, "upper"),
    ]
    return _combine("T11", parts, reason=f"regime max_degree={d_max}")

