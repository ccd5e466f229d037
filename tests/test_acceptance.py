"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Rational
comparisons use tolerance 0; comparisons involving the geometric-arithmetic
index use 1e-9.
"""

import itertools
from fractions import Fraction

import networkx as nx
import pytest

from conftest import complete_graph, cycle_graph, is_isomorphic, path_graph, star_graph
from oracles import delta_oracle
from topoline.graph_core import (
    all_regular,
    all_regular_or_biregular,
    is_connected,
    is_forest,
    is_non_trivial,
)
from topoline.harness import (
    enumerate_trees,
    extremal_search,
    sample_gnp,
)
from topoline.hyperbolicity import hyperbolicity_constant, hyperbolicity_upper_bound
from topoline.indices import compute_index_vector
from topoline.io_formats import emit_graph6, parse_graph6
from topoline.line_graph import line_graph
from topoline.theorems import (
    GRAPH_CHECKS,
    check_T3_line_identities,
    check_T5_ga_hyperbolicity,
    check_T6_ga_vs_m1,
    check_T7_m1_line_identity,
    check_T9_harmonic_bounds,
    check_T11_harmonic_sandwich,
    _lemma_ints,
    _lemma_result,
)


def _report(cid: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {cid} ({name}): {status}")
    assert not failures, f"criterion {cid} failures: {failures[:10]}"


@pytest.fixture(scope="module")
def connected_upto_7(graphs_upto_7):
    return [g for g in graphs_upto_7 if g.n >= 2 and is_connected(g)]


@pytest.fixture(scope="module")
def nontrivial_upto_7(connected_upto_7):
    return [g for g in connected_upto_7 if is_non_trivial(g)]


def test_criterion_1_exact_identities(nontrivial_upto_7):
    failures = []
    assert sum(1 for g in nontrivial_upto_7 if g.n == 7) == 853
    for g in nontrivial_upto_7:
        for check in (check_T3_line_identities(g), check_T7_m1_line_identity(g)):
            if not (check.applicable and check.satisfied and check.slack == 0):
                failures.append((emit_graph6(g), check.theorem_id))
    _report(1, "T3/T7 identities, zero slack, connected non-trivial n<=7", failures)


def test_criterion_2_inequality_suite(connected_upto_7):
    failures = []
    suite = ("T1", "T2", "T4", "T6", "T8", "T9", "T11")
    for g in connected_upto_7:
        for tid in suite:
            check = GRAPH_CHECKS[tid](g)
            if check.applicable and not check.satisfied:
                failures.append((emit_graph6(g), tid, check.slack))
    _report(2, "inequality suite zero violations, connected n<=7", failures)


def test_criterion_3_equality_characterizations(connected_upto_7):
    failures = []
    for g in connected_upto_7:
        iv = compute_index_vector(g)
        if (iv.harmonic == Fraction(g.n, 2)) != all_regular(g):
            failures.append((emit_graph6(g), "order"))
        if is_non_trivial(g):
            h_line = compute_index_vector(line_graph(g)).harmonic
            if (h_line == Fraction(g.m, 2)) != all_regular_or_biregular(g):
                failures.append((emit_graph6(g), "line"))
    _report(3, "harmonic equality iff regular / regular-or-biregular", failures)


def test_criterion_4_lemma_brute_force():
    failures = []
    cases = 0
    for d_max in range(3, 6):
        for k in range(3, d_max + 1):
            for xs in itertools.product(range(1, d_max + 1), repeat=k):
                cases += 1
                result = _lemma_result("T10", _lemma_ints(k, d_max, xs))
                if not result.satisfied:
                    failures.append((k, d_max, xs))
    assert cases == 27 + 64 + 256 + 125 + 625 + 3125
    _report(4, f"reciprocal-sum lemma, {cases} exact cases", failures)


def test_criterion_5_hyperbolicity(connected_upto_7):
    failures = []

    def structural(g, delta):
        if (delta * 4).denominator != 1 or delta in (Fraction(1, 4), Fraction(1, 2)):
            failures.append((emit_graph6(g), "grid", delta))
        if is_forest(g):
            if delta != 0:
                failures.append((emit_graph6(g), "tree", delta))
        elif delta < Fraction(3, 4):
            failures.append((emit_graph6(g), "lower", delta))
        if delta > hyperbolicity_upper_bound(g):
            failures.append((emit_graph6(g), "m/4", delta))

    for n in range(2, 9):
        for tree in enumerate_trees(n):
            delta = hyperbolicity_constant(tree).delta
            structural(tree, delta)
            if delta != 0:
                failures.append((emit_graph6(tree), "tree-nonzero", delta))

    for n in range(3, 9):
        delta = hyperbolicity_constant(cycle_graph(n)).delta
        structural(cycle_graph(n), delta)
        if delta != Fraction(n, 4):
            failures.append((f"C{n}", "cycle-value", delta))
        oracle = delta_oracle(cycle_graph(n), k=8 if n <= 6 else 4)
        if oracle != Fraction(n, 4):
            failures.append((f"C{n}", "oracle", oracle))

    for g in connected_upto_7:
        if g.n > 6 or is_forest(g):
            continue
        structural(g, hyperbolicity_constant(g).delta)
        check = check_T5_ga_hyperbolicity(g)
        if check.applicable and not check.satisfied:
            failures.append((emit_graph6(g), "T5", check.slack))
    _report(5, "hyperbolicity values, structure and T5, n<=6", failures)


def test_criterion_6_line_graph_structure(nontrivial_upto_7):
    failures = []
    for n in range(3, 11):
        if not is_isomorphic(line_graph(path_graph(n)), path_graph(n - 1)):
            failures.append((f"P{n}", "path"))
        if not is_isomorphic(line_graph(cycle_graph(n)), cycle_graph(n)):
            failures.append((f"C{n}", "cycle"))
    for g in nontrivial_upto_7:
        lg = line_graph(g)
        for idx, (u, v) in enumerate(g.edges):
            if lg.degrees[idx] != g.degrees[u] + g.degrees[v] - 2:
                failures.append((emit_graph6(g), "degree", (u, v)))
    _report(6, "line-graph structure and degree identity", failures)


def test_criterion_7_tight_cases(connected_upto_7):
    failures = []

    p4 = path_graph(4)
    h_p4 = compute_index_vector(p4).harmonic
    h_p3 = compute_index_vector(line_graph(p4)).harmonic
    if not (Fraction(8, 11) * h_p4 == h_p3 == Fraction(4, 3)):
        failures.append(("P4", "8/11 constant"))

    for n in range(3, 9):
        c = cycle_graph(n)
        upper = [
            b for b in check_T11_harmonic_sandwich(c).branches
            if b.theorem_id.endswith("upper")
        ][0]
        if not upper.equality:
            failures.append((f"C{n}", "T11 upper"))

    for g in connected_upto_7:
        if len(set(g.degrees)) != 1:
            continue
        if not check_T6_ga_vs_m1(g).equality:
            failures.append((emit_graph6(g), "T6 equality"))
        t9 = check_T9_harmonic_bounds(g)
        bound_branches = [
            b for b in t9.branches if b.theorem_id in ("T9.order_bound", "T9.line_bound")
        ]
        if not all(b.equality for b in bound_branches):
            failures.append((emit_graph6(g), "T9 equality"))
    _report(7, "tight cases reproduced", failures)


def test_criterion_8_graph6_round_trip():
    failures = []
    if parse_graph6("Bw") != complete_graph(3):
        failures.append(("Bw", "not K3"))
    ref = nx.from_graph6_bytes(b"Bw")
    if set(map(tuple, map(sorted, ref.edges()))) != set(complete_graph(3).edges):
        failures.append(("Bw", "networkx reference disagrees"))
    count = 0
    for seed in range(250):
        for n, p in ((3, 0.2), (5, 0.5), (8, 0.5), (10, 0.7)):
            g = sample_gnp(n, p, seed=seed * 10 + n)
            count += 1
            if parse_graph6(emit_graph6(g)) != g:
                failures.append((emit_graph6(g), "round trip"))
    assert count == 1000
    _report(8, "graph6 round-trip on 1000 random graphs", failures)


def test_criterion_9_extremal_trees():
    failures = []
    for n in range(4, 9):
        top = extremal_search("harmonic", "max", "trees", n)
        bottom = extremal_search("harmonic", "min", "trees", n)
        if len(top) != 1 or not is_isomorphic(top[0][0], path_graph(n)):
            failures.append((n, "max not path"))
        if len(bottom) != 1 or not is_isomorphic(bottom[0][0], star_graph(n)):
            failures.append((n, "min not star"))
    _report(9, "extremal trees: harmonic max path, min star", failures)
