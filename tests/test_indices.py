import math
from dataclasses import asdict
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import connected_graphs, graphs
from oracles import (
    all_edges_degree_equal,
    evaluate_vdb_index,
    harmonic_of_path,
    index_vector_oracle,
)
from topoline.graph_core import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_non_trivial,
    path_graph,
    star_graph,
)
from topoline.indices import IsolatedVertexError, compute_index_vector
from topoline.line_graph import line_graph


@st.composite
def graphs_without_isolated(draw, max_n: int = 12):
    """A random edge set on the vertices it touches, relabelled 0..n-1."""
    g = draw(graphs(min_n=2, max_n=max_n))
    used = sorted({v for e in g.edges for v in e})
    label = {v: i for i, v in enumerate(used)}
    return Graph(len(used), tuple((label[u], label[v]) for u, v in g.edges))


def _from_networkx(h: nx.Graph) -> Graph:
    label = {v: i for i, v in enumerate(sorted(h.nodes))}
    return Graph(len(label), tuple((label[u], label[v]) for u, v in h.edges))


class TestEvaluateVdbIndex:
    def test_degree_sum_on_c4(self):
        assert evaluate_vdb_index(cycle_graph(4), lambda a, b: a + b) == 16

    def test_harmonic_term_on_p2(self):
        assert evaluate_vdb_index(path_graph(2), lambda a, b: Fraction(2, a + b)) == 1

    def test_degree_product_on_s4(self):
        assert evaluate_vdb_index(star_graph(4), lambda a, b: a * b) == 9

    def test_isolated_vertex_rejected(self):
        g = Graph(3, ((0, 1),))
        with pytest.raises(IsolatedVertexError, match=r"\[2\]"):
            evaluate_vdb_index(g, lambda a, b: a + b)

    def test_asymmetric_function_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            evaluate_vdb_index(path_graph(3), lambda a, b: a - b)


# Frozen values computed by direct evaluation of the definitions.
INDEX_CASES = {
    "P3": (path_graph(3), 6, 4, 10, Fraction(4, 3), 2, 4 * math.sqrt(2) / 3),
    "C4": (cycle_graph(4), 16, 16, 32, Fraction(2), 8, 4.0),
    "S4": (star_graph(4), 12, 9, 30, Fraction(3, 2), 6, 3 * math.sqrt(3) / 2),
}


class TestComputeIndexVector:
    @pytest.mark.parametrize("name", sorted(INDEX_CASES))
    def test_frozen_examples(self, name):
        g, m1, m2, forgotten, harmonic, platt, ga1 = INDEX_CASES[name]
        iv = compute_index_vector(g)
        assert iv.m1 == m1
        assert iv.m2 == m2
        assert iv.forgotten == forgotten
        assert iv.harmonic == harmonic
        assert iv.platt == platt
        assert iv.ga1 == pytest.approx(ga1, abs=1e-12)

    def test_exact_ga1_for_regular(self):
        assert compute_index_vector(cycle_graph(4)).ga1_exact == 4

    def test_exact_ga1_none_when_irrational(self):
        assert compute_index_vector(star_graph(4)).ga1_exact is None

    @given(graphs(min_n=2))
    def test_m1_formulas_agree_and_platt_identity(self, g):
        if g.m == 0 or min(g.degrees) == 0:
            return
        iv = compute_index_vector(g)
        assert iv.m1 == sum(d * d for d in g.degrees)
        assert iv.m1 == sum(g.degrees[u] + g.degrees[v] for u, v in g.edges)
        assert iv.platt == iv.m1 - 2 * g.m

    @given(connected_graphs())
    def test_ga1_between_zero_and_edge_count(self, g):
        iv = compute_index_vector(g)
        assert 0 < iv.ga1 <= g.m + 1e-9
        # each term equals 1 iff the endpoint degrees agree
        if all_edges_degree_equal(g):
            assert iv.ga1_exact == g.m
        else:
            assert iv.ga1 < g.m - 1e-12

    @given(connected_graphs())
    def test_ga1_exact_matches_float(self, g):
        iv = compute_index_vector(g)
        if iv.ga1_exact is not None:
            assert iv.ga1 == pytest.approx(float(iv.ga1_exact), abs=1e-9)


class TestAgainstEdgeSumOracle:
    """The index vector equals one term per edge, GA1 bit for bit."""

    @given(graphs_without_isolated())
    def test_graph_and_its_line_graph(self, g):
        assert asdict(compute_index_vector(g)) == index_vector_oracle(g)
        if g.m and is_non_trivial(g):
            lg = line_graph(g)
            assert asdict(compute_index_vector(lg)) == index_vector_oracle(lg)

    @given(graphs_without_isolated())
    def test_networkx_line_graph(self, g):
        if not g.m or not is_non_trivial(g):
            return
        lg = _from_networkx(nx.line_graph(nx.Graph(list(g.edges))))
        assert asdict(compute_index_vector(lg)) == index_vector_oracle(lg)

    def test_empty_graph(self):
        assert asdict(compute_index_vector(Graph(0))) == index_vector_oracle(Graph(0))


class TestHarmonicOfPath:
    def test_p2(self):
        assert harmonic_of_path(2) == 1

    def test_p4(self):
        assert harmonic_of_path(4) == Fraction(11, 6)

    def test_p7_against_direct_sum(self):
        assert harmonic_of_path(7) == Fraction(10, 3)
        assert compute_index_vector(path_graph(7)).harmonic == Fraction(10, 3)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            harmonic_of_path(1)

    @pytest.mark.parametrize("n", range(2, 51))
    def test_matches_direct_sum_up_to_fifty(self, n):
        assert harmonic_of_path(n) == compute_index_vector(path_graph(n)).harmonic


class TestRegularAndMixedGraphs:
    def test_k4(self):
        iv = compute_index_vector(complete_graph(4))
        assert iv.m1 == 36 and iv.m2 == 54 and iv.forgotten == 108
        assert iv.ga1_exact == 6  # regular: every term is exactly 1

    def test_disjoint_union_sums(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(4))
        iv = compute_index_vector(g)
        a = compute_index_vector(cycle_graph(3))
        b = compute_index_vector(cycle_graph(4))
        assert iv.m1 == a.m1 + b.m1
        assert iv.harmonic == a.harmonic + b.harmonic
