import pytest
from hypothesis import given

from conftest import nontrivial_graphs
from oracles import line_graph_oracle
from topoline.graph_core import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_isomorphic,
    is_non_trivial,
    path_graph,
    star_graph,
)
from topoline.indices import compute_index_vector
from topoline.io_formats import emit_graph6
from topoline.line_graph import TrivialComponentError, line_graph


def assert_same_as_checked(lg):
    """L(G), built unchecked, equals and hashes as the Graph built from its edges."""
    checked = Graph(lg.n, lg.edges)
    assert lg == checked
    assert hash(lg) == hash(checked)


class TestLineGraph:
    def test_cycle_maps_to_itself(self):
        assert is_isomorphic(line_graph(cycle_graph(5)), cycle_graph(5))

    def test_path_drops_one_vertex(self):
        assert is_isomorphic(line_graph(path_graph(5)), path_graph(4))

    def test_star_gives_clique(self):
        assert is_isomorphic(line_graph(star_graph(4)), complete_graph(3))

    def test_trivial_component_rejected(self):
        g = disjoint_union(cycle_graph(3), path_graph(2))
        with pytest.raises(TrivialComponentError) as excinfo:
            line_graph(g)
        assert str(excinfo.value) == "non-trivial graph required: component (3, 4) has 1 edge(s)"

    def test_vertex_map_ranks_sorted_edges(self):
        # vertex i of L(G) is g.edges[i], the edges in sorted (u, v) order
        g = star_graph(4)
        vm = {edge: idx for idx, edge in enumerate(g.edges)}
        assert vm == {(0, 1): 0, (0, 2): 1, (0, 3): 2}
        assert line_graph(g).n == len(vm)

    @given(nontrivial_graphs())
    def test_vertex_count_and_degree_identity(self, g):
        lg = line_graph(g)
        assert lg.n == g.m
        for idx, (u, v) in enumerate(g.edges):
            assert lg.degrees[idx] == g.degrees[u] + g.degrees[v] - 2

    def test_labelled_edges_match_oracle_up_to_7(self, graphs_upto_7):
        graphs = [g for g in graphs_upto_7 if g.n >= 1 and is_non_trivial(g)]
        assert len(graphs) > 1000
        for g in graphs:
            lg = line_graph(g)
            assert lg.n == g.m, emit_graph6(g)
            assert lg.edges == line_graph_oracle(g), emit_graph6(g)
            assert_same_as_checked(lg)

    @given(nontrivial_graphs())
    def test_labelled_edges_match_oracle(self, g):
        lg = line_graph(g)
        assert lg.n == g.m
        assert lg.edges == line_graph_oracle(g)
        assert_same_as_checked(lg)

    @pytest.mark.parametrize("g", [complete_graph(12), complete_bipartite_graph(8, 9),
                                   cycle_graph(40)], ids=["K12", "K8,9", "C40"])
    def test_labelled_edges_match_oracle_on_large_graphs(self, g):
        # line graphs on 66, 72 and 40 vertices
        lg = line_graph(g)
        assert lg.n == g.m
        assert lg.edges == line_graph_oracle(g)
        assert_same_as_checked(lg)

    @given(nontrivial_graphs())
    def test_degree_bounds(self, g):
        lg = line_graph(g)
        assert lg.max_degree <= 2 * g.max_degree - 2
        assert lg.min_degree >= 2 * g.min_degree - 2

    @given(nontrivial_graphs())
    def test_edge_count_identities(self, g):
        iv = compute_index_vector(g)
        m_l = line_graph(g).m
        assert 2 * m_l == sum(g.degrees[u] + g.degrees[v] - 2 for u, v in g.edges)
        assert 2 * m_l == iv.platt
        assert 2 * m_l == iv.m1 - 2 * g.m

    @pytest.mark.parametrize("n", range(3, 11))
    def test_iterated_structure(self, n):
        assert is_isomorphic(line_graph(cycle_graph(n)), cycle_graph(n))
        assert is_isomorphic(line_graph(path_graph(n)), path_graph(n - 1))


class TestLineEdgeCount:
    def test_c4(self):
        assert line_graph(cycle_graph(4)).m == 4

    def test_s4(self):
        assert line_graph(star_graph(4)).m == 3

    def test_p3(self):
        assert line_graph(path_graph(3)).m == 1
