import itertools
import random
import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, permute
from oracles import brute_canonical_key, degree_component_oracle
from topoline.graph_core import (
    CanonicalCapError,
    Graph,
    GraphError,
    all_regular,
    all_regular_or_biregular,
    canonical_form,
    complete_bipartite_graph,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    is_connected,
    is_forest,
    is_isomorphic,
    is_non_trivial,
    path_graph,
    star_graph,
)
from topoline.line_graph import line_graph


class TestBuildGraph:
    def test_path(self):
        g = Graph(3, ((0, 1), (1, 2)))
        assert g.degrees == (1, 2, 1)

    def test_cycle(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        assert g.degrees == (2, 2, 2, 2)

    def test_star(self):
        g = Graph(4, ((0, 1), (0, 2), (0, 3)))
        assert g.degrees == (3, 1, 1, 1)

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match=r"\(1, 1\)"):
            Graph(3, ((0, 1), (1, 1)))

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(3, ((0, 3),))

    def test_non_integer_label_rejected(self):
        with pytest.raises(GraphError, match="non-integer"):
            Graph(3, ((0.0, 1),))

    @pytest.mark.parametrize("pair", [(0.5, 1), ("1", "2")])
    def test_labels_not_coerced(self, pair):
        with pytest.raises(GraphError, match="non-integer vertex label"):
            Graph(3, (pair,))

    @pytest.mark.parametrize("pair", [(0, 1, 2), 5])
    def test_malformed_pair_rejected(self, pair):
        with pytest.raises(GraphError, match=re.escape(f"edge {pair!r} is not a pair")):
            Graph(3, (pair,))

    def test_numpy_integer_labels_accepted(self):
        g = Graph(3, ((np.int64(0), np.int8(1)),))
        assert g.edges == ((0, 1),) and g.degrees == (1, 1, 0)

    def test_duplicates_collapse(self):
        g = Graph(3, ((0, 1), (1, 0), (0, 1)))
        assert g.m == 1

    @given(graphs())
    def test_degree_sum_is_twice_edge_count(self, g):
        assert sum(g.degrees) == 2 * g.m


class TestDegreeStats:
    def test_star(self):
        g = star_graph(4)
        assert (g.max_degree, g.min_degree, g.n, g.m) == (3, 1, 4, 3)
        assert is_non_trivial(g)

    def test_single_edge_is_trivial(self):
        g = path_graph(2)
        assert (g.max_degree, g.min_degree, g.m) == (1, 1, 1)
        assert not is_non_trivial(g)

    def test_disjoint_union_c4_p3(self):
        g = disjoint_union(cycle_graph(4), path_graph(3))
        assert (g.max_degree, g.min_degree) == (2, 1)
        assert is_non_trivial(g)

    def test_empty_graph_degree_extremes(self):
        assert (Graph(0).max_degree, Graph(0).min_degree) == (0, 0)


class TestClassifyComponents:
    def test_c5_regular_cycle(self):
        info = cycle_graph(5)._components[0]
        assert info.regular and not info.biregular and not info.tree

    def test_s4_biregular_tree(self):
        info = star_graph(4)._components[0]
        assert info.biregular and info.tree
        assert not info.regular

    def test_p4_neither_regular_nor_biregular(self):
        # edge (1, 2) joins two degree-2 vertices while the degree set is {1, 2}
        info = path_graph(4)._components[0]
        assert not info.regular and not info.biregular
        assert info.tree

    def test_components_partition_vertices(self):
        g = disjoint_union(cycle_graph(3), star_graph(4))
        comps = components(g)
        assert sorted(v for c in comps for v in c) == list(range(g.n))

    @given(graphs())
    def test_regular_and_biregular_disjoint(self, g):
        for info in g._components:
            assert not (info.regular and info.biregular)

    @given(graphs(min_n=1, max_n=9))
    def test_decomposition_matches_networkx(self, g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        expected = sorted(tuple(sorted(c)) for c in nx.connected_components(h))
        assert components(g) == tuple(expected)
        assert is_connected(g) == nx.is_connected(h)
        assert is_forest(g) == nx.is_forest(h)
        infos = g._components
        edge_counts = [h.subgraph(c).number_of_edges() for c in expected]
        assert [info.edge_count for info in infos] == edge_counts
        assert is_non_trivial(g) == all(mc >= 2 for mc in edge_counts)
        for info in infos:
            sub = h.subgraph(info.vertices)
            degrees = {d for _, d in sub.degree()}
            assert info.regular == (len(degrees) == 1)
            joins = {frozenset((sub.degree(u), sub.degree(v))) for u, v in sub.edges()}
            biregular = len(degrees) == 2 and joins == {frozenset(degrees)}
            assert info.biregular == biregular


def test_degree_and_component_facts_match_oracle_up_to_7(graphs_upto_7):
    pool = graphs_upto_7
    assert len(pool) == 1253 and pool[0] == Graph(0)
    for g in pool:
        assert {
            "max_degree": g.max_degree,
            "min_degree": g.min_degree,
            "is_non_trivial": is_non_trivial(g),
            "all_regular": all_regular(g),
            "all_regular_or_biregular": all_regular_or_biregular(g),
        } == degree_component_oracle(g), g.edges


def _circulant(n: int, jumps: tuple[int, ...]) -> Graph:
    return Graph(n, tuple((i, (i + j) % n) for i in range(n) for j in jumps))


def _complement(g: Graph) -> Graph:
    present = set(g.edges)
    return Graph(g.n, tuple(p for p in itertools.combinations(range(g.n), 2) if p not in present))


_PETERSEN = Graph(10, tuple((i, (i + 1) % 5) for i in range(5))
                  + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5))
                  + tuple((i, i + 5) for i in range(5)))
_CUBE = Graph(8, tuple((i, i | 1 << b) for i in range(8) for b in range(3) if not i >> b & 1))
_SYMMETRIC_BASES = {
    "petersen": _PETERSEN, "C9": cycle_graph(9), "C10": cycle_graph(10), "K10": complete_graph(10),
    "K5,5": complete_bipartite_graph(5, 5), "K4,5": complete_bipartite_graph(4, 5),
    "Q3+K2": disjoint_union(_CUBE, path_graph(2)),
    "2C5": disjoint_union(cycle_graph(5), cycle_graph(5)),
    "3C3": disjoint_union(disjoint_union(cycle_graph(3), cycle_graph(3)), cycle_graph(3)),
    "C9(1,2)": _circulant(9, (1, 2)), "C10(1,2)": _circulant(10, (1, 2)),
    "C10(1,3)": _circulant(10, (1, 3)),
}
_SYMMETRIC = {**_SYMMETRIC_BASES, **{f"co-{name}": _complement(g) for name, g in _SYMMETRIC_BASES.items()}}


class TestCanonicalForm:
    def test_relabelings_share_key(self):
        c4 = cycle_graph(4)
        other = Graph(4, ((0, 2), (2, 1), (1, 3), (3, 0)))
        assert canonical_form(c4) == canonical_form(other)

    def test_p4_s4_differ(self):
        assert canonical_form(path_graph(4)) != canonical_form(star_graph(4))

    def test_six_connected_graphs_on_four_vertices_distinct(self):
        keys = set()
        seen = set()
        for bits in range(1 << 6):
            pairs = list(itertools.combinations(range(4), 2))
            edges = [pairs[i] for i in range(6) if bits >> i & 1]
            g = Graph(4, tuple(edges))
            if len(components(g)) != 1:
                continue
            key = brute_canonical_key(g)
            if key in seen:
                continue
            seen.add(key)
            keys.add(canonical_form(g))
        assert len(seen) == 6
        assert len(keys) == 6

    def test_matches_permutation_oracle_exhaustively(self):
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = Graph(n, tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1))
                assert canonical_form(g) == brute_canonical_key(g)

    @given(graphs(max_n=6), st.randoms(use_true_random=False))
    def test_invariant_under_permutation(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert canonical_form(g) == canonical_form(permute(g, perm))

    @given(graphs(min_n=6, max_n=6))
    def test_matches_oracle_on_random_six_vertex_graphs(self, g):
        assert canonical_form(g) == brute_canonical_key(g)

    @settings(max_examples=12)
    @given(graphs(min_n=7, max_n=7))
    def test_matches_oracle_on_random_seven_vertex_graphs(self, g):
        assert canonical_form(g) == brute_canonical_key(g)

    @pytest.mark.parametrize("g", _SYMMETRIC.values(), ids=list(_SYMMETRIC))
    def test_invariant_under_permutation_on_symmetric_graphs(self, g):
        # Large automorphism groups keep the most partial orderings tied.
        key = canonical_form(g)
        rnd = random.Random(0)
        for _ in range(3):
            perm = list(range(g.n))
            rnd.shuffle(perm)
            assert canonical_form(permute(g, perm)) == key

    def test_cap(self):
        with pytest.raises(CanonicalCapError, match="too large"):
            canonical_form(path_graph(11))
        assert canonical_form(path_graph(11), cap=11)


class TestIsIsomorphic:
    def test_line_of_p4_is_p3(self):
        assert is_isomorphic(line_graph(path_graph(4)), path_graph(3))

    def test_line_of_c5_is_c5(self):
        assert is_isomorphic(line_graph(cycle_graph(5)), cycle_graph(5))

    def test_s4_not_p4(self):
        assert not is_isomorphic(star_graph(4), path_graph(4))

    @given(graphs(max_n=6), st.randoms(use_true_random=False))
    def test_equivalence_relation_on_relabelings(self, g, rnd):
        assert is_isomorphic(g, g)
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = permute(g, perm)
        assert is_isomorphic(g, h) and is_isomorphic(h, g)
        perm2 = list(range(g.n))
        rnd.shuffle(perm2)
        f = permute(h, perm2)
        assert is_isomorphic(g, f)

    def test_same_degree_sequence_not_isomorphic(self):
        # C6 vs two triangles: both 2-regular on six vertices
        g1 = cycle_graph(6)
        g2 = disjoint_union(complete_graph(3), complete_graph(3))
        assert not is_isomorphic(g1, g2)
