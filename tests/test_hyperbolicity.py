import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_bipartite_graph,
    complete_graph,
    connected_graphs,
    cycle_graph,
    disjoint_union,
    graphs,
    path_graph,
    star_graph,
)
from oracles import bfs_distances, delta_oracle, subdivision_lattice
from topoline.graph_core import Graph, is_connected, is_forest
from topoline.harness import EnumerationSpec, enumerate_graphs, enumerate_trees, sample_gnp
from topoline.hyperbolicity import (
    HyperbolicityCapError,
    MetricPoint,
    hyperbolicity_constant,
    hyperbolicity_upper_bound,
    subdivided_distances,
)
from topoline.io_formats import emit_graph6


def lattice_distance(lat, i: int, j: int) -> Fraction | float:
    """The distance between lattice points i and j, read from ``lat.hops``:
    a rational in edge lengths, or infinity across components."""
    h = int(lat.hops[i, j])
    return math.inf if h < 0 else Fraction(h, lat.granularity)


class TestSubdividedDistances:
    def test_antipodal_midpoints_on_c4(self):
        # hand count on the 16-point lattice: midpoint of (0,1) to midpoint of (2,3)
        lat = subdivided_distances(cycle_graph(4), 4)
        i = lat.points.index(MetricPoint((0, 1), Fraction(1, 2)))
        j = lat.points.index(MetricPoint((2, 3), Fraction(1, 2)))
        assert len(lat.points) == 16
        assert lattice_distance(lat, i, j) == 2

    def test_adjacent_vertices_at_distance_one(self):
        lat = subdivided_distances(complete_graph(4), 8)
        for u, v in complete_graph(4).edges:
            assert lattice_distance(lat, u, v) == 1

    def test_p3_endpoints(self):
        lat = subdivided_distances(path_graph(3), 4)
        assert lattice_distance(lat, 0, 2) == 2

    def test_disconnected_pairs_infinite(self):
        g = disjoint_union(path_graph(2), path_graph(2))
        lat = subdivided_distances(g, 4)
        assert lattice_distance(lat, 0, 2) == float("inf")

    def test_bad_granularity(self):
        with pytest.raises(ValueError, match="granularity"):
            subdivided_distances(path_graph(2), 3)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_cycles_exact_at_supported_granularities_and_2_refused(self, n):
        # delta(C_n) = n/4; the k = 2 lattice sampled C5 as 1 and C7 as 3/2
        for k in (4, 8):
            assert hyperbolicity_constant(cycle_graph(n), granularity=k).delta == Fraction(n, 4)
        with pytest.raises(ValueError, match="granularity must be one of"):
            hyperbolicity_constant(cycle_graph(n), granularity=2)

    @given(connected_graphs(max_n=6))
    @settings(max_examples=25)
    def test_vertex_restriction_matches_bfs(self, g):
        lat = subdivided_distances(g, 8)
        adj = [sorted(s) for s in g.adjacency]
        for src in range(g.n):
            dist = bfs_distances(adj, src)
            for v in range(g.n):
                assert lattice_distance(lat, src, v) == dist[v]

    @given(graphs(max_n=6), st.sampled_from([4, 8]))
    @settings(max_examples=25)
    def test_every_lattice_pair_matches_bfs(self, g, k):
        # possibly disconnected: cross-component pairs must read -1
        adj = subdivision_lattice(g, k)
        expected = np.array([bfs_distances(adj, s) for s in range(len(adj))])
        assert np.array_equal(subdivided_distances(g, k).hops, expected)


class TestHyperbolicityKnownValues:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycles(self, n):
        result = hyperbolicity_constant(cycle_graph(n))
        assert result.delta == Fraction(n, 4)
        assert not result.rounded_up

    @pytest.mark.parametrize(
        "g", [path_graph(2), path_graph(5), star_graph(6), path_graph(8)],
        ids=["P2", "P5", "S6", "P8"],
    )
    def test_trees_are_zero(self, g):
        assert hyperbolicity_constant(g).delta == 0

    def test_k4(self):
        # hand-derived: the bigon over midpoints of disjoint edges forces 1,
        # and half the metric diameter caps it at 1
        assert hyperbolicity_constant(complete_graph(4)).delta == 1

    @pytest.mark.parametrize(
        "g, delta",
        [
            (complete_graph(6), 1),
            (complete_graph(7), 1),
            (complete_graph(8), 1),
            (complete_bipartite_graph(4, 4), 1),
        ],
        ids=["K6", "K7", "K8", "K44"],
    )
    def test_dense_lattices(self, g, delta):
        assert hyperbolicity_constant(g).delta == delta

    def test_disconnected_takes_component_max(self):
        g = disjoint_union(path_graph(3), cycle_graph(5))
        assert hyperbolicity_constant(g).delta == Fraction(5, 4)

    def test_work_budget_refused_before_the_lattice(self, monkeypatch):
        # K40 at cap 40 needs 4.64 G search-table cells, far past the budget;
        # the refusal must come before any lattice is allocated
        def unreachable(*args):
            raise AssertionError("the lattice was built past the work budget")

        monkeypatch.setattr("topoline.hyperbolicity.subdivided_distances", unreachable)
        with pytest.raises(HyperbolicityCapError, match="work budget .*m/4"):
            hyperbolicity_constant(complete_graph(40), cap=40)

    def test_cap_error_directs_to_fallback(self):
        with pytest.raises(HyperbolicityCapError, match="m/4"):
            hyperbolicity_constant(path_graph(9))
        assert hyperbolicity_constant(path_graph(9), cap=9).delta == 0


class TestAgainstTriangleEnumerationOracle:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_cycles_oracle_eighth_lattice(self, n):
        assert delta_oracle(cycle_graph(n), k=8) == Fraction(n, 4)

    @pytest.mark.parametrize("n", [7, 8])
    def test_larger_cycles_oracle_quarter_lattice(self, n):
        assert delta_oracle(cycle_graph(n), k=4) == Fraction(n, 4)

    def test_c3_and_c4_frozen(self):
        assert hyperbolicity_constant(cycle_graph(3)).delta == Fraction(3, 4)
        assert hyperbolicity_constant(cycle_graph(4)).delta == 1

    def test_k4_oracle(self):
        assert delta_oracle(complete_graph(4), k=4) == 1

    def test_k23_oracle(self):
        assert delta_oracle(complete_bipartite_graph(2, 3), k=4) == hyperbolicity_constant(
            complete_bipartite_graph(2, 3)
        ).delta

    def test_j_corners_exhaustive_through_n5(self):
        # the oracle takes corners anywhere on the lattice, the search only in J(G)
        graphs = list(enumerate_graphs(EnumerationSpec(2, 5, connected_only=True)))
        assert len(graphs) == 30
        for g in graphs:
            assert delta_oracle(g, k=4) == hyperbolicity_constant(g).delta, emit_graph6(g)

    def test_every_graph_through_n6_pinned(self):
        # (graph6, delta, rounded_up) for all 209 graphs with n <= 6, connected or
        # not, as computed with corners on the quarter-lattice at granularity 8
        lines = []
        for g in enumerate_graphs(EnumerationSpec(0, 6)):
            result = hyperbolicity_constant(g)
            lines.append(f"{emit_graph6(g)} {result.delta} {result.rounded_up}\n")
        assert len(lines) == 209
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "95448239b83111bd0fe581b571b393e42850dfc0c9c16214ba8ead9f85f89c9e"

    @given(connected_graphs(min_n=3, max_n=5))
    @settings(max_examples=20)
    def test_random_small_graphs(self, g):
        assert hyperbolicity_constant(g).delta == delta_oracle(g, k=4)

    @given(graphs(min_n=2, max_n=5))
    @settings(max_examples=20)
    def test_possibly_disconnected_graphs(self, g):
        # one search spans every component; cross-component pairs never form a side
        assert hyperbolicity_constant(g).delta == delta_oracle(g, k=4)
        assert_witness_attains(g)


class TestStructuralInvariants:
    @given(connected_graphs(max_n=6))
    @settings(max_examples=40)
    def test_all_four_facts(self, g):
        result = hyperbolicity_constant(g)
        delta = result.delta
        assert (delta * 4).denominator == 1
        assert delta not in (Fraction(1, 4), Fraction(1, 2))
        if is_forest(g):
            assert delta == 0
        else:
            assert delta >= Fraction(3, 4)
        assert delta <= hyperbolicity_upper_bound(g)
        diameter = Fraction(int(subdivided_distances(g, result.granularity).hops.max()),
                            result.granularity)
        assert delta <= diameter / 2
        assert not result.rounded_up

    @given(connected_graphs(max_n=6))
    @settings(max_examples=20)
    def test_granularity_stability(self, g):
        assert (
            hyperbolicity_constant(g, granularity=4).delta
            == hyperbolicity_constant(g, granularity=8).delta
        )

    def test_granularity_stability_exhaustive_n5(self):
        for g in enumerate_graphs(EnumerationSpec(2, 5, connected_only=True)):
            assert (
                hyperbolicity_constant(g, granularity=4).delta
                == hyperbolicity_constant(g, granularity=8).delta
            )

    def test_granularity_stability_past_the_cap(self):
        # seeded G(n, 3/(n-1)) draws with 12 <= n <= 24, past the default cap
        checked = 0
        for s in range(39):
            n = 12 + s % 13
            g = sample_gnp(n, Fraction(3, n - 1), s)
            if not is_connected(g) or is_forest(g):
                continue
            coarse = hyperbolicity_constant(g, granularity=4, cap=n)
            fine = hyperbolicity_constant(g, granularity=8, cap=n)
            assert coarse.delta == fine.delta, emit_graph6(g)
            assert not coarse.rounded_up and not fine.rounded_up, emit_graph6(g)
            checked += 1
        assert checked == 24

    @pytest.mark.parametrize("n", range(2, 9))
    def test_trees_and_only_trees_are_zero(self, n):
        for tree in enumerate_trees(n):
            assert hyperbolicity_constant(tree).delta == 0


class TestSearchCounters:
    def test_corners_are_vertices_and_midpoints(self):
        g = complete_bipartite_graph(2, 3)
        assert hyperbolicity_constant(g).corner_points == g.n + g.m

    def test_full_search_counts_every_apex_and_pair(self):
        # a tree never reaches its diam/2 ceiling, so every corner pair is searched
        result = hyperbolicity_constant(path_graph(3))
        q = result.corner_points
        assert result.evaluations == q * q * (q - 1) // 2

    def test_search_stops_at_half_the_diameter(self):
        result = hyperbolicity_constant(cycle_graph(4))
        q = result.corner_points
        assert result.delta == 1
        assert 0 < result.evaluations < q * q * (q - 1) // 2


def assert_witness_attains(g):
    result = hyperbolicity_constant(g)
    witness = result.witness
    if result.delta == 0:
        assert witness is None
        return
    lat = subdivided_distances(g, result.granularity)
    index = {p: i for i, p in enumerate(lat.points)}
    probe = index[witness.probe]
    others = witness.sides[1:]
    union = {index[p] for side in others for p in side}
    value = min(lattice_distance(lat, probe, q) for q in union)
    assert value == result.delta
    assert witness.probe in witness.sides[0]
    # each recorded side must be a geodesic between its corners
    for i, side in enumerate(witness.sides):
        corners = [c for j, c in enumerate(witness.corners) if j != i]
        assert side[0] in corners and side[-1] in corners
        length = sum(
            lattice_distance(lat, index[a], index[b]) for a, b in zip(side, side[1:])
        )
        assert length == lattice_distance(lat, index[side[0]], index[side[-1]])


class TestWitness:
    def test_witness_attains_delta_on_c4(self):
        assert_witness_attains(cycle_graph(4))

    @given(connected_graphs(min_n=3, max_n=5))
    @settings(max_examples=25)
    def test_witness_attains_delta_on_random_graphs(self, g):
        assert_witness_attains(g)

    @pytest.mark.parametrize(
        "g", [complete_bipartite_graph(4, 4), complete_graph(8)], ids=["K44", "K8"]
    )
    def test_witness_attains_delta_on_dense_n8(self, g):
        assert_witness_attains(g)

    def test_witness_none_for_trees(self):
        assert hyperbolicity_constant(path_graph(6)).witness is None

    def test_upper_bound_values(self):
        assert hyperbolicity_upper_bound(cycle_graph(4)) == 1
        assert hyperbolicity_upper_bound(path_graph(5)) == 1
        assert hyperbolicity_upper_bound(complete_graph(4)) == Fraction(3, 2)
