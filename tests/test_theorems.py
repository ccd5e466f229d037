import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    connected_graphs,
    cycle_graph,
    disjoint_union,
    nontrivial_graphs,
    path_graph,
    star_graph,
)
from oracles import check_to_dict, t10_sums_oracle
from topoline.graph_core import Graph, is_connected
from topoline.harness import EnumerationSpec, verify_records
from topoline.theorems import (
    GRAPH_CHECKS,
    check_T1_m1_upper,
    check_T2_ga_sum,
    check_T3_line_identities,
    check_T4_ga_platt,
    check_T5_ga_hyperbolicity,
    check_T6_ga_vs_m1,
    check_T7_m1_line_identity,
    check_T8_ga_line_lower,
    check_T9_harmonic_bounds,
    check_T10_on_graph,
    check_T11_harmonic_sandwich,
    _combine,
    _compare,
    _lemma_ints,
    _lemma_result,
)


def branch(result, suffix):
    matches = [b for b in result.branches if b.theorem_id.endswith(suffix)]
    assert matches, f"no branch {suffix!r} in {[b.theorem_id for b in result.branches]}"
    return matches[0]


class TestT1:
    def test_c4(self):
        r = check_T1_m1_upper(cycle_graph(4))
        assert (r.lhs, r.rhs, r.satisfied) == (16, 28, True)
        assert [b.rhs for b in r.branches] == [24, 28, 12]

    def test_p2(self):
        r = check_T1_m1_upper(path_graph(2))
        assert (r.lhs, r.rhs, r.satisfied) == (2, 9, True)
        assert [b.rhs for b in r.branches] == [1, 9, 0]

    def test_k3_branch_values(self):
        # M1(K3) = 12; branch values computed exactly: 15, 21, 6
        r = check_T1_m1_upper(complete_graph(3))
        assert r.lhs == 12
        assert [b.rhs for b in r.branches] == [15, 21, 6]
        assert r.satisfied


class TestT2:
    def test_c4(self):
        r = check_T2_ga_sum(cycle_graph(4))
        assert (r.lhs, r.rhs, r.satisfied) == (8, 14, True)

    def test_s4(self):
        r = check_T2_ga_sum(star_graph(4))
        assert float(r.lhs) == pytest.approx(3 * math.sqrt(3) / 2 + 3, abs=1e-9)
        assert r.satisfied

    def test_p3(self):
        r = check_T2_ga_sum(path_graph(3))
        assert float(r.lhs) == pytest.approx(4 * math.sqrt(2) / 3 + 1, abs=1e-9)
        assert r.satisfied

    def test_trivial_not_applicable(self):
        r = check_T2_ga_sum(path_graph(2))
        assert not r.applicable and "trivial" in r.reason


class TestT3:
    @pytest.mark.parametrize(
        "g", [cycle_graph(4), star_graph(4), path_graph(3)], ids=["C4", "S4", "P3"]
    )
    def test_identities_exact(self, g):
        r = check_T3_line_identities(g)
        assert r.satisfied and r.equality and r.slack == 0
        assert all(b.slack == 0 for b in r.branches)


class TestT4:
    def test_p3_upper_equality(self):
        r = check_T4_ga_platt(path_graph(3))
        assert r.satisfied
        assert branch(r, "line_upper").equality  # GA1(L(P3)) = 1 = P/2

    def test_c4_equality_both_sides(self):
        r = check_T4_ga_platt(cycle_graph(4))
        assert r.satisfied and all(b.equality for b in r.branches)

    def test_s4_zero_lower_coefficient(self):
        r = check_T4_ga_platt(star_graph(4))
        assert r.satisfied
        lower = branch(r, "line_lower")
        assert lower.rhs == 0
        assert branch(r, "line_upper").equality  # K3 regular: GA1 = 3 = P/2


class TestT5:
    def test_c4(self):
        r = check_T5_ga_hyperbolicity(cycle_graph(4))
        assert r.lhs == 4
        assert float(r.rhs) == pytest.approx(3 ** 1.5 / 2, abs=1e-9)
        assert r.satisfied and r.reason == "delta=1"

    def test_c3(self):
        r = check_T5_ga_hyperbolicity(complete_graph(3))
        assert r.lhs == 3
        assert float(r.rhs) == pytest.approx(2 ** 1.5 / 1.5, abs=1e-9)
        assert r.satisfied and r.reason == "delta=3/4"

    def test_k4(self):
        r = check_T5_ga_hyperbolicity(complete_graph(4))
        assert r.satisfied and r.lhs == 12  # L(K4) is 4-regular with 12 edges

    def test_tree_not_applicable(self):
        r = check_T5_ga_hyperbolicity(star_graph(5))
        assert not r.applicable and "tree" in r.reason

    def test_cap_not_applicable(self):
        r = check_T5_ga_hyperbolicity(cycle_graph(9))
        assert not r.applicable and "cap" in r.reason

    def test_survey_through_n6(self):
        # the delta survey read off the T5 records of the connected graphs with
        # 3 <= n <= 6: the graph count, the delta distribution, the graphs where
        # delta = m/4 and the least slack of the GA1(L(G)) bound
        surveyed = []
        for rec in verify_records(EnumerationSpec(3, 6, connected_only=True), ("T5",)):
            (t5,) = rec.checks
            if t5.applicable:
                surveyed.append((rec, Fraction(t5.reason.removeprefix("delta=")), t5))
        assert len(surveyed) == 129
        assert Counter(delta for _, delta, _ in surveyed) == {
            Fraction(3, 4): 16, 1: 48, Fraction(5, 4): 55, Fraction(3, 2): 10}
        assert [rec.graph6 for rec, delta, _ in surveyed if delta == Fraction(rec.m, 4)] == [
            "Bw", "C]", "DUW", "EEh_"]
        rec, delta, t5 = min(surveyed, key=lambda s: s[2].slack)
        assert (rec.graph6, delta, f"{t5.slack:.12g}") == ("Bw", Fraction(3, 4), "1.11438191684")


class TestT6:
    def test_c4_equality(self):
        r = check_T6_ga_vs_m1(cycle_graph(4))
        assert (r.lhs, r.rhs) == (4, 4)
        assert r.equality

    def test_s4_strict(self):
        r = check_T6_ga_vs_m1(star_graph(4))
        assert r.rhs == 2 and r.satisfied and not r.equality

    def test_p3(self):
        r = check_T6_ga_vs_m1(path_graph(3))
        assert r.rhs == Fraction(3, 2)
        assert float(r.lhs) == pytest.approx(4 * math.sqrt(2) / 3, abs=1e-9)
        assert r.satisfied

    @given(connected_graphs(max_n=7))
    @settings(max_examples=40)
    def test_equality_on_every_regular_graph(self, g):
        degs = set(g.degrees)
        if len(degs) != 1:
            return
        assert check_T6_ga_vs_m1(g).equality


_LOOSEST = pytest.mark.parametrize("check, pick", [
    (check_T1_m1_upper, max),
    (check_T6_ga_vs_m1, lambda rhss: min(rhss, key=float)),
], ids=["T1", "T6"])


class TestLoosestBound:
    """T1 and T6 hold iff one of their named bounds does: the headline is the
    loosest branch, every branch compares the same lhs."""

    @staticmethod
    def assert_loosest(r, pick):
        if not r.applicable:
            return
        assert all(b.lhs == r.lhs for b in r.branches)
        assert r.rhs == pick([b.rhs for b in r.branches])
        assert r.satisfied == any(b.satisfied for b in r.branches)

    @_LOOSEST
    def test_every_graph_upto_7(self, graphs_upto_7, check, pick):
        for g in graphs_upto_7:
            self.assert_loosest(check(g), pick)

    @_LOOSEST
    @given(g=connected_graphs(max_n=12))
    @settings(max_examples=60)
    def test_draws(self, check, pick, g):
        self.assert_loosest(check(g), pick)


class TestT7:
    @pytest.mark.parametrize(
        "g,expected",
        [(path_graph(3), 2), (star_graph(4), 12), (cycle_graph(4), 16)],
        ids=["P3", "S4", "C4"],
    )
    def test_identity_values(self, g, expected):
        r = check_T7_m1_line_identity(g)
        assert r.lhs == r.rhs == expected
        assert r.satisfied and r.equality and r.slack == 0

    @given(nontrivial_graphs())
    def test_zero_slack_everywhere(self, g):
        assert check_T7_m1_line_identity(g).slack == 0


class TestT8:
    def test_c4_equality(self):
        r = check_T8_ga_line_lower(cycle_graph(4))
        assert (r.lhs, r.rhs) == (4, 4) and r.equality

    def test_s4_zero_coefficient(self):
        r = check_T8_ga_line_lower(star_graph(4))
        assert r.rhs == 0 and r.lhs == 3 and r.satisfied

    def test_k4(self):
        r = check_T8_ga_line_lower(complete_graph(4))
        assert (r.lhs, r.rhs) == (12, 12) and r.equality


class TestT9:
    def test_c4_equality_regular(self):
        r = check_T9_harmonic_bounds(cycle_graph(4))
        assert r.satisfied
        assert branch(r, "order_bound").equality
        assert branch(r, "line_bound").equality

    def test_s4_line_equality_biregular(self):
        r = check_T9_harmonic_bounds(star_graph(4))
        assert r.satisfied
        assert not branch(r, "order_bound").equality  # 3/2 < 2
        assert branch(r, "line_bound").equality  # H(K3) = 3/2 = m/2

    def test_p4_strict_both(self):
        r = check_T9_harmonic_bounds(path_graph(4))
        assert r.satisfied
        assert not branch(r, "order_bound").equality
        assert not branch(r, "line_bound").equality

    @given(connected_graphs(max_n=7))
    @settings(max_examples=50)
    def test_characterizations_hold(self, g):
        r = check_T9_harmonic_bounds(g)
        assert r.satisfied  # includes both iff directions as sub-checks


def _lemma(k, d_max, xs):
    """The lemma on one integer tuple, through the kernel the graph check uses."""
    return _lemma_result("T10", _lemma_ints(k, d_max, xs))


class TestT10:
    def test_tight_instance(self):
        r = _lemma(3, 3, (1, 1, 1))
        assert r.satisfied
        assert branch(r, "lemma_lower").lhs == Fraction(3, 4)
        assert branch(r, "lemma_lower").equality
        assert branch(r, "lemma_upper").rhs == Fraction(9, 8)

    def test_max_entries(self):
        r = _lemma(3, 5, (5, 5, 5))
        assert r.satisfied
        assert branch(r, "lemma_lower").lhs == Fraction(3, 8)
        assert branch(r, "lemma_lower").rhs == Fraction(1, 4)

    def test_mixed_entries(self):
        assert _lemma(4, 4, (1, 2, 3, 4)).satisfied

    def test_graph_instantiation(self):
        r = check_T10_on_graph(star_graph(4))
        assert r.satisfied and len(r.branches) == 1
        assert check_T10_on_graph(cycle_graph(5)).applicable is False

    @given(connected_graphs())
    def test_graph_branch_is_the_lemma_at_its_hub(self, g):
        r = check_T10_on_graph(g)
        hubs = [u for u in range(g.n) if g.degrees[u] >= 3]
        assert len(r.branches) == len(hubs) if hubs else not r.applicable
        d_max = max(g.degrees)
        for u, got in zip(hubs, r.branches):
            xs = tuple(sorted(g.degrees[v] for v in g.adjacency[u]))
            lemma = _lemma(g.degrees[u], d_max, xs)
            assert check_to_dict(got) == check_to_dict(replace(lemma, theorem_id=f"T10.vertex{u}"))


@st.composite
def lemma_instances(draw):
    """Tuples drawn from a pool of at most three values, so most repeat."""
    d_max = draw(st.integers(3, 40))
    k = draw(st.integers(3, min(30, d_max)))
    pool = draw(st.lists(st.integers(1, d_max), min_size=1, max_size=3))
    xs = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    return k, d_max, tuple(xs)


class TestT10AgainstPairSumOracle:
    @given(lemma_instances())
    def test_same_result_as_the_pair_sums(self, inst):
        k, d_max, xs = inst
        s_sum, t_sum = t10_sums_oracle(k, xs)
        expected = _combine("T10", [
            _compare("T10.lemma_lower", s_sum, Fraction(2, k - 1) * t_sum, "lower"),
            _compare("T10.lemma_upper", s_sum,
                     Fraction(2 * (d_max + 2 * k - 3), k * k - 1) * t_sum, "upper"),
            _compare("T10.corollary_lower", s_sum, Fraction(2, d_max - 1) * t_sum, "lower"),
            _compare("T10.corollary_upper", s_sum, Fraction(d_max + 3, 4) * t_sum, "upper"),
        ])
        assert check_to_dict(_lemma(k, d_max, xs)) == check_to_dict(expected)


def _t10_by_combine(r):
    """T10 as the nested _combine over its per-vertex results decides it."""
    return check_to_dict(_combine("T10", list(r.branches)))


_PETERSEN = Graph(10, tuple((i, (i + 1) % 5) for i in range(5))
                  + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5))
                  + tuple((i, i + 5) for i in range(5)))


def _cycle_with_chords(n, step):
    """The cycle C_n plus every chord {i, i + step mod n}: a regular graph."""
    chords = {tuple(sorted((i, (i + step) % n))) for i in range(n)}
    return Graph(n, tuple(sorted(set(cycle_graph(n).edges) | chords)))


class TestT10IntegerPath:
    """check_T10_on_graph decides satisfied, equality and the binding bound
    from integers; the nested _combine over its branches is the reference
    (TestT10Exhaustive also compares them on every connected graph, n <= 7)."""

    @given(st.integers(12, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_gnp_draws_past_the_cap(self, n, seed):
        from topoline.harness import sample_gnp

        r = check_T10_on_graph(sample_gnp(n, Fraction(5, n - 1), seed))
        if r.applicable:
            assert check_to_dict(r) == _t10_by_combine(r)

    @pytest.mark.parametrize("g", [
        complete_graph(5), _PETERSEN, _cycle_with_chords(6, 3), _cycle_with_chords(8, 4),
        _cycle_with_chords(12, 3),
    ], ids=["K5", "petersen", "K33", "wagner", "C12+3-chords"])
    def test_regular_ties_pin_the_first_vertex(self, g):
        r = check_T10_on_graph(g)
        assert len(set(g.degrees)) == 1 and len(r.branches) == g.n
        assert len({(b.lhs, b.rhs, b.slack) for b in r.branches}) == 1  # every vertex ties
        assert check_to_dict(r) == _t10_by_combine(r)
        first = r.branches[0]
        assert first.theorem_id == "T10.vertex0"
        assert (r.lhs, r.rhs, r.slack) == (first.lhs, first.rhs, first.slack)

    @given(st.integers(-2**200, 2**200), st.integers(1, 2**200))
    def test_int_division_is_float_of_the_fraction(self, a, b):
        # the binding key slack_num / (r_den * s_den) is taken unreduced
        assert a / b == float(Fraction(a, b))

    @given(st.integers(-2**100, 2**100), st.integers(1, 2**100), st.integers(1, 2**100))
    def test_int_division_unreduced(self, a, b, c):
        assert (a * c) / (b * c) == float(Fraction(a, b))


class TestT10LazyBranches:
    """The per-vertex T10 results are built only when a report writes them."""

    @pytest.fixture
    def vertex_builds(self, monkeypatch):
        import topoline.theorems as theorems

        built = []
        real = theorems._lemma_result

        def spy(theorem_id, *args):
            if theorem_id.startswith("T10.vertex"):
                built.append(theorem_id)
            return real(theorem_id, *args)

        monkeypatch.setattr(theorems, "_lemma_result", spy)
        return built

    @staticmethod
    def _source(tmp_path):
        from topoline.harness import EnumerationSpec, sample_gnp
        from topoline.io_formats import emit_graph6

        graphs = [sample_gnp(30, Fraction(5, 29), seed) for seed in range(4)]
        path = tmp_path / "g30.g6"
        path.write_text("".join(emit_graph6(g) + "\n" for g in graphs))
        hubs = sum(d >= 3 for g in graphs for d in g.degrees)
        return EnumerationSpec(1, 62, source=str(path)), hubs

    def test_len_builds_nothing(self, vertex_builds):
        r = check_T10_on_graph(_PETERSEN)
        assert len(r.branches) == 10 and r.branches
        assert vertex_builds == []
        assert [b.theorem_id for b in r.branches] == [f"T10.vertex{u}" for u in range(10)]
        list(r.branches)
        assert len(vertex_builds) == 10

    def test_csv_builds_no_vertex_result(self, tmp_path, vertex_builds):
        from conftest import write_verified

        spec, hubs = self._source(tmp_path)
        assert hubs > 0
        write_verified(tmp_path, spec, ("T10",), fmt="csv")
        assert vertex_builds == []

    def test_json_builds_each_vertex_result_once(self, tmp_path, vertex_builds):
        from conftest import write_verified

        spec, hubs = self._source(tmp_path)
        report, _ = write_verified(tmp_path, spec, ("T10",), fmt="json")
        assert len(vertex_builds) == hubs
        assert report.count(b'"theorem_id": "T10.vertex') == hubs


class TestT11:
    def test_p4_lower_tight(self):
        r = check_T11_harmonic_sandwich(path_graph(4))
        lower = branch(r, "lower")
        assert lower.rhs == Fraction(4, 3) and lower.equality

    def test_c5_upper_tight(self):
        r = check_T11_harmonic_sandwich(cycle_graph(5))
        upper = branch(r, "upper")
        assert upper.equality and upper.lhs == Fraction(5, 2)

    def test_s4_regime(self):
        r = check_T11_harmonic_sandwich(star_graph(4))
        assert branch(r, "lower").rhs == 1
        assert branch(r, "upper").rhs == 3
        assert r.satisfied

    def test_high_degree_regime(self):
        r = check_T11_harmonic_sandwich(star_graph(7))  # max degree 6 > 4
        assert r.satisfied and "regime" in r.reason


class TestT10Exhaustive:
    def test_every_connected_graph_up_to_seven(self, graphs_upto_7):
        checked = 0
        connected = [g for g in graphs_upto_7 if g.n >= 2 and is_connected(g)]
        for g in connected:
            r = check_T10_on_graph(g)
            if r.applicable:
                checked += 1
                assert r.satisfied, g
                assert check_to_dict(r) == _t10_by_combine(r), g  # the integer path
        assert checked > 700  # most connected graphs on <= 7 vertices have a hub


def _compare_by_operators(lhs, rhs, kind):
    """_compare's rule on two Fractions by their operators: the slack is
    rhs - lhs for "upper", lhs - rhs for "lower" and -|rhs - lhs| for an
    identity; satisfied iff slack >= 0, equality iff the sides are equal."""
    diff = rhs - lhs
    slack = diff if kind == "upper" else -diff if kind == "lower" else -abs(diff)
    return lhs, rhs, slack, slack >= 0, diff == 0


@st.composite
def fraction_sides(draw):
    """Two Fractions, often equal, zero or of opposite signs."""
    lhs = draw(st.one_of(st.just(Fraction(0)), st.fractions()))
    rhs = draw(st.one_of(st.just(lhs), st.just(-lhs), st.just(Fraction(0)), st.fractions()))
    return lhs, rhs


class TestCompare:
    @given(fraction_sides(), st.sampled_from(["upper", "lower", "identity"]))
    def test_fractions_match_the_operator_rule(self, sides, kind):
        lhs, rhs = sides
        r = _compare("T", lhs, rhs, kind)
        assert (r.lhs, r.rhs, r.slack, r.satisfied, r.equality) == \
            _compare_by_operators(lhs, rhs, kind)
        assert type(r.slack) is Fraction

    def test_float_operand_takes_the_tolerance(self):
        # 1 + 1e-12 <= 1 fails exactly, but holds, tightly, within REAL_TOLERANCE
        r = _compare("T", 1 + 1e-12, Fraction(1), "upper")
        assert r.satisfied and r.equality
        assert type(r.slack) is float and -1e-9 < r.slack < 0


class TestDispatchAndApplicability:
    def test_all_checks_on_disconnected_nontrivial(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(4))
        for tid, fn in GRAPH_CHECKS.items():
            r = fn(g)
            if tid == "T5":
                assert not r.applicable  # disconnected
            else:
                assert r.satisfied

    def test_isolated_vertex_not_applicable(self):
        g = Graph(3, ((0, 1),))
        for fn in GRAPH_CHECKS.values():
            assert not fn(g).applicable

    @given(nontrivial_graphs(max_n=6))
    @settings(max_examples=30)
    def test_no_violations_on_random_nontrivial(self, g):
        for tid, fn in GRAPH_CHECKS.items():
            r = fn(g)
            assert r.satisfied, f"{tid} violated on {g}"


STANDING = ("T1", "T6", "T9")
NON_TRIVIAL = ("T2", "T3", "T4", "T7", "T8", "T11")
TRIVIAL = "trivial graph (a component has fewer than 2 edges)"
NO_HUB = "no vertex of degree >= 3"

#: graph -> (the reason of every check that is not applicable, else None)
REASONS = {
    "empty": (Graph(0), dict.fromkeys(GRAPH_CHECKS, "empty graph")),
    "edgeless": (Graph(2), dict.fromkeys(GRAPH_CHECKS, "no edges")),
    "isolated": (
        Graph(3, ((0, 1),)),
        dict.fromkeys(GRAPH_CHECKS, "isolated vertex violates the standing assumption"),
    ),
    "P2": (
        path_graph(2),
        {**dict.fromkeys(STANDING), **dict.fromkeys(NON_TRIVIAL, TRIVIAL),
         "T5": TRIVIAL, "T10": NO_HUB},
    ),
    "C3+C4": (
        disjoint_union(cycle_graph(3), cycle_graph(4)),
        {**dict.fromkeys(STANDING + NON_TRIVIAL), "T5": "disconnected graph", "T10": NO_HUB},
    ),
    "P4": (
        path_graph(4),
        {**dict.fromkeys(STANDING + NON_TRIVIAL),
         "T5": "tree: hyperbolicity constant is 0", "T10": NO_HUB},
    ),
}


@pytest.mark.parametrize("tid", list(GRAPH_CHECKS))
@pytest.mark.parametrize("name", list(REASONS))
def test_not_applicable_reason(name, tid):
    g, expected = REASONS[name]
    r = GRAPH_CHECKS[tid](g)
    if expected[tid] is None:
        assert r.applicable, r.reason
    else:
        assert (r.applicable, r.satisfied, r.reason) == (False, True, expected[tid])
        assert r.theorem_id == tid and r.lhs is r.rhs is r.slack is None
