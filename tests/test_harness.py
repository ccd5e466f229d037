import hashlib
import random
import weakref
from fractions import Fraction

import networkx as nx
import pytest

from conftest import cycle_graph, is_isomorphic, path_graph, star_graph, write_verified
from topoline.graph_core import Graph, canonical_form
from topoline.harness import (
    EnumerationCapError,
    EnumerationSpec,
    enumerate_graphs,
    enumerate_trees,
    extremal_search,
    sample_gnp,
    verification_meta,
    verify_records,
)
from topoline.io_formats import ReportMeta, emit_graph6, write_report
from topoline.line_graph import line_graph


@pytest.fixture(scope="module")
def trees_by_order():
    """enumerate_trees(n) for n = 1..10, grown once for the tests that read them all."""
    return {n: enumerate_trees(n) for n in range(1, 11)}


class TestEnumeration:
    # Counts cross-checked against the published numbers of connected graphs
    # (1, 2, 6, 21, 112, 853 for n = 2..7) and of all graphs (34, 156, 1044).
    @pytest.mark.parametrize("n,count", [(4, 6), (5, 21), (6, 112)])
    def test_connected_counts(self, n, count):
        spec = EnumerationSpec(n, n, connected_only=True)
        assert sum(1 for _ in enumerate_graphs(spec)) == count

    @pytest.mark.parametrize("n,count", [(4, 11), (5, 34), (6, 156)])
    def test_all_counts(self, n, count):
        assert sum(1 for _ in enumerate_graphs(EnumerationSpec(n, n))) == count

    def test_one_representative_per_class(self):
        keys = [canonical_form(g) for g in enumerate_graphs(EnumerationSpec(5, 5))]
        assert len(keys) == len(set(keys))
        assert keys == sorted(keys)

    # sha256 of the canonical keys of the graphs on n vertices, in order, one per line:
    # a change to the canonical search must leave keys and their order alone.
    @pytest.mark.parametrize("n,digest", [
        (0, "ba768b331fd86cec803be04e56ab2b3d4c0e98ef4ee4fcd4e72ad7cce61a1d1f"),
        (1, "0758ffe9350a70a1adf269901b9aa458444de136e5b6d98091f8cc33580a0088"),
        (2, "f6d493485a539d6b248d13155d866a6c4e3d0db4e141f0babc372f8837365fbe"),
        (3, "32e0d6cd40d2a6cdc60be3ef9b82302887f854e3703723cbf12812749fb15d49"),
        (4, "c84fd0f0c19e82b53e21b411249d47907399f49760b68f66141ee6eb3a9d141c"),
        (5, "bda0c89559599f6944aba79f122dd3c499915cdf20faead1440a79ebcf88bec3"),
        (6, "e48d3b3bb166c10aa26638b12d504f21a3468f684cc99e5a4f42ff16292fd17f"),
        (7, "98d1b2def0e5e586ee01510ed2fe3789cb6ec8e9e682d0974566ed04dca2f08b"),
    ])
    def test_canonical_keys_pinned(self, n, digest):
        keys = "\n".join(canonical_form(g) for g in enumerate_graphs(EnumerationSpec(n, n)))
        assert hashlib.sha256(keys.encode()).hexdigest() == digest

    def test_cap_error_mentions_file_source(self):
        with pytest.raises(EnumerationCapError, match="graph6 file"):
            list(enumerate_graphs(EnumerationSpec(2, 9)))

    def test_empty_range(self):
        assert list(enumerate_graphs(EnumerationSpec(5, 3))) == []

    def test_non_trivial_filter(self):
        graphs = list(
            enumerate_graphs(EnumerationSpec(2, 3, connected_only=True, non_trivial_only=True))
        )
        assert [g.n for g in graphs] == [3, 3]  # P2 dropped

    def test_file_source(self, tmp_path):
        path = tmp_path / "graphs.g6"
        lines = [emit_graph6(cycle_graph(4)), emit_graph6(star_graph(4)),
                 emit_graph6(cycle_graph(4))]
        path.write_text("\n".join(lines) + "\n")
        spec = EnumerationSpec(2, 10, source=str(path))
        graphs = list(enumerate_graphs(spec))
        assert len(graphs) == 2  # duplicate class collapsed

    def test_tree_counts(self):
        # published tree counts 1, 1, 1, 2, 3, 6, 11, 23 for n = 1..8
        assert [len(enumerate_trees(n)) for n in range(1, 9)] == [1, 1, 1, 2, 3, 6, 11, 23]

    def test_tree_catalogue_pinned(self, trees_by_order):
        # every tree with n <= 10 as graph6, in enumeration order: the
        # representatives `extremal --class trees` ranks, and their order
        text = "".join(emit_graph6(t) + "\n" for trees in trees_by_order.values() for t in trees)
        digest = "5d8389a520a81e64d10ef1cb3b7a196605473d8e1a49ab8f73c3ee0d1ef5764a"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n,count", [
        (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23), (9, 47), (10, 106),
    ])
    def test_trees_match_networkx(self, trees_by_order, n, count):
        reference = sorted(canonical_form(Graph(n, tuple(h.edges())))
                           for h in nx.nonisomorphic_trees(n))
        keys = [canonical_form(t) for t in trees_by_order[n]]
        assert keys == reference and len(keys) == count

    def test_tree_cap_refused_before_work(self, monkeypatch):
        import topoline.harness as harness

        monkeypatch.setattr(harness, "canonical_form", None)  # any call would raise
        with pytest.raises(EnumerationCapError, match="tree enumeration caps at n=10"):
            enumerate_trees(11)

    def test_trees_are_trees(self):
        for t in enumerate_trees(7):
            assert t.m == t.n - 1


class TestRunVerification:
    def test_connected_n4_all_theorems_zero_violations(self, tmp_path):
        spec = EnumerationSpec(2, 4, connected_only=True, non_trivial_only=True)
        _, aggregates = write_verified(tmp_path, spec)
        assert aggregates["violations"] == 0

    def test_single_graph_t6_equality(self, tmp_path):
        path = tmp_path / "c4.g6"
        path.write_text(emit_graph6(cycle_graph(4)) + "\n")
        records = list(verify_records(EnumerationSpec(4, 4, source=str(path)), theorems=("T6",)))
        assert len(records) == 1
        check = records[0].checks[0]
        assert check.theorem_id == "T6" and check.equality

    def test_empty_spec_empty_report(self, tmp_path):
        assert list(verify_records(EnumerationSpec(5, 3))) == []
        _, aggregates = write_verified(tmp_path, EnumerationSpec(5, 3))
        assert aggregates["graphs_checked"] == 0

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            verification_meta(EnumerationSpec(3, 3), theorems=("T42",))
        with pytest.raises(ValueError, match="unknown theorem"):
            next(verify_records(EnumerationSpec(3, 3), theorems=("T42",)))

    def test_report_bytes_pinned(self, tmp_path):
        # Every graph with n <= 6 under all eleven checks: a refactor of the
        # checks, the harness or the writer must leave these bytes alone.
        spec = EnumerationSpec(1, 6)
        digests = {
            fmt: hashlib.sha256(write_verified(tmp_path, spec, fmt=fmt)[0]).hexdigest()
            for fmt in ("json", "csv")
        }
        assert digests == {
            "json": "e993483d2292c833378a4a90e446db0ccc6d3107feeeab0ed3b261236f9d8684",
            "csv": "87f07d81d36dedc96f4004345f40eaabdcb129a61c112a37608d84cad31b7e81",
        }

    def test_graph6_emitted_once_per_large_graph(self, tmp_path, monkeypatch):
        # beyond the canonical-form cap the record's graph6 doubles as its key
        import topoline.io_formats as io_formats

        graphs = [cycle_graph(12), path_graph(12), star_graph(12)]
        path = tmp_path / "n12.g6"
        path.write_text("".join(emit_graph6(g) + "\n" for g in graphs))
        calls = []

        def counting(g):
            calls.append(g)
            return emit_graph6(g)

        # io_formats labels records with it
        monkeypatch.setattr(io_formats, "emit_graph6", counting)
        records = list(verify_records(EnumerationSpec(12, 12, source=str(path)), ("T3",)))
        assert [r.graph_key for r in records] == sorted(r.graph6 for r in records)
        # once each, for the record's label: the first pass keys a line by its own text
        assert len(calls) == len(graphs)

    def test_determinism_across_runs(self, tmp_path):
        spec = EnumerationSpec(2, 4, connected_only=True)
        a, _ = write_verified(tmp_path, spec, ("T1", "T3", "T9"))
        b, _ = write_verified(tmp_path, spec, ("T1", "T3", "T9"))
        assert a == b


class TestPerRecordLifetime:
    """A run holds one record's graph, line graph and index vectors at a time."""

    # C4, S4, K3,4, C3 + P4, P12, K12 (L(K12) has 66 vertices), S4 again, and
    # three more; the duplicate is dropped, so 8 records.
    SOURCE = "Cl\nCs\nFFzf?\nFwCGG\nKhCGGC@?G?_@\nK~~~~~~~~~~~\nCs\nDQo\nGhdGKC\n"

    @staticmethod
    def _mixed_source(tmp_path, copies=1, seed=None):
        """Graphs with n <= 10 (keyed by canonical form) and n > 10 (by graph6),
        each line repeated ``copies`` times; sorted, or shuffled by ``seed``."""
        lines = [emit_graph6(g) for g in enumerate_graphs(EnumerationSpec(3, 5, connected_only=True))]
        lines += [emit_graph6(sample_gnp(n, Fraction(1, 3), n)) for n in range(11, 15)]
        lines = sorted(lines * copies)
        if seed is not None:
            random.Random(seed).shuffle(lines)
        path = tmp_path / f"mixed{copies}.g6"
        path.write_text("".join(line + "\n" for line in lines))
        return str(path)

    def test_cache_bounds_after_a_run(self):
        for _ in verify_records(EnumerationSpec(1, 6)):
            pass
        assert line_graph.cache_info().currsize <= 1

    @pytest.mark.parametrize("theorems,line_counts,index_counts", [
        (None, (51, 8), (16, 16)),
        (("T1",), (0, 0), (8, 8)),
        (("T3", "T7"), (8, 8), (16, 16)),
    ])
    def test_cache_counts_pinned(self, tmp_path, monkeypatch, theorems, line_counts, index_counts):
        # line_graph's (hits, misses) as an unbounded cache counted them: every
        # reuse of a line graph happens within its own record; and (index
        # computations, distinct graphs computed): one per G and one per L(G)
        import topoline.indices as indices

        computed = []
        compute = indices.compute_index_vector
        monkeypatch.setattr(indices, "compute_index_vector", lambda g: computed.append(g) or compute(g))
        path = tmp_path / "fixture.g6"
        path.write_text(self.SOURCE)
        line_graph.cache_clear()
        records = list(verify_records(EnumerationSpec(1, 62, source=str(path)), theorems))
        assert len(records) == 8
        lg = line_graph.cache_info()
        assert (lg.hits, lg.misses) == line_counts
        assert (len(computed), len({id(g) for g in computed})) == index_counts

    @pytest.mark.parametrize("theorems", [("T1",), ("T3", "T7"), ("T1", "T2", "T9", "T11")])
    def test_earlier_graphs_released_as_the_source_drains(self, tmp_path, monkeypatch, theorems):
        import topoline.io_formats as io_formats

        built = []
        alive_at_draw = []
        build = io_formats.Graph

        def tracked(n, edges):
            alive_at_draw.append(sum(ref() is not None for ref in built))
            g = build(n, edges)
            built.append(weakref.ref(g))
            return g

        monkeypatch.setattr(io_formats, "Graph", tracked)
        path = self._mixed_source(tmp_path, copies=2)
        records = verify_records(EnumerationSpec(1, 62, source=path), theorems)
        assert sum(1 for _ in records) == 33
        # 66 lines read: the 58 with n <= 10 are decoded for their canonical
        # key, the 8 beyond the cap only checked; then each of the 33 kept
        # graphs is decoded once more
        assert len(built) == 58 + 33
        # only the record just yielded (line_graph's cache keys on it) may hold
        # a graph at the next draw; the first pass keeps only text
        assert max(alive_at_draw) <= 1

    def test_duplicated_shuffled_source_gives_the_same_report(self, tmp_path):
        reports = []
        for path in (self._mixed_source(tmp_path), self._mixed_source(tmp_path, 3, seed=5)):
            out = tmp_path / "report.csv"
            records = verify_records(EnumerationSpec(1, 62, source=path))
            write_report(ReportMeta(), records, "csv", str(out))
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert reports[0].count(b"\n") == 1 + 33 * 11


class TestExtremalSearch:
    def test_harmonic_max_trees_is_path(self):
        winners = extremal_search("harmonic", "max", "trees", 6)
        assert len(winners) == 1
        assert is_isomorphic(winners[0][0], path_graph(6))

    def test_harmonic_min_trees_is_star(self):
        winners = extremal_search("harmonic", "min", "trees", 6)
        assert len(winners) == 1
        assert is_isomorphic(winners[0][0], star_graph(6))

    def test_ga1_max_connected_n4(self):
        # GA1 <= m with equality iff regular; K4 has the most edges: value 6
        winners = extremal_search("ga1", "max", "connected", 4)
        assert len(winners) == 1
        g, value = winners[0]
        assert g.m == 6 and float(value) == pytest.approx(6.0)

    def test_delta_max_connected_n5(self):
        winners = extremal_search("delta", "max", "connected", 5)
        assert all(v == Fraction(5, 4) for _, v in winners)
        assert any(is_isomorphic(g, cycle_graph(5)) for g, _ in winners)

    def test_unicyclic_class(self):
        winners = extremal_search("m1", "min", "unicyclic", 5)
        assert all(g.m == g.n for g, _ in winners)
        assert winners[0][1] == 20  # C5 minimizes M1 among unicyclic on 5 vertices

    def test_unknown_index_lists_names(self):
        with pytest.raises(ValueError, match="harmonic"):
            extremal_search("wiener", "max", "trees", 5)

    @pytest.mark.parametrize("graph_class,n,message", [
        ("trees", 9, "n=9 exceeds the exact-computation cap 8"),
        ("trees", 10, "n=10 exceeds the exact-computation cap 8"),
        ("trees", 11, "tree enumeration caps at n=10"),
        ("connected", 9, "internal enumeration caps at n=8"),
        ("all", 9, "internal enumeration caps at n=8"),
    ])
    def test_delta_past_its_cap_refused_before_any_graph_grows(self, monkeypatch, graph_class,
                                                                n, message):
        import topoline.harness as harness

        grown = []
        key = harness.canonical_form
        monkeypatch.setattr(harness, "canonical_form", lambda g: grown.append(g) or key(g))
        with pytest.raises(ValueError, match=message):
            extremal_search("delta", "max", graph_class, n)
        assert grown == []

    def test_ties_included(self):
        winners = extremal_search("m1", "max", "trees", 4)
        assert len(winners) == 1  # star dominates at n=4
        values = [v for _, v in winners]
        assert values == [12]


class TestSampleGnp:
    def test_determinism_contract(self):
        assert sample_gnp(30, Fraction(1, 2), 42) == sample_gnp(30, Fraction(1, 2), 42)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            sample_gnp(5, 1.5, 0)
