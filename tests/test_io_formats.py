import json
import weakref
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    cycle_graph,
    emit_edge_list,
    graphs,
    parse_edge_list,
    path_graph,
    star_graph,
    write_verified,
)
from oracles import aggregates_oracle, graph6_oracle, report_csv_oracle, report_json_oracle
from topoline.graph_core import Graph, canonical_form
from topoline.harness import EnumerationSpec, sample_gnp, verification_meta, verify_records
from topoline.indices import compute_index_vector
from topoline.io_formats import (
    MAX_EDGE_LIST_VERTICES,
    EdgeListError,
    Graph6Error,
    ReportMeta,
    emit_graph6,
    format_value,
    graph_record,
    parse_graph6,
    read_graph_file,
    write_report,
)
from topoline.theorems import GRAPH_CHECKS, BoundCheckResult


@st.composite
def graph6_like(draw, max_n: int = 12):
    """A size byte for n <= ``max_n``, then about the needed number of payload
    characters near the graph6 range (63..126), so that many strings decode."""
    n = draw(st.integers(0, max_n))
    need = (n * (n - 1) // 2 + 5) // 6
    size = draw(st.sampled_from([need, need, need, max(need - 1, 0), need + 1]))
    alphabet = st.characters(min_codepoint=60, max_codepoint=128)
    return chr(63 + n) + draw(st.text(alphabet, min_size=size, max_size=size))


def _small_if_integer(token: str) -> bool:
    try:
        return abs(int(token)) <= 300  # no fuzzed vertex count allocates a huge graph
    except ValueError:
        return True


EDGE_LIST_TOKENS = st.one_of(
    st.integers(-1, 9).map(str),
    st.integers(-2, 300).map(str),
    st.sampled_from(["#", "# c", "0x1", "1.5", "-0"]),
    st.text(max_size=4).filter(_small_if_integer),
)
EDGE_LIST_LIKE = st.tuples(
    st.one_of(st.just(""), st.integers(0, 12).map("{}\n".format)),
    st.lists(
        st.lists(EDGE_LIST_TOKENS, max_size=4).flatmap(
            lambda tokens: st.sampled_from([" ", "\t", "  "]).map(lambda sep: sep.join(tokens))
        ),
        max_size=8,
    ).map("\n".join),
).map("".join)


def read_graph6_text(path, text: str) -> list[Graph]:
    """The graphs of a graph6 file holding ``text``."""
    path.write_bytes(text.encode())
    return list(read_graph_file(str(path), "graph6"))


def nx_graph6(g: Graph) -> str:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return nx.to_graph6_bytes(h, header=False).decode().strip()


class TestGraph6:
    def test_bw_is_k3(self):
        # cross-checked against the networkx reference implementation below
        assert parse_graph6("Bw") == complete_graph(3)

    def test_bg_is_p3(self):
        assert parse_graph6("Bg") == Graph(3, ((0, 1), (1, 2)))

    def test_empty_string_rejected(self):
        with pytest.raises(Graph6Error, match="empty"):
            parse_graph6("")

    def test_emit_k3(self):
        assert emit_graph6(complete_graph(3)) == "Bw"

    def test_emit_p3(self):
        assert emit_graph6(path_graph(3)) == "Bg"

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<Bw") == complete_graph(3)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(Graph6Error, match="trailing garbage"):
            parse_graph6("Bwx")

    def test_file_error_names_physical_line(self, tmp_path):
        with pytest.raises(Graph6Error) as excinfo:
            read_graph6_text(tmp_path / "in.g6", "Bw\n\nC!x\n")
        err = excinfo.value
        assert (err.line, err.offset) == (3, 2)
        assert str(err) == "line 3: trailing garbage after payload (byte offset 2)"

    def test_truncated_rejected(self):
        with pytest.raises(Graph6Error, match="truncated"):
            parse_graph6("D")

    def test_byte_out_of_range_rejected(self):
        with pytest.raises(Graph6Error, match="out of range"):
            parse_graph6("B\x20")

    def test_size_cap(self):
        with pytest.raises(ValueError, match="n <= 62"):
            emit_graph6(Graph(63))

    def test_file_lines_are_physical_lines(self, tmp_path):
        # \x0c and \x0b break lines for str.splitlines, not in a file
        with pytest.raises(Graph6Error) as excinfo:
            read_graph6_text(tmp_path / "in.g6", "Bw\x0cC!x\n")
        assert excinfo.value.line == 1
        with pytest.raises(Graph6Error, match="line 1: trailing garbage"):
            read_graph6_text(tmp_path / "in.g6", "Bw\x0cBg")

    @given(st.one_of(st.text(max_size=40), graph6_like()))
    def test_fuzz_parse_graph6(self, text):
        try:
            assert isinstance(parse_graph6(text), Graph)
        except Graph6Error:
            pass

    @given(st.one_of(
        st.text(max_size=80),
        st.lists(st.one_of(graph6_like(), st.text(max_size=3)), max_size=6).map("\n".join),
    ))
    def test_fuzz_parse_graph6_file(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.g6"
        try:
            assert all(isinstance(g, Graph) for g in read_graph6_text(path, text))
        except Graph6Error:
            pass

    @given(st.one_of(
        st.text(max_size=40),
        graph6_like(max_n=62),
        graph6_like(max_n=62).map(">>graph6<<".__add__),
        st.text("?@_~", max_size=12).map(lambda payload: "K" + payload),  # n = 12: 11 bytes
    ))
    def test_matches_bitwise_oracle(self, text):
        # the same graph, or the same first fault at the same byte offset
        try:
            result = parse_graph6(text)
        except Graph6Error as exc:
            result = (exc.reason, exc.offset)
        assert result == graph6_oracle(text)

    @given(graphs(min_n=0, max_n=10))
    def test_round_trip_identity(self, g):
        assert parse_graph6(emit_graph6(g)) == g

    @given(graphs(min_n=0, max_n=9))
    def test_matches_networkx_reference(self, g):
        s = emit_graph6(g)
        assert s == nx_graph6(g)
        ref = nx.from_graph6_bytes(s.encode())
        assert set(ref.edges()) == {(u, v) for u, v in g.edges} or set(
            map(tuple, map(sorted, ref.edges()))
        ) == set(g.edges)

    def test_round_trip_all_small_connected(self):
        from topoline.harness import enumerate_graphs

        for g in enumerate_graphs(EnumerationSpec(2, 6, connected_only=True)):
            assert parse_graph6(emit_graph6(g)) == g


class TestEdgeList:
    def test_p3(self):
        assert parse_edge_list("3\n0 1\n1 2") == path_graph(3)

    def test_duplicate_warning_count(self, caplog):
        with caplog.at_level("WARNING"):
            g = parse_edge_list("4\n0 1\n0 1\n1 2\n1 0\n2 3")
        assert g == path_graph(4)
        assert "contained 2 duplicate edge(s)" in caplog.text

    def test_duplicate_logged(self, caplog):
        with caplog.at_level("WARNING"):
            parse_edge_list("4\n0 1\n0 1\n1 2\n2 3")
        assert "1 duplicate" in caplog.text

    def test_loop_error_has_line_number(self):
        with pytest.raises(EdgeListError, match="line 2: loop"):
            parse_edge_list("2\n0 0")

    def test_non_integer_token(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("2\n0 x")

    def test_vertex_out_of_range(self):
        with pytest.raises(EdgeListError, match="out of range"):
            parse_edge_list("2\n0 2")

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n3\n0 1  # first edge\n1 2\n"
        assert parse_edge_list(text) == path_graph(3)

    def test_vertex_count_cap(self):
        # the degree tuple of an n-vertex graph is allocated up front
        assert parse_edge_list(f"{MAX_EDGE_LIST_VERTICES}\n").n == MAX_EDGE_LIST_VERTICES
        with pytest.raises(EdgeListError, match=r"line 1: vertex count 1000001 exceeds"):
            parse_edge_list(f"{MAX_EDGE_LIST_VERTICES + 1}\n")

    def test_vertical_tab_does_not_break_a_line(self):
        with pytest.raises(EdgeListError, match="line 1: expected a single vertex count"):
            parse_edge_list("3\x0b0 1\n1 2\n")

    @given(EDGE_LIST_LIKE)
    def test_fuzz_parse_edge_list(self, text):
        try:
            assert isinstance(parse_edge_list(text), Graph)
        except EdgeListError:
            pass

    @given(graphs(min_n=1, max_n=8))
    def test_round_trip_preserves_canonical_form(self, g):
        back = parse_edge_list(emit_edge_list(g))
        assert canonical_form(back) == canonical_form(g)


class TestReadGraphFile:
    def test_graphs_come_as_their_lines_are_read(self, tmp_path):
        path = tmp_path / "in.g6"
        path.write_text("Bw\n\nBg\nC!x\n")
        graphs = read_graph_file(str(path), "graph6")
        assert next(graphs) == complete_graph(3)
        assert next(graphs) == path_graph(3)  # before line 4 is parsed
        with pytest.raises(Graph6Error, match="line 4: trailing garbage"):
            next(graphs)

    @pytest.mark.parametrize("fmt,data,message", [
        ("graph6", b"Bw\n\xff\n", "line 2: non-ASCII byte 0xff (byte offset 0)"),
        ("graph6", b"Bw\r\nBg\r\nB\xe9\n", "line 3: non-ASCII byte 0xe9 (byte offset 1)"),
        ("graph6", b"Bw\rBg\rBgx", "line 3: trailing garbage after payload (byte offset 2)"),
        ("graph6", b"Bw\x0cBg\n", "line 1: trailing garbage after payload (byte offset 2)"),
        ("edgelist", b"3\r\n0 1\r\n1 \xe9\n", "line 3: non-ASCII byte 0xe9"),
        ("edgelist", b"3\n0 1\n\n1 1\n", "line 4: loop edge 1 1 is not allowed"),
        ("edgelist", b"# empty\n", "line 1: missing vertex count line"),
    ])
    def test_errors_name_line_and_byte(self, tmp_path, fmt, data, message):
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        with pytest.raises((Graph6Error, EdgeListError)) as excinfo:
            list(read_graph_file(str(path), fmt))
        assert str(excinfo.value) == message

    def test_edge_list_file(self, tmp_path, caplog):
        path = tmp_path / "in.txt"
        path.write_text("# a path\r\n4\n0 1\n1 2\n2 1\n2 3")
        assert list(read_graph_file(str(path), "edgelist")) == [path_graph(4)]
        assert "1 duplicate edge" in caplog.text


class TestFormatValue:
    def test_rational_lossless(self):
        assert format_value(Fraction(11, 6)) == "11/6"
        assert format_value(Fraction(4)) == "4/1"

    def test_real_twelve_significant_digits(self):
        assert format_value(2.5980762113533160) == "2.59807621135"

    def test_none_empty(self):
        assert format_value(None) == ""


class TestReports:
    def test_empty_run_valid(self, tmp_path):
        out = tmp_path / "report"
        write_report(ReportMeta(), (), "json", str(out))
        doc = json.loads(out.read_bytes())
        assert doc["records"] == []
        assert doc["aggregates"]["graphs_checked"] == 0
        write_report(ReportMeta(), (), "csv", str(out))
        assert out.read_text().splitlines()[0].startswith("graph_key")

    def test_connected_n4_record_and_row_counts(self, tmp_path):
        spec = EnumerationSpec(4, 4, connected_only=True)
        assert sum(1 for _ in verify_records(spec)) == 6
        rows = write_verified(tmp_path, spec, fmt="csv")[0].decode().splitlines()
        assert rows[0] == (
            "graph_key,n,m,max_deg,min_deg,theorem_id,lhs,rhs,satisfied,equality,slack"
        )
        assert len(rows) == 1 + 6 * 11  # header + 6 graphs x T1..T11

    def test_deterministic_bytes(self, tmp_path):
        spec = EnumerationSpec(3, 4, connected_only=True)
        for fmt in ("json", "csv"):
            assert write_verified(tmp_path, spec, fmt=fmt) == write_verified(tmp_path, spec, fmt=fmt)

    def test_violation_counter_matches_records(self, tmp_path):
        records = tuple(verify_records(EnumerationSpec(3, 5, connected_only=True)))
        agg = write_report(ReportMeta(), records, "json", str(tmp_path / "report.json"))
        recount = sum(
            1
            for rec in records
            for c in rec.checks
            if c.applicable and not c.satisfied
        )
        assert agg["violations"] == recount == 0

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report format"):
            write_report(ReportMeta(), (), "xml", str(tmp_path / "report.xml"))


def _record(g, theorems=(), **fields):
    try:
        iv, note = compute_index_vector(g), ""
    except ValueError as exc:  # an isolated vertex
        iv, note = None, str(exc)
    return graph_record(g, iv, (GRAPH_CHECKS[t](g) for t in theorems), note, **fields)


def _escaping_report() -> tuple[ReportMeta, tuple]:
    awkward = 'quote " backslash \\ newline \n tab \t control \x01 delta \u03b4 line sep \u2028'
    nested = BoundCheckResult(
        "X.outer", Fraction(1, 3), 0.5, True, False, Fraction(1, 6), reason=awkward,
        branches=(
            BoundCheckResult("X.inner", None, None, True, False, None, applicable=False,
                             reason="na", branches=(
                                 BoundCheckResult("X.leaf", 2, 2, True, True, 0),)),
            BoundCheckResult("X.float", 1e-12, float("inf"), True, False, 1e300),
        ),
    )
    rec = graph_record(cycle_graph(4), None, (nested,), note=awkward, key='key, with "quotes"')
    meta = ReportMeta(timestamp=awkward, seed=7, spec={"z": [1, None], "a": {"b": "\u00e9"}},
                      theorems=("T1", "T10"))
    return meta, (rec,)


HUBS = (star_graph(5), complete_graph(5), Graph(6, ((0, 1), (1, 2), (1, 3), (1, 4), (4, 5))))

def _verified(spec: EnumerationSpec) -> tuple[ReportMeta, tuple]:
    meta = verification_meta(spec)
    return meta, tuple(verify_records(spec, meta.theorems))


#: (meta, records) the writer must serialize exactly as the whole-document oracles do
ORACLE_CASES = {
    "n<=6": lambda: _verified(EnumerationSpec(1, 6)),
    "empty": lambda: (ReportMeta(), ()),
    "isolated vertex": lambda: (
        ReportMeta(theorems=("T1", "T9")),
        (_record(Graph(3, ((0, 1),)), ("T1", "T9")),),
    ),
    "compute past graph6": lambda: (ReportMeta(), (_record(path_graph(70)),)),
    "nested branches": lambda: (
        ReportMeta(seed=3, theorems=("T9", "T10")),
        tuple(_record(g, ("T9", "T10")) for g in HUBS),
    ),
    "escaping": _escaping_report,
    "violation": lambda: (ReportMeta(), (graph_record(
        path_graph(3), None, (BoundCheckResult("X.fails", 2, 1, False, False, -1),),
        key='key, with "quotes"',
    ),)),
}


class TestStreamingWriter:
    """The streaming writer against the whole-document oracles, and its contract."""

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_oracles(self, case, tmp_path):
        meta, records = ORACLE_CASES[case]()
        expected = {"json": report_json_oracle(meta, records),
                    "csv": report_csv_oracle(meta, records)}
        for fmt, payload in expected.items():
            out = tmp_path / f"report.{fmt}"
            assert write_report(meta, iter(records), fmt, str(out)) == aggregates_oracle(records)
            assert out.read_bytes() == payload, fmt

    def test_escapes_like_json_dumps(self, tmp_path):
        out = tmp_path / "report.json"
        write_report(*_escaping_report(), "json", str(out))
        doc = json.loads(out.read_bytes())
        (check,) = doc["records"][0]["checks"]
        assert check["reason"] == doc["records"][0]["note"] == doc["meta"]["timestamp"]
        assert "\u03b4" in check["reason"]
        assert check["branches"][0]["branches"][0]["equality"] is True

    def test_each_record_released_before_the_next_is_drawn(self, tmp_path):
        held = []

        def watched(records):
            for rec in records:
                ref = weakref.ref(rec)
                yield rec
                del rec  # the writer now asks for the next record
                held.append(ref() is not None)

        spec = EnumerationSpec(3, 5, connected_only=True)  # every record has indices
        for fmt in ("json", "csv", "index_csv"):
            records = verify_records(spec, ("T1", "T9", "T10"))
            write_report(ReportMeta(), watched(records), fmt, str(tmp_path / "report"))
        assert held == [False] * 3 * 29

    def test_unknown_format_rejected_before_any_record(self, tmp_path):
        drawn = []
        records = (drawn.append(r) or r for r in verify_records(EnumerationSpec(3, 3)))
        out = tmp_path / "report.xml"
        with pytest.raises(ValueError, match="unknown report format"):
            write_report(ReportMeta(), records, "xml", str(out))
        assert drawn == [] and list(tmp_path.iterdir()) == []


class TestSampleGnpDeterminism:
    def test_p_zero_empty(self):
        assert sample_gnp(5, 0, seed=1).m == 0

    def test_p_one_complete(self):
        assert sample_gnp(5, 1, seed=1) == complete_graph(5)

    def test_identical_seeds_identical_graphs(self):
        a = sample_gnp(30, Fraction(1, 2), seed=42)
        b = sample_gnp(30, Fraction(1, 2), seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        assert sample_gnp(30, 0.5, seed=1) != sample_gnp(30, 0.5, seed=2)
