import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import topoline
from conftest import emit_edge_list
from topoline.cli import main
from topoline.graph_core import (
    Graph,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
    star_graph,
)
from topoline.io_formats import emit_graph6


@pytest.fixture
def g6_file(tmp_path):
    path = tmp_path / "graphs.g6"
    lines = [emit_graph6(cycle_graph(4)), emit_graph6(star_graph(4))]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestCompute:
    def test_json(self, g6_file, tmp_path):
        out = tmp_path / "out.json"
        code = main(["compute", "--in", str(g6_file), "--format", "graph6",
                     "--out", str(out), "--emit", "json"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 2
        assert doc["records"][0]["indices"]["m1"] == "16/1"

    def test_csv_line_graph(self, g6_file, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["compute", "--in", str(g6_file), "--format", "graph6",
                     "--line-graph", "--out", str(out), "--emit", "csv"])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0].startswith("graph_key")
        assert len(rows) == 3

    def test_edgelist_input(self, tmp_path):
        src = tmp_path / "g.txt"
        src.write_text(emit_edge_list(path_graph(4)))
        out = tmp_path / "out.json"
        assert main(["compute", "--in", str(src), "--format", "edgelist",
                     "--out", str(out), "--emit", "json"]) == 0

    def test_edgelist_beyond_graph6_order(self, tmp_path):
        src = tmp_path / "p70.txt"
        src.write_text(emit_edge_list(path_graph(70)))
        out = tmp_path / "out.csv"
        assert main(["compute", "--in", str(src), "--format", "edgelist",
                     "--out", str(out), "--emit", "csv"]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("<n=70>,70,69,")

    def test_line_graph_beyond_graph6_order(self, tmp_path):
        src = tmp_path / "k12.g6"
        src.write_text(emit_graph6(complete_graph(12)) + "\n")
        out = tmp_path / "out.json"
        assert main(["compute", "--in", str(src), "--format", "graph6",
                     "--line-graph", "--out", str(out), "--emit", "json"]) == 0
        (record,) = json.loads(out.read_text())["records"]
        assert (record["graph_key"], record["graph6"], record["n"]) == ("<n=66>", "", 66)

    def test_parse_error_exit_code(self, tmp_path):
        src = tmp_path / "bad.g6"
        src.write_text("Bwx\n")
        out = tmp_path / "out.json"
        code = main(["compute", "--in", str(src), "--format", "graph6",
                     "--out", str(out), "--emit", "json"])
        assert code == 2

    @pytest.mark.parametrize("command", [
        ["compute", "--format", "graph6", "--emit", "json", "--in"],
        ["verify", "--theorems", "T3", "--n-min", "1", "--n-max", "10", "--source"],
    ], ids=["compute", "verify"])
    def test_graph6_error_names_line_and_byte(self, tmp_path, capsys, command):
        src = tmp_path / "bad.g6"
        src.write_text("Bw\nBg\nC!x\n")
        code = main(command + [str(src), "--out", str(tmp_path / "out.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "byte offset" in err

    @pytest.mark.parametrize("command", [
        ["compute", "--format", "graph6", "--emit", "json", "--in"],
        ["verify", "--theorems", "T3", "--n-min", "1", "--n-max", "10", "--source"],
    ], ids=["compute", "verify"])
    def test_non_ascii_byte_names_line(self, tmp_path, capsys, command):
        src = tmp_path / "bad.g6"
        src.write_bytes(b"Bw\n\xff\n")
        code = main(command + [str(src), "--out", str(tmp_path / "out.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2: non-ASCII byte 0xff (byte offset 0)" in err

    def test_non_ascii_edge_list_names_line(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_bytes(b"3\r\n0 1\r\n1 \xe9\n")
        code = main(["compute", "--format", "edgelist", "--emit", "json", "--in", str(src),
                     "--out", str(tmp_path / "out.json")])
        assert code == 2
        assert "line 3: non-ASCII byte 0xe9" in capsys.readouterr().err

    def test_parse_error_mid_file_leaves_out_untouched(self, tmp_path, capsys):
        # compute reads its input as it writes: two records are spooled first
        src = tmp_path / "bad.g6"
        src.write_text("Bw\nBg\nC!x\nBw\n")
        out = tmp_path / "out.csv"
        out.write_bytes(b"an earlier report\n")
        code = main(["compute", "--in", str(src), "--format", "graph6", "--line-graph",
                     "--out", str(out), "--emit", "csv"])
        assert code == 2
        assert "line 3: trailing garbage after payload (byte offset 2)" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.g6", "out.csv"]

    @pytest.mark.parametrize("fmt, text, extra, refused", [
        ("graph6", emit_graph6(cycle_graph(4)) + "\n" + emit_graph6(Graph(3, ((0, 1),))) + "\n",
         [], Graph(3, ((0, 1),))),
        ("edgelist", "2\n0 1\n", ["--line-graph"], path_graph(2)),
    ], ids=["isolated-vertex", "line-graph-of-K2"])
    def test_refused_graph_is_named(self, tmp_path, capsys, fmt, text, extra, refused):
        # under --line-graph the error still names G, not L(G)
        src = tmp_path / "in.txt"
        src.write_text(text)
        out = tmp_path / "out.csv"
        code = main(["compute", "--in", str(src), "--format", fmt, *extra,
                     "--emit", "csv", "--out", str(out)])
        assert code == 2
        assert f"error: graph {emit_graph6(refused)}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["compute", "--emit", "json", "--out", "{out}"],
        ["hyperbolicity"],
    ], ids=["compute", "hyperbolicity"])
    def test_huge_edge_list_vertex_count(self, tmp_path, capsys, command):
        src = tmp_path / "huge.txt"
        src.write_text("100000000000\n0 1\n")
        out = tmp_path / "out.json"
        argv = [arg.format(out=out) for arg in command]
        assert main(argv + ["--in", str(src), "--format", "edgelist"]) == 2
        assert "line 1: vertex count 100000000000 exceeds" in capsys.readouterr().err
        assert not out.exists()


class TestComputePinned:
    # A fixed graph6 file: C4, S4, K3,4, C3 + P4, P12 and K12, whose line graph
    # has 66 vertices and so takes the "<n=66>" key.  These bytes must survive
    # any change to how compute builds or writes its records.
    SOURCE = "Cl\nCs\nFFzf?\nFwCGG\nKhCGGC@?G?_@\nK~~~~~~~~~~~\n"

    @staticmethod
    def _digest(tmp_path, src, fmt, emit, *extra):
        out = tmp_path / f"out.{emit}"
        assert main(["compute", "--in", str(src), "--format", fmt, *extra,
                     "--out", str(out), "--emit", emit]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()

    @pytest.mark.parametrize("emit,extra,digest", [
        ("json", (), "317658d279427bcd233891555a8955342302120cc04c9f138a54f9ee3dfe44c4"),
        ("csv", (), "02a134a1f22eae121a8e7f2fc969b266276f149a57a8bd2107ed2e2fa29c0724"),
        ("json", ("--line-graph",), "90410704cbcb521de4ca5f3882c0359c395c3a2be4ef0790bfd33c264072b4cd"),
        ("csv", ("--line-graph",), "8400a513a97cc574c87f94736647fc94c2f5322290553d48918c6083c3a625a3"),
    ], ids=["json", "csv", "line-json", "line-csv"])
    def test_graph6_file(self, tmp_path, emit, extra, digest):
        src = tmp_path / "pinned.g6"
        src.write_text(self.SOURCE)
        assert self._digest(tmp_path, src, "graph6", emit, *extra) == digest

    @pytest.mark.parametrize("emit,digest", [
        ("json", "13ea03c6f12c49cdbf836eb94b199778af6989554f98651c94158e96d07e9c64"),
        ("csv", "8f0c6c11abf47c5039ddf7531c4dc927f04c5a92c484b6d22f2bdf2e5f2bd174"),
    ])
    def test_p70_edge_list(self, tmp_path, emit, digest):
        src = tmp_path / "p70.txt"
        src.write_text(emit_edge_list(path_graph(70)))
        assert self._digest(tmp_path, src, "edgelist", emit) == digest


class TestVerify:
    def test_zero_violations_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--theorems", "T1,T3,T9", "--n-min", "2",
                     "--n-max", "4", "--connected", "--out", str(out)])
        assert code == 0
        assert "0 violations" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["aggregates"]["violations"] == 0
        assert doc["meta"]["theorems"] == ["T1", "T3", "T9"]

    def test_csv_output_by_extension(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["verify", "--theorems", "all", "--n-min", "3", "--n-max", "3",
                     "--connected", "--non-trivial", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 2 * 11

    def test_source_file(self, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(emit_graph6(cycle_graph(5)) + "\n")
        out = tmp_path / "report.json"
        code = main(["verify", "--theorems", "T3", "--n-min", "2", "--n-max", "10",
                     "--source", str(src), "--out", str(out)])
        assert code == 0

    def test_source_records_in_order_and_key_order(self, tmp_path):
        # Keys of n <= 10 are canonical forms "n:...", so "10:..." sorts before
        # "3:..."; records must still come out by order first.
        src = tmp_path / "mixed.g6"
        src.write_text("KhCGGC@?G?o@\nIhCGGC@_G\nBg\nIsaCCA?_?\n"
                       "KsaCCA?_C?O?\nBw\nIhCGGC@?G\n")
        out = tmp_path / "report.json"
        assert main(["verify", "--theorems", "all", "--n-min", "1", "--n-max", "62",
                     "--source", str(src), "--no-timestamp", "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert [r["n"] for r in records] == [3, 3, 10, 10, 10, 12, 12]
        order = [(r["n"], r["graph_key"]) for r in records]
        assert order == sorted(order)

    def test_compute_and_verify_records_agree(self, tmp_path):
        # Beyond the canonical-form cap both commands key a graph by its graph6.
        src = tmp_path / "k34p5.g6"
        src.write_text(emit_graph6(Graph(12, (
            (0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6),
            (3, 4), (3, 5), (3, 6), (7, 8), (8, 9), (9, 10), (10, 11),
        ))) + "\n")
        computed, verified = tmp_path / "compute.json", tmp_path / "verify.json"
        assert main(["compute", "--in", str(src), "--format", "graph6",
                     "--out", str(computed), "--emit", "json"]) == 0
        assert main(["verify", "--theorems", "all", "--n-min", "1", "--n-max", "62",
                     "--source", str(src), "--no-timestamp", "--out", str(verified)]) == 0
        (a,) = json.loads(computed.read_text())["records"]
        (b,) = json.loads(verified.read_text())["records"]
        assert len(b.pop("checks")) == 11
        assert a.pop("checks") == []
        assert a == b

    def test_deterministic_with_no_timestamp(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "--theorems", "T1", "--n-min", "2", "--n-max", "4",
                "--no-timestamp"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("theorems", ["", ",", " , "])
    def test_empty_theorem_list_exit_two(self, theorems, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--theorems", theorems, "--n-min", "3", "--n-max", "3",
                     "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
    @pytest.mark.parametrize("argv", [
        ["verify", "--theorems", "all", "--n-min", "2", "--n-max", "9"],
        ["verify", "--theorems", "T42", "--n-min", "2", "--n-max", "4"],
        ["verify", "--theorems", "", "--n-min", "2", "--n-max", "4"],
        # fails on its second graph, an isolated vertex, after one record is spooled
        ["compute", "--in", "{src}", "--format", "graph6", "--emit", "json"],
    ], ids=["n-max-9", "T42", "no-theorems", "compute-mid-stream"])
    def test_refused_run_leaves_out_untouched(self, tmp_path, capsys, argv, existing):
        src = tmp_path / "in.g6"
        src.write_text(emit_graph6(cycle_graph(4)) + "\n" + emit_graph6(Graph(3, ((0, 1),))) + "\n")
        out = tmp_path / "report.json"
        if existing:
            out.write_bytes(b"an earlier report\n")
        before = sorted(tmp_path.iterdir())
        code = main([arg.format(src=src) for arg in argv] + ["--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before
        if existing:
            assert out.read_bytes() == b"an earlier report\n"

    @pytest.mark.parametrize(
        "where", ["missing-directory", "directory", "empty", "trailing-separator"]
    )
    @pytest.mark.parametrize("argv", [
        ["verify", "--theorems", "T1,T3", "--n-min", "1", "--n-max", "6"],
        ["compute", "--in", "{src}", "--format", "graph6", "--emit", "json"],
        ["enumerate", "--n", "6"],
    ], ids=["verify", "compute", "enumerate"])
    def test_unwritable_out_refused_before_any_record(self, tmp_path, capsys, monkeypatch,
                                                      argv, where):
        import topoline.harness as harness
        import topoline.io_formats as io_formats

        drawn = []

        def counting(fn):
            return lambda g, *args, **kwargs: drawn.append(g) or fn(g, *args, **kwargs)

        # verify reads harness.graph_record, compute and enumerate read
        # io_formats.graph_record, and every graph grown gets a canonical form
        monkeypatch.setattr(harness, "graph_record", counting(io_formats.graph_record))
        monkeypatch.setattr(io_formats, "graph_record", counting(io_formats.graph_record))
        monkeypatch.setattr(harness, "canonical_form", counting(harness.canonical_form))
        src = tmp_path / "in.g6"
        src.write_text(emit_graph6(cycle_graph(4)) + "\n")
        if where == "directory":
            (tmp_path / "reports").mkdir()
        out = {
            "missing-directory": str(tmp_path / "missing" / "report.json"),
            "directory": str(tmp_path / "reports"),
            # neither can ever name a file, so neither waits for the run
            "empty": "",
            "trailing-separator": str(tmp_path / "missing") + os.sep,
        }[where]
        monkeypatch.chdir(tmp_path)  # anything a relative --out leaves lands in tmp_path
        before = sorted(tmp_path.rglob("*"))
        code = main([arg.format(src=src) for arg in argv] + ["--out", out])
        assert code == 2
        assert f": {out!r}" in capsys.readouterr().err
        assert drawn == []
        assert sorted(tmp_path.rglob("*")) == before

    def test_repeated_theorem_ids_run_once(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--theorems", "T3,T1,T3,T1", "--n-min", "3", "--n-max", "3",
                     "--out", str(out)])
        assert code == 0
        assert "checked 4 graphs, 8 checks" in capsys.readouterr().out
        assert json.loads(out.read_text())["meta"]["theorems"] == ["T1", "T3"]

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--n-min", "2", "--n-max", "4", "--out", "x.json"])
        assert excinfo.value.code == 2

    def test_violations_exit_one(self, tmp_path, monkeypatch, capsys):
        # Force a failing check to exercise the violation exit path.
        import topoline.harness as harness
        from topoline.theorems import BoundCheckResult

        def always_false(g):
            return BoundCheckResult("T1", 1, 0, False, False, -1)

        monkeypatch.setitem(harness.GRAPH_CHECKS, "T1", always_false)
        out = tmp_path / "report.json"
        code = main(["verify", "--theorems", "T1", "--n-min", "3", "--n-max", "3",
                     "--connected", "--out", str(out)])
        assert code == 1
        assert "VIOLATION T1" in capsys.readouterr().out


class TestSourcePastTheCap:
    """``verify --source`` only checks a line with n > 10 on its first pass, so
    every fault must read as a full decode reports it: same message, line and
    byte offset, also for an order outside --n-min..--n-max."""

    N11 = "JIW_^GcHPA?"  # n = 11: 10 payload bytes, the last with 5 padding bits
    N14 = "MgJcwdGa_qg?Eiwm_"  # n = 14: 16 payload bytes

    @pytest.mark.parametrize("n_max", ["62", "10"])
    @pytest.mark.parametrize("data,message", [
        (b"!IW_^GcHPA?\n", "line 1: size byte '!' out of range (byte offset 0)"),
        (b"~IW_^GcHPA?\n",
         "line 1: extended graph6 forms (n > 62) are not supported (byte offset 0)"),
        (b"JIW_^GcHPA\n",
         "line 1: truncated payload: need 10 bytes for n=11, got 9 (byte offset 10)"),
        (b"JIW_^GcHPA??\n", "line 1: trailing garbage after payload (byte offset 11)"),
        (b"JIW!^GcHPA?\n", "line 1: payload byte '!' out of range (byte offset 3)"),
        (b"JIW!^GcHPA@\n", "line 1: payload byte '!' out of range (byte offset 3)"),
        (b"JIW_^GcHPA@\n", "line 1: non-zero padding bits (byte offset 10)"),
        (b"JIW_\xe9GcHPA?\n", "line 1: non-ASCII byte 0xe9 (byte offset 4)"),
        (b">>graph6<<JIW_^GcHPA\n",
         "line 1: truncated payload: need 10 bytes for n=11, got 9 (byte offset 10)"),
        (b"JIW_^GcHPA?\nMgJcwdGa_qg?Eiwm_\n\nMgJcwdGa_qg?Eiwm\n",
         "line 4: truncated payload: need 16 bytes for n=14, got 15 (byte offset 16)"),
    ], ids=["size_byte", "extended", "truncated", "trailing", "payload_byte",
            "payload_byte_before_padding", "padding", "non_ascii", "header", "later_line"])
    def test_errors_as_a_decode_reports_them(self, tmp_path, capsys, data, message, n_max):
        src, out = tmp_path / "bad.g6", tmp_path / "out.csv"
        src.write_bytes(data)
        code = main(["verify", "--theorems", "T1", "--n-min", "1", "--n-max", n_max,
                     "--source", str(src), "--no-timestamp", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_header_and_duplicate_lines_give_one_record(self, tmp_path):
        src, out = tmp_path / "dup.g6", tmp_path / "out.json"
        src.write_text(f">>graph6<<{self.N11}\n{self.N11}\n {self.N11}\n{self.N14}\n")
        assert main(["verify", "--theorems", "T1", "--n-min", "1", "--n-max", "62",
                     "--source", str(src), "--no-timestamp", "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert [(r["n"], r["graph_key"], r["graph6"]) for r in records] == [
            (11, self.N11, self.N11), (14, self.N14, self.N14)]


LAYERS = ("graph_core", "harness", "hyperbolicity", "indices", "io_formats", "line_graph",
          "theorems")


def test_numpy_loaded_only_for_delta(tmp_path):
    # Only the exact hyperbolicity search needs numpy, only a timestamp needs
    # datetime, and the catalog listing and --help need no layer at all:
    # start-up pays only for what runs.
    verify = ["verify", "--theorems", "T1,T2,T3,T4,T6,T7,T8,T9,T10,T11", "--n-min", "2",
              "--n-max", "4", "--no-timestamp", "--out", str(tmp_path / "r.csv")]
    probe = (
        "import sys\n"
        f"layers = {[f'topoline.{layer}' for layer in LAYERS]!r}\n"
        "def assert_bare(step):\n"
        "    assert 'numpy' not in sys.modules, step\n"
        "    loaded = [m for m in layers if m in sys.modules]\n"
        "    assert not loaded, f'{step} loaded {loaded}'\n"
        "import topoline.cli\n"
        "assert_bare('import topoline.cli')\n"
        "assert topoline.cli.main(['theorems']) == 0\n"
        "assert_bare('topoline theorems')\n"
        "try:\n"
        "    topoline.cli.main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "else:\n"
        "    raise AssertionError('--help did not exit')\n"
        "assert_bare('topoline --help')\n"
        f"assert topoline.cli.main({verify!r}) == 0\n"
        "loaded = [m for m in ('numpy', 'datetime') if m in sys.modules]\n"
        "assert not loaded, f'verify --no-timestamp without T5 loaded {loaded}'\n"
    )
    _run_probe(probe)


def test_io_formats_loads_no_check_layer(tmp_path):
    # io_formats sits below the checks, and logging waits for a duplicate edge;
    # compute and hyperbolicity need neither the harness nor the theorem checks
    src = tmp_path / "in.g6"
    src.write_text(emit_graph6(cycle_graph(5)) + "\n" + emit_graph6(star_graph(4)) + "\n")
    compute = ["compute", "--in", str(src), "--format", "graph6", "--emit", "csv"]
    runs = [compute + ["--out", str(tmp_path / "g.csv")],
            compute + ["--line-graph", "--out", str(tmp_path / "lg.csv")],
            ["hyperbolicity", "--in", str(src), "--format", "graph6"]]
    probe = (
        "import sys\n"
        "def assert_unloaded(step, modules):\n"
        "    loaded = [m for m in modules if m in sys.modules]\n"
        "    assert not loaded, f'{step} loaded {loaded}'\n"
        "import topoline.io_formats\n"
        "assert_unloaded('import topoline.io_formats',\n"
        "                ('topoline.theorems', 'topoline.indices', 'logging'))\n"
        "from topoline.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    assert_unloaded(argv[0], ('topoline.theorems', 'topoline.harness'))\n"
    )
    _run_probe(probe)


def _child_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this package."""
    paths = [str(Path(topoline.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def _run_probe(probe: str) -> None:
    """Run ``probe`` in a fresh interpreter that imports this package."""
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=_child_env())
    assert result.returncode == 0, result.stderr


# Every public name of the package.  ``line_graph`` is not one: importing the
# submodule of that name binds it on the package, so the name is the module.
PUBLIC_NAMES = [
    "BoundCheckResult", "CANONICAL_CAP", "CanonicalCapError", "ComponentInfo",
    "ENUMERATION_CAP", "EdgeListError", "EnumerationCapError", "EnumerationSpec",
    "GRAPH_CHECKS", "GeodesicTriangle", "Graph", "Graph6Error", "GraphError", "GraphRecord",
    "HyperbolicityCapError", "HyperbolicityResult", "IndexVector", "IsolatedVertexError",
    "MetricPoint", "ReportMeta", "SubdividedLattice", "THEOREM_IDS",
    "THEOREM_STATEMENTS", "TrivialComponentError", "all_regular", "all_regular_or_biregular",
    "canonical_form", "check_T10_on_graph", "check_T11_harmonic_sandwich",
    "check_T1_m1_upper", "check_T2_ga_sum", "check_T3_line_identities", "check_T4_ga_platt",
    "check_T5_ga_hyperbolicity", "check_T6_ga_vs_m1", "check_T7_m1_line_identity",
    "check_T8_ga_line_lower", "check_T9_harmonic_bounds", "complete_bipartite_graph",
    "complete_graph", "components", "compute_index_vector", "cycle_graph", "disjoint_union",
    "emit_graph6", "enumerate_graphs", "enumerate_trees", "extremal_search",
    "hyperbolicity_constant", "hyperbolicity_upper_bound", "is_connected", "is_forest",
    "is_isomorphic", "is_non_trivial", "parse_graph6", "path_graph", "read_graph_file",
    "sample_gnp", "star_graph", "subdivided_distances", "verification_meta", "verify_records",
    "write_report",
]


def test_package_exports_resolve():
    import importlib

    assert sorted(topoline.__all__) == PUBLIC_NAMES
    modules = [importlib.import_module(f"topoline.{m}") for m in ("catalog", *LAYERS)]
    for name in PUBLIC_NAMES:
        value = getattr(topoline, name)
        holders = [m for m in modules if name in vars(m)]
        assert holders and all(vars(m)[name] is value for m in holders), name
    with pytest.raises(AttributeError):
        topoline.no_such_name
    assert topoline.line_graph is importlib.import_module("topoline.line_graph")


def _distinct_connected_graph6(count: int, seed: int) -> list[str]:
    """``count`` distinct connected G(n, 4/(n-1)) graphs, n in 11..16: past the
    canonical-form cap, so each is keyed by its graph6 string."""
    rng = random.Random(seed)
    lines: dict[str, None] = {}
    while len(lines) < count:
        n = rng.randint(11, 16)
        g = Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < 4 / (n - 1)))
        if is_connected(g):
            lines[emit_graph6(g)] = None
    return list(lines)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_verify_source_peak_memory_flat_in_graph_count(tmp_path):
    # T3 and T7 build L(G) and its index vector for every graph; hyperbolicity
    # prints one line per graph.  VmHWM is the child's own peak; ru_maxrss of a
    # child would include the forking parent.
    probe = (
        "import sys\n"
        "from topoline.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "status = open('/proc/self/status').read()\n"
        "print(next(l.split()[1] for l in status.splitlines() if l.startswith('VmHWM:')))\n"
    )
    env = _child_env()
    lines = _distinct_connected_graph6(4000, seed=7)
    for command in ("verify", "hyperbolicity"):
        peaks_kb = []
        for count in (1000, 4000):
            src = tmp_path / f"g{count}.g6"
            src.write_text("".join(line + "\n" for line in lines[:count]))
            if command == "verify":
                argv = ["verify", "--theorems", "T3,T7", "--source", str(src), "--n-min", "1",
                        "--n-max", "62", "--no-timestamp", "--out", str(tmp_path / "r.csv")]
            else:
                argv = ["hyperbolicity", "--in", str(src), "--format", "graph6"]
            result = subprocess.run([sys.executable, "-c", probe, *argv],
                                    capture_output=True, text=True, env=env)
            assert result.returncode == 0, result.stderr
            if command == "verify":
                assert f"checked {count} graphs" in result.stdout
            else:
                assert result.stdout.count("delta<=m/4=") == count
            peaks_kb.append(int(result.stdout.split()[-1]))
        # 3000 more graphs; holding each one's line graph and index vectors
        # would cost about 50 MB, holding each decoded graph about 6 MB
        assert peaks_kb[1] - peaks_kb[0] < 4096, (command, peaks_kb)


class TestHyperbolicity:
    def test_exact_value(self, tmp_path, capsys):
        src = tmp_path / "c4.g6"
        src.write_text(emit_graph6(cycle_graph(4)) + "\n")
        assert main(["hyperbolicity", "--in", str(src), "--format", "graph6"]) == 0
        assert "delta=1/1" in capsys.readouterr().out

    def test_parse_error_prints_no_delta(self, tmp_path, capsys):
        src = tmp_path / "bad.g6"
        src.write_text(emit_graph6(cycle_graph(4)) + "\n" + emit_graph6(cycle_graph(5)) + "\nC!x\n")
        assert main(["hyperbolicity", "--in", str(src), "--format", "graph6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 3: trailing garbage" in captured.err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_refused(self, tmp_path):
        # graph6 input is read twice, and a pipe reads empty the second time;
        # run in a child, because opening a pipe with no writer blocks
        fifo = tmp_path / "in.g6"
        os.mkfifo(fifo)
        result = subprocess.run(
            [sys.executable, "-m", "topoline.cli", "hyperbolicity", "--in", str(fifo),
             "--format", "graph6"], capture_output=True, text=True, env=_child_env(), timeout=60)
        assert (result.returncode, result.stdout) == (2, "")
        assert "must name a regular file" in result.stderr

    def test_cap_fallback(self, tmp_path, capsys):
        src = tmp_path / "p9.txt"
        src.write_text(emit_edge_list(path_graph(9)))
        code = main(["hyperbolicity", "--in", str(src), "--format", "edgelist",
                     "--cap", "8"])
        assert code == 0
        assert "m/4" in capsys.readouterr().out

    def test_negative_cap_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "p9.txt"
        src.write_text(emit_edge_list(path_graph(9)))
        code = main(["hyperbolicity", "--in", str(src), "--format", "edgelist", "--cap", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--cap must be non-negative, got -1" in captured.err


class TestExtremalAndEnumerate:
    def test_extremal_prints_graph6(self, capsys):
        from topoline.graph_core import is_isomorphic
        from topoline.io_formats import parse_graph6

        code = main(["extremal", "--index", "harmonic", "--objective", "max",
                     "--class", "trees", "--n", "5"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        g6, value = lines[0].split()
        assert value == "7/3"
        assert is_isomorphic(parse_graph6(g6), path_graph(5))

    def test_extremal_trees_past_cap_refused(self, capsys):
        assert main(["extremal", "--index", "m1", "--objective", "max",
                     "--class", "trees", "--n", "11"]) == 2
        assert "tree enumeration caps at n=10" in capsys.readouterr().err

    def test_extremal_unknown_index(self, capsys):
        assert main(["extremal", "--index", "nope", "--objective", "max",
                     "--class", "trees", "--n", "5"]) == 2

    def test_enumerate(self, tmp_path):
        out = tmp_path / "n4.g6"
        assert main(["enumerate", "--n", "4", "--connected", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6

    # sha256 of `topoline enumerate --n k [--connected]`: the representatives,
    # their graph6 labels and their order.
    @pytest.mark.parametrize("n,connected,digest", [
        (1, False, "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46"),
        (1, True, "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46"),
        (2, False, "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb"),
        (2, True, "fae4bfc454bd04363dcd5222772f2973b1193e1ff6f676e822a427323a677ef9"),
        (3, False, "aefbaa12a956ed1f415fa897c455185134275a89a57ce1ef7d38f771c0d9129e"),
        (3, True, "5966edf890849db6cb03626431916231a81a30c9db9a4781a4a8f2e5dc7e6129"),
        (4, False, "a38c483c05606caf1cf27e2fcb5a225d4001df8768275d678128bff91b970e61"),
        (4, True, "d7da485669f2dc74b81c02f18774a07430937684896833d59f138b10debb5005"),
        (5, False, "89d2e41d50ffbaef209a46a9c4989998da3fa949113d6b29e6cf085cf750e895"),
        (5, True, "ebf65688effd0b441bc7848a6cffe36c093ec1db0af06625659c4c6eb1941205"),
        (6, False, "f9aa0572f14d0dd96b68339b65d47f4b3708accc2f0679709eda774f321d6211"),
        (6, True, "2bb46e0d5f43949d0199b0659c96b74dbbaa630ddee80136a1b83dbca97b7e6d"),
        (7, False, "ee2aa8dcadd4034592b393382bedd8f8f4cc8a3c97506c86b02d75954079572d"),
        (7, True, "eece8411b56cccaf0ab1d1a162c0b8d85e183681d10841e7f9664d57b15fc7c9"),
    ])
    def test_enumerate_output_pinned(self, tmp_path, n, connected, digest):
        out = tmp_path / "out.g6"
        flags = ["--connected"] if connected else []
        assert main(["enumerate", "--n", str(n), *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_refused_enumerate_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "e.g6"
        assert main(["enumerate", "--n", "9", "--out", str(out)]) == 2
        assert not out.exists()
        assert "caps at n=8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["enumerate", "--n", "9", "--out", "{out}"],
        ["extremal", "--index", "m1", "--objective", "max", "--class", "unicyclic", "--n", "9"],
    ], ids=["enumerate", "extremal"])
    def test_cap_error_names_verify_source(self, tmp_path, capsys, command):
        # neither command takes --source, so the message sends the user to verify's
        assert main([arg.format(out=tmp_path / "out") for arg in command]) == 2
        err = capsys.readouterr().err
        assert "caps at n=8" in err and "graph6 file" in err and "verify --source" in err

    @pytest.mark.parametrize("command", [
        ["verify", "--theorems", "all", "--n-min", "-1", "--n-max", "2", "--out", "{out}"],
        ["verify", "--theorems", "all", "--n-min", "-1", "--n-max", "2", "--source", "{src}",
         "--out", "{out}"],
        ["enumerate", "--n", "-2", "--out", "{out}"],
        ["extremal", "--index", "m1", "--objective", "max", "--class", "all", "--n", "-1"],
    ], ids=["verify", "verify-source", "enumerate", "extremal"])
    def test_negative_order_is_usage_error(self, tmp_path, capsys, command):
        out, src = tmp_path / "out", tmp_path / "c4.g6"
        src.write_text("Cl\n")
        assert main([arg.format(out=out, src=src) for arg in command]) == 2
        assert "vertex count must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_theorem_catalog(self, capsys):
        assert main(["theorems"]) == 0
        out = capsys.readouterr().out
        assert out.count(":") >= 11 and "T10" in out
