#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that the generator is byte-identical for one seed, that tracing
restores every module attribute of ``topoline``, and that a shrunken run of
each workload prints every metric of ``BENCHMARK.json`` with its unit.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY_SEED = 7


def module_state() -> dict:
    """Identity of every attribute of every topoline module, and of GRAPH_CHECKS."""
    import topoline
    import topoline.theorems

    # importlib, not getattr: the package attribute ``line_graph`` is the function.
    modules = [topoline] + [importlib.import_module(f"topoline.{layer}")
                            for layer in tracer.LAYERS]
    state = {}
    for module in modules:
        for attr, obj in vars(module).items():
            state[(module.__name__, attr)] = id(obj)
    for tid, fn in topoline.theorems.GRAPH_CHECKS.items():
        state[("GRAPH_CHECKS", tid)] = id(fn)
    return state


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in ("delta", "ingest"):
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
                first = gen.generate(workload, TINY_SEED, Path(a))
                second = gen.generate(workload, TINY_SEED, Path(b))
                name = f"{workload}.g6"
                self.assertEqual((Path(a) / name).read_bytes(), (Path(b) / name).read_bytes())
                self.assertEqual(first, second)
                self.assertEqual(first["seed"], TINY_SEED)
                self.assertEqual(first["files"][name]["sha256"],
                                 hashlib.sha256((Path(a) / name).read_bytes()).hexdigest())

    def test_other_seed_other_graphs(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            first = gen.generate("delta", TINY_SEED, Path(a))
            second = gen.generate("delta", TINY_SEED + 1, Path(b))
            self.assertNotEqual(first["files"], second["files"])

    def test_graph6_round_trip(self):
        from topoline import emit_graph6, parse_graph6

        for n, edges in [(1, []), (5, [(0, 1), (1, 4), (2, 3)]), (13, [(0, 12), (5, 7)])]:
            text = gen.graph6(n, edges)
            self.assertEqual(emit_graph6(parse_graph6(text)), text)
            self.assertEqual(gen.decode_graph6(text), (n, sorted(edges, key=lambda e: e[::-1])))


class TracerTest(unittest.TestCase):
    def test_attributes_restored(self):
        import topoline.cli
        import topoline.harness

        line_graph_module = importlib.import_module("topoline.line_graph")
        before = module_state()
        original = topoline.harness.canonical_form
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(topoline.harness.canonical_form, original)
            self.assertTrue(hasattr(line_graph_module.line_graph, "cache_info"))
            with tempfile.TemporaryDirectory() as tmp:
                source = Path(tmp) / "in.g6"
                source.write_text(gen.graph6(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) + "\n")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = topoline.cli.main(["verify", "--theorems", "all", "--source",
                                              str(source), "--n-min", "1", "--n-max", "62",
                                              "--no-timestamp", "--out", str(Path(tmp) / "r.json")])
            self.assertEqual(code, 0)
        finally:
            t.uninstall()
        self.assertEqual(module_state(), before)
        with tempfile.TemporaryDirectory() as tmp:
            t.dump(Path(tmp) / "t")
            spans, side = tracer.load_spans(Path(tmp) / "t")
        metrics = tracer.layer_metrics(spans, side, traced_wall=10.0)
        self.assertEqual(metrics["harness.graphs"], 1)
        self.assertEqual(metrics["hyperbolicity.graphs"], 1)
        self.assertEqual(metrics["theorems.checks"], 11)
        self.assertGreater(metrics["line_graph.hit_ratio"], 0)
        roots = [s for s in spans if s[3] < 0]
        self.assertEqual([side["names"][s[0]] for s in roots], ["cli.main"])

    def test_tail(self):
        self.assertEqual(tracer.tail(list(range(10))), (0.0, 0.0))
        self.assertEqual(tracer.tail(list(range(100))), (89, 90.0))


def tiny_delta(rng):
    with mock.patch.object(gen, "DELTA_STRATA", ((6, 6), (6, 7), (7, 8))):
        return gen.generate_delta(rng)


def tiny_ingest(rng):
    with mock.patch.object(gen, "INGEST_GRAPHS", 4):
        return gen.generate_ingest(rng)


class EndToEndTest(unittest.TestCase):
    """Every workload, shrunk, in both modes: the declared metrics come out."""

    def run_benchmark(self, workload: str, trace: int) -> tuple[dict, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", str(TINY_SEED),
                             "--seconds", "0.01", "--trace", str(trace)])
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().splitlines()[-1]), out.getvalue()

    def test_all_workloads(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        tiny = dict(run.WORKLOADS)
        tiny["sweep7"] = replace(tiny["sweep7"], n_max=4)
        with tempfile.TemporaryDirectory() as tmp:
            references = Path(tmp) / "references.json"
            references.write_text("{}")
            patches = [
                mock.patch.object(run, "WORKLOADS", tiny),
                mock.patch.object(run, "CONNECTED_CLASSES", {2: 1, 3: 2, 4: 6}),
                mock.patch.object(run, "REFERENCES", references),
                mock.patch.object(run, "SETUP_CALLS", 1),
                mock.patch.dict(gen.GENERATORS, delta=tiny_delta, ingest=tiny_ingest),
            ]
            with contextlib.ExitStack() as stack:
                for p in patches:
                    stack.enter_context(p)
                for workload in run.WORKLOADS:
                    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                        with self.subTest(workload=workload, trace=trace):
                            result, text = self.run_benchmark(workload, trace)
                            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                                           "metrics"})
                            self.assertTrue(result["correct"], text)
                            self.assertGreaterEqual(result["attempted"], 2)
                            self.assertEqual(
                                {k: v["unit"] for k, v in result["metrics"].items()},
                                {m["name"]: m["unit"] for m in declared})
                            for value in result["metrics"].values():
                                self.assertIsInstance(value["value"], (int, float))

    def test_gate_rejects_wrong_report(self):
        wl = run.WORKLOADS["ingest"]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(gen.GENERATORS, ingest=tiny_ingest):
            manifest = gen.generate("ingest", TINY_SEED, Path(tmp))
        header = "graph_key,n,m,max_deg,min_deg,theorem_id,lhs,rhs,satisfied,equality,slack\n"
        g = manifest["graphs"][0]
        rows = "".join(
            f"{g['graph6']},{g['n']},{g['m']},{g['max_degree']},{g['min_degree']},T{i},"
            f"{g['m1'] + 1}/1,0/1,true,false,0/1\n" for i in range(1, 12))
        problems = run.check_report(wl, (header + rows).encode(), manifest)
        self.assertTrue(any("M1" in p for p in problems), problems)
        self.assertTrue(any("expected exactly" in p for p in problems), problems)


if __name__ == "__main__":
    unittest.main()
