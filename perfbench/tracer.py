#!/usr/bin/env python3
"""Span tracing of the topoline CLI from outside the package.

Run as a program, it executes one ``topoline`` CLI command with every public
function of the package's modules wrapped in a span:

    PYTHONPATH=src python3 perfbench/tracer.py --spans PREFIX -- verify ...

The package imports functions by name (``from .graph_core import
degree_stats``), so a function is patched at every module attribute that
holds it, and the values of ``theorems.GRAPH_CHECKS`` are patched too; every
patch is undone before the process exits.  Spans (name, start, end, parent,
outermost) are kept in memory and written at the end to ``PREFIX.spans``
(signed 64-bit integers, five per span) with a JSON sidecar ``PREFIX.json``
holding the span names, counters and cache statistics.

Imported as a module (by the benchmark client) it also turns those files into
per-layer metrics; that part does not import ``topoline``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

#: The package's modules, which are also the benchmark's layers.
LAYERS = ("harness", "graph_core", "line_graph", "indices", "hyperbolicity",
          "theorems", "io_formats", "cli")
PARSERS = ("io_formats.parse_graph6", "io_formats.parse_graph6_file")
SPAN_FIELDS = 5  # name id, start ns, end ns, parent index (-1 for a root), outermost flag


class Tracer:
    """Wraps the package's public functions; records spans and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self._stack: list[int] = []
        self.counters: Counter[str] = Counter()
        self.canonical_keys: set[str] = set()
        self.delta_spans: list[int] = []  # spans of hyperbolicity calls that returned
        self.check_ids: dict[str, str] = {}  # span name -> theorem id
        self._patches: list[tuple[object, str, object]] = []
        self._graph_checks: dict | None = None
        self._checks_before: dict = {}
        self._cached: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def _observers(self) -> dict:
        def canonical(idx, args, result):
            self.canonical_keys.add(result)

        def delta(idx, args, result):
            self.delta_spans.append(idx)
            self.counters["hyperbolicity.evaluations"] += result.evaluations
            self.counters["hyperbolicity.corner_points"] += result.corner_points
            self.counters["hyperbolicity.rounded_up"] += int(result.rounded_up)

        def parsed(idx, args, result):
            self.counters["io_formats.input_bytes"] += len(args[0])

        def report(idx, args, result):
            self.counters["io_formats.report_bytes"] += len(result)

        return {
            "graph_core.canonical_form": canonical,
            "hyperbolicity.hyperbolicity_constant": delta,
            "io_formats.parse_graph6_file": parsed,
            "io_formats.emit_report": report,
        }

    def _check_observer(self, idx, args, result):
        self.counters["theorems.checks"] += 1
        self.counters["theorems.not_applicable"] += int(not result.applicable)

    def _wrap(self, fn, name: str, observe=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            yielded = f"{name}.yielded"

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    stack.append(idx)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        spans[idx] = (nid, start, clock(), parent, 1)
                        stack.pop()
                    counters[yielded] += 1
                    yield item

            return generator

        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outermost = int(depth[0] == 0)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counters[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                spans[idx] = (nid, start, clock(), parent, outermost)
                depth[0] -= 1
                stack.pop()
            if observe is not None:
                observe(idx, args, result)
            return result

        if hasattr(fn, "cache_info"):  # keep the lru_cache interface
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every public function of every layer wherever a module holds it."""
        package = importlib.import_module("topoline")
        modules = {layer: importlib.import_module(f"topoline.{layer}") for layer in LAYERS}
        observers = self._observers()
        theorems = modules["theorems"]
        by_check = {id(fn): tid for tid, fn in theorems.GRAPH_CHECKS.items()}

        wrappers: dict[int, tuple[object, object]] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                observe = observers.get(name)
                if id(obj) in by_check:
                    self.check_ids[name] = by_check[id(obj)]
                    observe = self._check_observer
                wrappers[id(obj)] = (obj, self._wrap(obj, name, observe))
                if hasattr(obj, "cache_info"):
                    self._cached[name] = obj

        for holder in (package, *modules.values()):
            for attr, obj in list(vars(holder).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((holder, attr, obj))
                    setattr(holder, attr, entry[1])

        self._graph_checks = theorems.GRAPH_CHECKS
        self._checks_before = dict(theorems.GRAPH_CHECKS)
        for tid, fn in self._checks_before.items():
            theorems.GRAPH_CHECKS[tid] = wrappers[id(fn)][1]

    def uninstall(self) -> None:
        """Restore every patched attribute and GRAPH_CHECKS value."""
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()
        if self._graph_checks is not None:
            self._graph_checks.update(self._checks_before)
            self._graph_checks = None

    # -- output ------------------------------------------------------------

    def dump(self, prefix: Path) -> None:
        flat = array("q")
        for span in self.spans:
            if span is None:  # a span left open cannot happen once main returns
                raise RuntimeError("unclosed span")
            flat.extend(span)
        with open(f"{prefix}.spans", "wb") as fh:
            flat.tofile(fh)
        caches = {}
        for name, fn in self._cached.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
        side = {
            "names": self.names,
            "counters": dict(self.counters),
            "check_ids": self.check_ids,
            "canonical_distinct": len(self.canonical_keys),
            "delta_spans": self.delta_spans,
            "caches": caches,
        }
        Path(f"{prefix}.json").write_text(json.dumps(side))


# ---------------------------------------------------------------------------
# Analysis (client side).


def load_spans(prefix: Path) -> tuple[list[tuple[int, ...]], dict]:
    flat = array("q")
    path = Path(f"{prefix}.spans")
    with open(path, "rb") as fh:
        flat.fromfile(fh, path.stat().st_size // flat.itemsize)
    spans = [tuple(flat[i:i + SPAN_FIELDS]) for i in range(0, len(flat), SPAN_FIELDS)]
    return spans, json.loads(Path(f"{prefix}.json").read_text())


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it;
    (0, 0) when there are fewer than 11 samples."""
    if len(values) < 11:
        return 0.0, 0.0
    ordered = sorted(values)
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def layer_metrics(spans: list[tuple[int, ...]], side: dict, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    A span's self time is its duration minus that of its child spans; a
    layer's self time sums the self time of its functions' spans, and a
    theorem's self time sums the theorems-layer self time beneath its check.
    ``.s`` metrics are inclusive times of the outermost calls of a function.
    """
    names = side["names"]
    counters = side["counters"]
    check_ids = side["check_ids"]
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    layer_self: Counter[str] = Counter()
    fn_self: Counter[str] = Counter()
    inclusive: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    theorem_self: Counter[str] = Counter()
    theorem_of: list[str | None] = [None] * len(spans)
    parse_s = 0
    root_s = 0
    for i, (nid, start, end, parent, outermost) in enumerate(spans):
        name = names[nid]
        layer = name.split(".", 1)[0]
        own = end - start - child[i]
        layer_self[layer] += own
        fn_self[name] += own
        calls[name] += 1
        if outermost:
            inclusive[name] += end - start
        theorem_of[i] = check_ids.get(name) or (theorem_of[parent] if parent >= 0 else None)
        if layer == "theorems" and theorem_of[i]:
            theorem_self[theorem_of[i]] += own
        if name in PARSERS and (parent < 0 or names[spans[parent][0]] not in PARSERS):
            parse_s += end - start
        if parent < 0:
            root_s += end - start

    s = 1e-9
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] * s
        m[f"{layer}.share"] = layer_self[layer] * s / traced_wall
    m["harness.enumerate.self_s"] = fn_self["harness.enumerate_graphs"] * s
    m["harness.graphs"] = counters.get("harness.enumerate_graphs.yielded", 0)
    m["harness.run_verification.self_s"] = fn_self["harness.run_verification"] * s
    canonical_calls = calls["graph_core.canonical_form"]
    m["graph_core.canonical_form.s"] = inclusive["graph_core.canonical_form"] * s
    m["graph_core.canonical_form.calls"] = canonical_calls
    m["graph_core.canonical_form.useful_ratio"] = (
        side["canonical_distinct"] / canonical_calls if canonical_calls else 0.0)
    m["graph_core.degree_stats.s"] = inclusive["graph_core.degree_stats"] * s
    m["graph_core.degree_stats.calls"] = calls["graph_core.degree_stats"]

    def hit_ratio(name: str) -> float:
        info = side["caches"].get(name, {"hits": 0, "misses": 0})
        total = info["hits"] + info["misses"]
        return info["hits"] / total if total else 0.0

    m["line_graph.s"] = inclusive["line_graph.line_graph"] * s
    m["line_graph.calls"] = calls["line_graph.line_graph"]
    m["line_graph.hit_ratio"] = hit_ratio("line_graph.line_graph")
    m["indices.compute_index_vector.s"] = inclusive["indices.compute_index_vector"] * s
    m["indices.compute_index_vector.calls"] = calls["indices.compute_index_vector"]
    m["indices.compute_index_vector.hit_ratio"] = hit_ratio("indices.compute_index_vector")

    graph_ms = [(spans[i][2] - spans[i][1]) * 1e-6 for i in side["delta_spans"]]
    m["hyperbolicity.s"] = inclusive["hyperbolicity.hyperbolicity_constant"] * s
    m["hyperbolicity.graphs"] = len(graph_ms)
    m["hyperbolicity.graph_ms"] = graph_ms  # pooled over traced runs by the caller
    for key in ("evaluations", "corner_points", "rounded_up"):
        m[f"hyperbolicity.{key}"] = counters.get(f"hyperbolicity.{key}", 0)
    m["hyperbolicity.cap_refusals"] = counters.get(
        "hyperbolicity.hyperbolicity_constant!HyperbolicityCapError", 0)

    for i in range(1, 12):
        m[f"theorems.T{i}.self_s"] = theorem_self[f"T{i}"] * s
    m["theorems.checks"] = counters.get("theorems.checks", 0)
    m["theorems.not_applicable"] = counters.get("theorems.not_applicable", 0)

    m["io_formats.parse.s"] = parse_s * s
    m["io_formats.input_bytes"] = counters.get("io_formats.input_bytes", 0)
    m["io_formats.emit_report.s"] = inclusive["io_formats.emit_report"] * s
    m["io_formats.report_bytes"] = counters.get("io_formats.report_bytes", 0)
    m["io_formats.emit_graph6.calls"] = calls["io_formats.emit_graph6"]

    m["trace.wall_s"] = traced_wall
    m["trace.unattributed_s"] = traced_wall - root_s * s
    m["trace.spans"] = len(spans)
    return m


def combine_runs(runs: list[dict[str, float]], untraced_wall: float) -> dict[str, float]:
    """Low median of each metric over traced runs (a measured value, so counts
    stay whole); hyperbolicity times pooled over the runs."""
    out: dict[str, float] = {}
    for key in runs[0]:
        if key != "hyperbolicity.graph_ms":
            out[key] = statistics.median_low(run[key] for run in runs)
    pooled = [ms for run in runs for ms in run["hyperbolicity.graph_ms"]]
    out["hyperbolicity.graph_ms.p50"] = statistics.median(pooled) if pooled else 0.0
    out["hyperbolicity.graph_ms.tail"], out["hyperbolicity.graph_ms.tail_pct"] = tail(pooled)
    out["hyperbolicity.graph_ms.samples"] = len(pooled)
    out["trace.overhead_frac"] = out["trace.wall_s"] / untraced_wall - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one traced topoline CLI command.")
    parser.add_argument("--spans", required=True, type=Path, help="output prefix")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    tracer.install()
    try:
        cli = importlib.import_module("topoline.cli")
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
