#!/usr/bin/env python3
"""Benchmark of ``topoline verify``: one fresh CLI process per timed run.

    python3 perfbench/run.py --workload sweep7 --seed 1 --seconds 40 --trace 0

Run it from the repository root.  It runs the package from ``src/`` with
``PYTHONPATH``; nothing needs installing.  The load is a closed loop: one
client starts one CLI process at a time, back to back, single-threaded, until
``--seconds`` would be exceeded (two runs at least).  Every measurement is a
fresh process, because the package keeps process-wide ``lru_cache``s.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` over the
runs: timings as their slowest decile (see :func:`slow_decile`), peak RSS as
its median; ``--trace 1`` alternates untraced and traced runs
(``tracer.py``) and reports the per-layer metrics.  Every run passes a
correctness gate (exit code, stdout aggregates, report digest and report
content); a run that fails it counts in ``failed`` and lowers ``ok_frac``.
The last line of stdout is the JSON result; the lines before it are a
human-readable summary and one JSON line with the environment, the inputs
and every sample.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import gen
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references.json"  # report sha256 per workload at its reference seed

DEFAULT_SEED = 1
SETUP_CALLS = 10
MIN_SAMPLES = 2
RUN_LIMIT_S = 170.0  # the whole benchmark process must end within 180 s
CLI = "import sys; from topoline.cli import main; sys.exit(main())"
SUMMARY = re.compile(r"^checked (\d+) graphs, (\d+) checks, (\d+) violations", re.M)
ALL_THEOREMS = tuple(f"T{i}" for i in range(1, 12))
# Connected graphs per order up to isomorphism (OEIS A001349), n = 2..7.
CONNECTED_CLASSES = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@dataclass(frozen=True)
class Workload:
    name: str
    theorems: str
    n_min: int
    n_max: int
    connected: bool
    generated: bool  # reads the generator's <name>.g6 instead of enumerating
    report: str  # report file; a .csv name selects CSV, anything else JSON

    def theorem_ids(self) -> tuple[str, ...]:
        return ALL_THEOREMS if self.theorems == "all" else tuple(self.theorems.split(","))

    def argv(self) -> list[str]:
        args = ["verify", "--theorems", self.theorems,
                "--n-min", str(self.n_min), "--n-max", str(self.n_max)]
        if self.connected:
            args.append("--connected")
        if self.generated:
            args += ["--source", f"{self.name}.g6"]
        return args + ["--no-timestamp", "--out", self.report]


WORKLOADS = {
    # Exhaustive n <= 7: enumeration and canonical form, then JSON emission,
    # dominate; T5 is off, so exact hyperbolicity does no work.  Seed-free.
    "sweep7": Workload("sweep7", "T1,T2,T3,T4,T6,T7,T8,T9,T10,T11", 2, 7, True, False,
                       "report.json"),
    # Seeded connected non-tree graphs, n in {6, 7, 8}: exact hyperbolicity
    # (T5) is over 90% of the time.
    "delta": Workload("delta", "all", 1, 62, False, True, "report.json"),
    # Seeded connected graphs, n in 12..40: no enumeration, no canonical form
    # (n > CANONICAL_CAP), T5 refused at the cap; the theorem checks, index
    # vectors and line graphs dominate, and memory grows with the graph count.
    "ingest": Workload("ingest", "all", 1, 62, False, True, "report.csv"),
}


@dataclass
class Sample:
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    graphs: int
    checks: int
    violations: int
    sha256: str
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None  # per-layer metrics of a traced run


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], cwd: Path, stdout: Path, deadline: float):
    """Run one child to completion; (wall seconds, exit code, its own rusage).

    ``os.wait4`` gives this child's CPU time and peak RSS alone, where
    ``RUSAGE_CHILDREN`` would report a running maximum over all children.
    """
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out)
    pidfd = os.pidfd_open(proc.pid)
    reaped = False
    try:
        ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.perf_counter()))
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        reaped = True
    finally:
        if not reaped:  # interrupted: leave no child behind
            proc.kill()
            os.waitpid(proc.pid, 0)
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def run_sample(wl: Workload, work: Path, traced: bool, deadline: float) -> tuple[Sample, bytes]:
    if traced:
        argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(work / "trace"), "--",
                *wl.argv()]
    else:
        argv = [sys.executable, "-c", CLI, *wl.argv()]
    wall, code, usage = spawn(argv, work, work / "stdout.txt", deadline)
    match = SUMMARY.search((work / "stdout.txt").read_text(errors="replace"))
    graphs, checks, violations = (int(g) for g in match.groups()) if match else (0, 0, -1)
    report = work / wl.report
    payload = report.read_bytes() if report.exists() else b""
    report.unlink(missing_ok=True)
    sample = Sample(traced, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    code, graphs, checks, violations, hashlib.sha256(payload).hexdigest())
    if traced and code == 0:
        spans, side = tracer.load_spans(work / "trace")
        sample.layers = tracer.layer_metrics(spans, side, wall)
    if code != 0:
        sample.problems.append(f"exit code {code}")
    if not match:
        sample.problems.append("no aggregate line on stdout")
    return sample, payload


# ---------------------------------------------------------------------------
# Correctness gate.


def json_records(payload: bytes):
    """(graph6, (n, m, max_deg, min_deg), M1 text, {theorem: (applicable, satisfied, reason)})."""
    doc = json.loads(payload)
    for rec in doc["records"]:
        checks = {c["theorem_id"]: (c["applicable"], c["satisfied"], c["reason"])
                  for c in rec["checks"]}
        m1 = rec["indices"]["m1"] if rec["indices"] else None
        yield rec["graph6"], (rec["n"], rec["m"], rec["max_deg"], rec["min_deg"]), m1, checks


def csv_records(payload: bytes):
    """Same shape as :func:`json_records`; the graph key is the graph6 string for
    n > CANONICAL_CAP, M1 is T1's left side, and CSV carries no reasons."""
    grouped: dict[str, list[dict]] = {}
    for row in csv.DictReader(io.StringIO(payload.decode("ascii"))):
        grouped.setdefault(row["graph_key"], []).append(row)
    for key, rows in grouped.items():
        first = rows[0]
        checks = {r["theorem_id"]: (r["satisfied"] != "na", r["satisfied"] == "true", "")
                  for r in rows}
        shape = (int(first["n"]), int(first["m"]), int(first["max_deg"]), int(first["min_deg"]))
        m1 = next((r["lhs"] for r in rows if r["theorem_id"] == "T1"), None)
        yield key, shape, m1, checks


def check_report(wl: Workload, payload: bytes, manifest: dict) -> list[str]:
    """Compare the report with facts computed here, independently of topoline."""
    try:
        records = list((csv_records if wl.report.endswith(".csv") else json_records)(payload))
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems: list[str] = []
    if wl.generated:
        facts = {g["graph6"]: g for g in manifest["graphs"]}
    else:
        facts = {}
        for g6, *_ in records:
            n, edges = gen.decode_graph6(g6)
            if not gen.is_connected(n, gen.neighbourhoods(n, edges)):
                problems.append(f"{g6}: disconnected graph in a connected sweep")
            facts[g6] = gen.graph_facts(n, edges)
        per_order = {n: sum(1 for g in facts.values() if g["n"] == n) for n in CONNECTED_CLASSES}
        if per_order != CONNECTED_CLASSES:
            problems.append(f"classes per order {per_order}, expected {CONNECTED_CLASSES}")
    keys = [g6 for g6, *_ in records]
    if len(set(keys)) != len(keys) or set(keys) != set(facts):
        problems.append(f"report has {len(set(keys))} distinct graphs of {len(keys)} records; "
                        f"expected exactly the {len(facts)} input graphs")
    expected_ids = set(wl.theorem_ids())
    for g6, shape, m1, checks in records:
        fact = facts.get(g6)
        if fact is None:
            continue
        if shape != (fact["n"], fact["m"], fact["max_degree"], fact["min_degree"]):
            problems.append(f"{g6}: n, m, degrees {shape} disagree with {fact}")
        if m1 != f"{fact['m1']}/1":
            problems.append(f"{g6}: M1 {m1}, expected {fact['m1']}/1")
        if set(checks) != expected_ids:
            problems.append(f"{g6}: theorems {sorted(checks)}")
        for tid, (applicable, satisfied, _) in checks.items():
            if applicable and not satisfied:
                problems.append(f"{g6}: {tid} violated")
        if wl.name == "delta":
            applicable, _, reason = checks.get("T5", (False, False, ""))
            if not (applicable and reason.startswith("delta=")):
                problems.append(f"{g6}: T5 did not compute delta ({reason!r})")
        if len(problems) > 20:
            problems.append("...")
            break
    return problems


def gate(wl: Workload, samples: list[tuple[Sample, bytes]], manifest: dict,
         reference: dict | None) -> None:
    """Fill in each sample's problems; the report content is checked once per digest."""
    expected_graphs = (sum(CONNECTED_CLASSES.values()) if not wl.generated
                       else len(manifest["graphs"]))
    expected_checks = expected_graphs * len(wl.theorem_ids())
    written = Counter(s.sha256 for s, payload in samples if payload)
    consensus = written.most_common(1)[0][0] if written else None
    verdicts: dict[str, list[str]] = {}
    for sample, payload in samples:
        if sample.exit_code == 0 and (sample.graphs, sample.checks, sample.violations) != (
                expected_graphs, expected_checks, 0):
            sample.problems.append(
                f"aggregates {sample.graphs} graphs, {sample.checks} checks, "
                f"{sample.violations} violations; expected {expected_graphs}, "
                f"{expected_checks}, 0")
        if not payload:
            sample.problems.append("no report written")
            continue
        if reference is not None and sample.sha256 != reference["sha256"]:
            sample.problems.append(f"report sha256 {sample.sha256} != reference "
                                   f"{reference['sha256']}")
        if sample.sha256 != consensus:
            sample.problems.append("report bytes differ from the other runs'")
        if sample.sha256 not in verdicts:
            verdicts[sample.sha256] = check_report(wl, payload, manifest)
        sample.problems += verdicts[sample.sha256]


# ---------------------------------------------------------------------------
# Measurement.


def setup_call(work: Path, deadline: float) -> float:
    """Wall time of one fresh no-op CLI call: spawn, import, argument parsing."""
    wall, code, _ = spawn([sys.executable, "-c", CLI, "theorems"], work, work / "stdout.txt",
                          deadline)
    lines = (work / "stdout.txt").read_text(errors="replace").splitlines()
    if code != 0 or [line.split(" ", 1)[0] for line in lines] != [f"{t}:" for t in ALL_THEOREMS]:
        raise RuntimeError(f"`topoline theorems` failed (exit {code}): {lines[:3]}")
    return wall


def measure(wl: Workload, work: Path, seconds: float, trace: bool,
            deadline: float) -> tuple[list[tuple[Sample, bytes]], list[float]]:
    """Closed loop of fresh processes until the next one would overrun ``seconds``.

    A set-up call precedes each run, so set-up is sampled across the same
    window as the runs; more follow if the loop made fewer than
    ``SETUP_CALLS``.  With tracing, untraced and traced runs alternate,
    starting untraced.
    """
    setup_call(work, deadline)  # warm-up: also writes the bytecode caches
    samples: list[tuple[Sample, bytes]] = []
    setup: list[float] = []
    start = time.perf_counter()
    while True:
        setup.append(setup_call(work, deadline))
        traced = trace and len(samples) % 2 == 1
        samples.append(run_sample(wl, work, traced, deadline))
        upcoming = trace and len(samples) % 2 == 1
        same_kind = [s.wall_s for s, _ in samples if s.traced == upcoming]
        estimate = max(same_kind or [s.wall_s for s, _ in samples]) + max(setup)
        now = time.perf_counter()
        if now + estimate > deadline:
            break
        if len(samples) >= MIN_SAMPLES and now - start + estimate > seconds:
            break
    while len(setup) < SETUP_CALLS:
        setup.append(setup_call(work, deadline))
    return samples, setup


def slow_decile(values, higher_is_better: bool = False) -> float:
    """The slowest-decile value: the 90th percentile of a time, or the 10th of a
    rate, interpolated between order statistics (needs two values or more).

    The host's speed switches between states about 1.5x apart, each lasting from
    under a second to minutes.  A window's median lands in whichever state held
    for most of it, so it jumps between windows; the slow state recurs in almost
    every window, and this decile tracks it.
    """
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[0] if higher_is_better else deciles[-1]


def end_to_end(samples: list[Sample], setup: list[float]) -> dict[str, float]:
    ok = sum(1 for s in samples if not s.problems)
    return {
        "wall_s": slow_decile([s.wall_s for s in samples]),
        "graphs_per_s": slow_decile([s.graphs / s.wall_s for s in samples],
                                    higher_is_better=True),
        "cpu_s": slow_decile([s.cpu_s for s in samples]),
        "setup_s": slow_decile(setup),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "ok_frac": ok / len(samples),
    }


def per_layer(samples: list[Sample]) -> dict[str, float]:
    traced = [s.layers for s in samples if s.layers is not None]
    if not traced:
        raise RuntimeError("no traced run completed")
    untraced = statistics.median(s.wall_s for s in samples if not s.traced)
    return tracer.combine_runs(traced, untraced)


def print_shares(wl: Workload, values: dict[str, float]) -> None:
    """Each layer's self time as a share of the traced wall time."""
    wall = values["trace.wall_s"]
    print(f"layer shares of traced wall time, {wl.name} ({wall:.2f} s traced, "
          f"overhead {100 * values['trace.overhead_frac']:+.1f}% over untraced):")
    for layer in tracer.LAYERS:
        print(f"  {layer:<14} {100 * values[f'{layer}.share']:6.2f}%  "
              f"{values[f'{layer}.self_s']:8.3f} s")
    unattributed = values["trace.unattributed_s"]
    print(f"  {'(outside spans)':<14} {100 * unattributed / wall:6.2f}%  {unattributed:8.3f} s")


# ---------------------------------------------------------------------------
# Environment.


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": os.getloadavg(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "topoline" / "__init__.py").is_file():
        print(f"error: no topoline sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    references = json.loads(REFERENCES.read_text())
    deadline = time.perf_counter() + RUN_LIMIT_S
    wl = WORKLOADS[args.workload]
    env = environment(args.seed)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ROOT / ".bench_work"))
    try:
        manifest = gen.generate(wl.name, args.seed, work)
        runs, setup = measure(wl, work, seconds, bool(args.trace), deadline)
        reference = references.get(wl.name)
        if reference is not None and reference["seed"] not in (None, args.seed):
            reference = None
        gate(wl, runs, manifest, reference)
        samples = [s for s, _ in runs]
        if args.trace:
            values = per_layer(samples)
            declared = spec["per_layer"]
        else:
            values = end_to_end(samples, setup)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for s in samples if s.problems)
    env["loadavg_after"] = os.getloadavg()
    print(f"workload {wl.name} seed {args.seed}: {len(samples)} runs "
          f"({sum(s.traced for s in samples)} traced), {failed} failed, "
          f"setup over {len(setup)} calls")
    for s in samples:
        for problem in s.problems:
            print(f"  FAILED: {problem}")
    if args.trace:
        print_shares(wl, values)
    else:
        for name, value in values.items():
            count = len(setup) if name == "setup_s" else len(samples)
            print(f"  {name:<13} {value:12.4f}  (n={count})")
    runs_out = [{k: v for k, v in asdict(s).items() if k != "layers"} for s in samples]
    print(json.dumps({"env": env, "inputs": {"seed": manifest["seed"], "files": manifest["files"]},
                      "setup_s": setup, "samples": runs_out}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
