"""Graph serialization (graph6 short form, edge-list text) and run reports.

graph6 is the interchange format so the harness can ingest externally
generated catalogs: first byte n+63 (n <= 62), then ceil(n(n-1)/12) payload
bytes, each carrying 6 adjacency bits offset by 63, upper triangle read
column by column ((0,1), (0,2), (1,2), (0,3), ...), zero padded.

Reports keep rationals as "p/q" strings and reals at 12 significant digits so
exact identities stay exact on disk, and identical report contents always
serialize to identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .graph_core import Graph, build_graph
from .indices import IndexVector
from .theorems import BoundCheckResult

logger = logging.getLogger(__name__)

GRAPH6_HEADER = ">>graph6<<"
#: largest vertex count an edge list may declare; the degree tuple alone is then 8 MB
MAX_EDGE_LIST_VERTICES = 10**6


class Graph6Error(ValueError):
    def __init__(self, message: str, offset: int, line: int | None = None):
        where = "" if line is None else f"line {line}: "
        super().__init__(f"{where}{message} (byte offset {offset})")
        self.reason = message
        self.offset = offset
        self.line = line


class EdgeListError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _pair_sequence(n: int):
    # Column-major upper triangle: (0,1), (0,2), (1,2), (0,3), ...
    for j in range(1, n):
        for i in range(j):
            yield i, j


def parse_graph6(s: str) -> Graph:
    """Decode a short-form graph6 string (optional '>>graph6<<' header allowed)."""
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    first = ord(s[0])
    if first == 126:
        raise Graph6Error("extended graph6 forms (n > 62) are not supported", 0)
    if not 63 <= first <= 125:
        raise Graph6Error(f"size byte {s[0]!r} out of range", 0)
    n = first - 63
    need = (n * (n - 1) // 2 + 5) // 6
    payload = s[1:]
    if len(payload) < need:
        raise Graph6Error(
            f"truncated payload: need {need} bytes for n={n}, got {len(payload)}",
            len(s),
        )
    if len(payload) > need:
        raise Graph6Error("trailing garbage after payload", 1 + need)

    bits: list[int] = []
    for pos, ch in enumerate(payload):
        value = ord(ch) - 63
        if not 0 <= value <= 63:
            raise Graph6Error(f"payload byte {ch!r} out of range", 1 + pos)
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))

    edges = []
    for bit_pos, (i, j) in enumerate(_pair_sequence(n)):
        if bits[bit_pos]:
            edges.append((i, j))
    for extra in range(n * (n - 1) // 2, len(bits)):
        if bits[extra]:
            raise Graph6Error("non-zero padding bits", len(s) - 1)
    return build_graph(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode a graph (n <= 62) as a short-form graph6 string."""
    if g.n > 62:
        raise ValueError(f"graph6 short form supports n <= 62, got n={g.n}")
    edge_set = set(g.edges)
    out = [chr(g.n + 63)]
    acc = 0
    filled = 0
    for i, j in _pair_sequence(g.n):
        acc = (acc << 1) | (1 if (i, j) in edge_set else 0)
        filled += 1
        if filled == 6:
            out.append(chr(acc + 63))
            acc, filled = 0, 0
    if filled:
        out.append(chr((acc << (6 - filled)) + 63))
    return "".join(out)


def parse_graph6_file(text: str) -> list[Graph]:
    """One graph6 string per non-empty line; errors name the 1-based line."""
    graphs = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            graphs.append(parse_graph6(line))
        except Graph6Error as exc:
            raise Graph6Error(exc.reason, exc.offset, lineno) from None
    return graphs


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    First significant line holds the vertex count (at most
    ``MAX_EDGE_LIST_VERTICES``), each following line one
    edge "u v" (0-indexed); blank lines and '#' comments are ignored.
    Duplicate edges collapse with a logged warning.
    """
    g, duplicates = parse_edge_list_counting(text)
    if duplicates:
        logger.warning("edge list contained %d duplicate edge(s)", duplicates)
    return g


def parse_edge_list_counting(text: str) -> tuple[Graph, int]:
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    duplicates = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise EdgeListError("expected a single vertex count", lineno)
            try:
                n = int(tokens[0])
            except ValueError:
                raise EdgeListError(f"vertex count is not an integer: {tokens[0]!r}", lineno)
            if n < 0:
                raise EdgeListError(f"vertex count must be non-negative: {n}", lineno)
            if n > MAX_EDGE_LIST_VERTICES:
                raise EdgeListError(
                    f"vertex count {n} exceeds the cap {MAX_EDGE_LIST_VERTICES}", lineno
                )
            continue
        if len(tokens) != 2:
            raise EdgeListError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"non-integer vertex token in {line!r}", lineno)
        if u == v:
            raise EdgeListError(f"loop edge {u} {v} is not allowed", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"vertex out of range [0, {n}) in {line!r}", lineno)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            duplicates += 1
        else:
            seen.add(key)
            edges.append(key)
    if n is None:
        raise EdgeListError("missing vertex count line", 1)
    return build_graph(n, edges), duplicates


def read_graph_file(path: str, fmt: str) -> list[Graph]:
    """The graphs of a graph6 file (one per line) or of an edge-list file (one).

    Lines are physical lines: text mode folds "\r\n" and "\r" into "\n", and
    only "\n" separates lines.  A non-ASCII byte is reported like any other
    parse error, by its line (and for graph6 its byte offset within the line).
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    if not text.isascii():
        pos = next(i for i, ch in enumerate(text) if not ch.isascii())
        line = text.count("\n", 0, pos) + 1
        # surrogateescape maps byte b >= 0x80 to the code point 0xDC00 + b
        reason = f"non-ASCII byte 0x{ord(text[pos]) - 0xDC00:02x}"
        if fmt == "graph6":
            raise Graph6Error(reason, pos - text.rfind("\n", 0, pos) - 1, line)
        raise EdgeListError(reason, line)
    if fmt == "graph6":
        return parse_graph6_file(text)
    return [parse_edge_list(text)]


def emit_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Run reports.


def format_value(v: Fraction | float | int | None) -> str:
    """Rationals as lossless "p/q", reals at 12 significant digits."""
    if v is None:
        return ""
    if isinstance(v, (Fraction, int)):
        f = Fraction(v)
        return f"{f.numerator}/{f.denominator}"
    return f"{v:.12g}"


@dataclass(frozen=True, eq=False)
class ReportMeta:
    timestamp: str | None = None
    seed: int | None = None
    spec: dict[str, Any] | None = None
    theorems: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class GraphRecord:
    graph_key: str
    graph6: str
    n: int
    m: int
    max_degree: int
    min_degree: int
    indices: IndexVector | None
    checks: tuple[BoundCheckResult, ...]
    note: str = ""


@dataclass(frozen=True, eq=False)
class RunReport:
    meta: ReportMeta
    records: tuple[GraphRecord, ...]

    def aggregates(self) -> dict[str, Any]:
        checks_run = 0
        violations = 0
        equality_cases = 0
        not_applicable = 0
        violation_refs: list[list[str]] = []
        for rec in self.records:
            for check in rec.checks:
                checks_run += 1
                if not check.applicable:
                    not_applicable += 1
                    continue
                if not check.satisfied:
                    violations += 1
                    violation_refs.append([rec.graph_key, check.theorem_id])
                if check.equality:
                    equality_cases += 1
        return {
            "graphs_checked": len(self.records),
            "checks_run": checks_run,
            "violations": violations,
            "equality_cases": equality_cases,
            "not_applicable": not_applicable,
            "violation_refs": violation_refs,
        }

    @property
    def violations(self) -> int:
        return self.aggregates()["violations"]


def _check_to_dict(check: BoundCheckResult) -> dict[str, Any]:
    out: dict[str, Any] = {
        "theorem_id": check.theorem_id,
        "lhs": format_value(check.lhs),
        "rhs": format_value(check.rhs),
        "satisfied": check.satisfied,
        "equality": check.equality,
        "slack": format_value(check.slack),
        "applicable": check.applicable,
        "reason": check.reason,
    }
    if check.branches:
        out["branches"] = [_check_to_dict(b) for b in check.branches]
    return out


def _indices_to_dict(iv: IndexVector | None) -> dict[str, str] | None:
    if iv is None:
        return None
    return {name: format_value(value) for name, value in iv.as_dict().items()}


def emit_report(report: RunReport, fmt: str) -> bytes:
    """Serialize a report deterministically; ``fmt`` is "json" or "csv"."""
    if fmt == "json":
        doc = {
            "meta": {
                "timestamp": report.meta.timestamp,
                "seed": report.meta.seed,
                "spec": report.meta.spec,
                "theorems": list(report.meta.theorems),
            },
            "records": [
                {
                    "graph_key": rec.graph_key,
                    "graph6": rec.graph6,
                    "n": rec.n,
                    "m": rec.m,
                    "max_deg": rec.max_degree,
                    "min_deg": rec.min_degree,
                    "indices": _indices_to_dict(rec.indices),
                    "checks": [_check_to_dict(c) for c in rec.checks],
                    "note": rec.note,
                }
                for rec in report.records
            ],
            "aggregates": report.aggregates(),
        }
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("ascii")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["graph_key", "n", "m", "max_deg", "min_deg", "theorem_id",
             "lhs", "rhs", "satisfied", "equality", "slack"]
        )
        for rec in report.records:
            for check in rec.checks:
                if check.applicable:
                    satisfied = "true" if check.satisfied else "false"
                    equality = "true" if check.equality else "false"
                else:
                    satisfied = "na"
                    equality = ""
                writer.writerow(
                    [rec.graph_key, rec.n, rec.m, rec.max_degree, rec.min_degree,
                     check.theorem_id, format_value(check.lhs), format_value(check.rhs),
                     satisfied, equality, format_value(check.slack)]
                )
        return buf.getvalue().encode("ascii")
    raise ValueError(f"unknown report format {fmt!r} (expected 'json' or 'csv')")


def emit_index_csv(report: RunReport) -> bytes:
    """The index table of ``compute --emit csv``: one row per graph, no checks."""
    columns = ("m1", "m2", "forgotten", "harmonic", "ga1", "platt")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["graph_key", "n", "m", "max_deg", "min_deg", *columns])
    for rec in report.records:
        writer.writerow(
            [rec.graph_key, rec.n, rec.m, rec.max_degree, rec.min_degree,
             *(format_value(getattr(rec.indices, name)) for name in columns)]
        )
    return buf.getvalue().encode("ascii")
