"""Every file the command line reads or writes, and how a report names a graph.

Graphs come in as graph6 or edge-list text through :func:`read_graph_file`,
and every output file (a JSON or CSV report, or an enumeration's graph6
lines) goes out through :func:`write_report`.

graph6 is the interchange format so the harness can ingest externally
generated catalogs: first byte n+63 (n <= 62), then ceil(n(n-1)/12) payload
bytes, each carrying 6 adjacency bits offset by 63, upper triangle read
column by column ((0,1), (0,2), (1,2), (0,3), ...), zero padded.

Reports keep rationals as "p/q" strings and reals at 12 significant digits so
exact identities stay exact on disk, and identical report contents always
serialize to identical bytes.  A report is written as a stream: the writer
takes each record once and keeps none (see :func:`write_report`).

This module sits below the checks: it reads the index vectors and check
results of a record by their fields and imports neither :mod:`.indices` nor
:mod:`.theorems`.
"""

from __future__ import annotations

import csv
import errno
import itertools
import json
import math
import os
import re
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, TextIO

from .catalog import INDEX_NAMES
from .graph_core import Graph

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


_BAD_PAYLOAD_BYTE = re.compile(r"[^?-~]")  # outside chr(63)..chr(126)


def _check_graph6(s: str) -> tuple[int, str]:
    """The order n of a short-form graph6 string and the string without its
    '>>graph6<<' header, once every check of :func:`parse_graph6` passed;
    the first fault found raises :class:`Graph6Error` with its byte offset."""
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
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    got = len(s) - 1
    if got < need:
        raise Graph6Error(f"truncated payload: need {need} bytes for n={n}, got {got}", len(s))
    if got > need:
        raise Graph6Error("trailing garbage after payload", 1 + need)
    bad = _BAD_PAYLOAD_BYTE.search(s, 1)
    if bad:
        raise Graph6Error(f"payload byte {bad.group()!r} out of range", bad.start())
    # the last byte's low 6*need - pairs bits pad the triangle and must be 0
    if need and (ord(s[-1]) - 63) & ((1 << (6 * need - pairs)) - 1):
        raise Graph6Error("non-zero padding bits", len(s) - 1)
    return n, s


def parse_graph6(s: str) -> Graph:
    """Decode a short-form graph6 string (optional '>>graph6<<' header allowed)."""
    n, s = _check_graph6(s)
    bits = "".join(format(ord(ch) - 63, "06b") for ch in s[1:])
    edges = []
    t = bits.find("1")
    while t >= 0:  # bit t is pair (i, j) with t = j(j-1)/2 + i, i < j
        j = (1 + math.isqrt(8 * t + 1)) // 2
        edges.append((t - j * (j - 1) // 2, j))
        t = bits.find("1", t + 1)
    return Graph(n, tuple(edges))


def emit_graph6(g: Graph) -> str:
    """Encode a graph (n <= 62) as a short-form graph6 string."""
    if g.n > 62:
        raise ValueError(f"graph6 short form supports n <= 62, got n={g.n}")
    need = (g.n * (g.n - 1) // 2 + 5) // 6
    bits = 0  # bit 6 * need - 1 - t holds payload bit t, so the padding stays 0
    for i, j in g.edges:
        bits |= 1 << (6 * need - 1 - j * (j - 1) // 2 - i)
    return chr(g.n + 63) + "".join(
        chr((bits >> 6 * k & 63) + 63) for k in range(need - 1, -1, -1)
    )


def _graph6_lines(lines: Iterable[str], read: Callable[[str], Any] = parse_graph6) -> Iterator:
    """``read`` of each non-blank line of ``lines``; errors name the 1-based line."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            yield read(line)
        except Graph6Error as exc:
            raise Graph6Error(exc.reason, exc.offset, lineno) from None


def _edge_list(lines: Iterable[str]) -> Graph:
    """The graph of the edge-list text given as its lines.

    The first significant line holds the vertex count (at most
    ``MAX_EDGE_LIST_VERTICES``), each following line one edge "u v"
    (0-indexed); blank lines and '#' comments are ignored.  Duplicate edges
    collapse with a logged warning.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
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
        edges.append((u, v) if u < v else (v, u))
    if n is None:
        raise EdgeListError("missing vertex count line", 1)
    g = Graph(n, tuple(edges))
    duplicates = len(edges) - g.m
    if duplicates:
        import logging  # only here: every other run would pay for its import

        logging.getLogger(__name__).warning("edge list contained %d duplicate edge(s)", duplicates)
    return g


def _ascii_lines(fh: TextIO, fmt: str) -> Iterator[str]:
    """The lines of ``fh``, refusing the first non-ASCII byte by its line (and
    for graph6 by its byte offset within the line)."""
    for lineno, line in enumerate(fh, start=1):
        if not line.isascii():
            pos = next(i for i, ch in enumerate(line) if not ch.isascii())
            # surrogateescape maps byte b >= 0x80 to the code point 0xDC00 + b
            reason = f"non-ASCII byte 0x{ord(line[pos]) - 0xDC00:02x}"
            if fmt == "graph6":
                raise Graph6Error(reason, pos, lineno)
            raise EdgeListError(reason, lineno)
        yield line


def read_graph_file(path: str, fmt: str) -> Iterator[Graph]:
    """The graphs of a graph6 file (one per line) or of an edge-list file (one).

    The file is read one line at a time, and each graph6 graph is yielded as
    soon as its line is parsed, so an error on a later line surfaces only when
    that line is reached.  Lines are physical lines: text mode folds "\r\n"
    and "\r" into "\n", and only "\n" separates lines.  A non-ASCII byte is
    reported like any other parse error, by its line (and for graph6 its byte
    offset within the line).
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        lines = _ascii_lines(fh, fmt)
        if fmt == "graph6":
            yield from _graph6_lines(lines)
        else:
            yield _edge_list(lines)


def read_graph6_texts(path: str) -> Iterator[tuple[int, str]]:
    """(n, text) for each graph of a graph6 file: its order and its line
    without the header.  Each line is checked exactly as :func:`read_graph_file`
    checks it, with the same errors in the same order, but not decoded."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        yield from _graph6_lines(_ascii_lines(fh, "graph6"), _check_graph6)


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
    """One graph of a report.  ``indices`` is its ``indices.IndexVector`` (None
    when it has none) and ``checks`` its ``theorems.BoundCheckResult``s; a
    report reads only their fields."""

    graph_key: str
    graph6: str
    n: int
    m: int
    max_degree: int
    min_degree: int
    indices: Any
    checks: tuple[Any, ...]
    note: str = ""


def graph_label(g: Graph) -> str:
    """How reports name ``g``: its graph6 string, or "<n=N>" past graph6's 62 vertices."""
    return emit_graph6(g) if g.n <= 62 else f"<n={g.n}>"


def graph_record(g: Graph, indices: Any, checks: Iterable[Any] = (), note: str = "",
                 key: str | None = None) -> GraphRecord:
    """The report record of ``g``; ``key`` defaults to its label, and a "<n=N>"
    label (no graph6 byte is "<") leaves the ``graph6`` field empty."""
    label = graph_label(g)
    return GraphRecord(
        graph_key=key or label, graph6="" if label.startswith("<") else label,
        n=g.n, m=g.m, max_degree=g.max_degree, min_degree=g.min_degree,
        indices=indices, checks=tuple(checks), note=note,
    )


@dataclass
class ReportTally:
    """A report's aggregates, counted one record at a time."""

    graphs_checked: int = 0
    checks_run: int = 0
    violations: int = 0
    equality_cases: int = 0
    not_applicable: int = 0
    violation_refs: list[list[str]] = field(default_factory=list)

    def add(self, rec: GraphRecord) -> GraphRecord:
        """Count ``rec`` and return it, so ``map(tally.add, records)`` counts a stream."""
        self.graphs_checked += 1
        for check in rec.checks:
            self.checks_run += 1
            if not check.applicable:
                self.not_applicable += 1
                continue
            if not check.satisfied:
                self.violations += 1
                self.violation_refs.append([rec.graph_key, check.theorem_id])
            if check.equality:
                self.equality_cases += 1
        return rec


# JSON reports are laid out exactly as json.dumps(doc, indent=2, sort_keys=True)
# lays them out; the records are written through fixed templates, keys in
# sorted order, because json.dumps cannot use its C encoder once it indents.
_esc = json.encoder.encode_basestring_ascii
_BOOL = {False: "false", True: "true"}


def _check_json(c: Any, pad: str) -> str:
    """One check object whose braces sit at indentation ``pad``."""
    key = pad + "  "
    branches = ""
    if c.branches:
        item = key + "  "
        branches = (f'{key}"branches": [\n{item}'
                    + f",\n{item}".join(_check_json(b, item) for b in c.branches)
                    + f"\n{key}],\n")
    return (
        f'{{\n{key}"applicable": {_BOOL[c.applicable]},\n{branches}'
        f'{key}"equality": {_BOOL[c.equality]},\n'
        f'{key}"lhs": {_esc(format_value(c.lhs))},\n'
        f'{key}"reason": {_esc(c.reason)},\n'
        f'{key}"rhs": {_esc(format_value(c.rhs))},\n'
        f'{key}"satisfied": {_BOOL[c.satisfied]},\n'
        f'{key}"slack": {_esc(format_value(c.slack))},\n'
        f'{key}"theorem_id": {_esc(c.theorem_id)}\n'
        f"{pad}}}"
    )


def _record_json(rec: GraphRecord) -> str:
    """One element of the "records" list, its braces at indentation 4."""
    if rec.checks:
        pad = "        "
        checks = (f"[\n{pad}" + f",\n{pad}".join(_check_json(c, pad) for c in rec.checks)
                  + "\n      ]")
    else:
        checks = "[]"
    if rec.indices is None:
        indices = "null"
    else:
        # vars() is exactly the seven fields while IndexVector has no cached property
        indices = "{\n" + ",\n".join(
            f"        {_esc(name)}: {_esc(format_value(value))}"
            for name, value in sorted(vars(rec.indices).items())
        ) + "\n      }"
    return (
        f'{{\n      "checks": {checks},\n'
        f'      "graph6": {_esc(rec.graph6)},\n'
        f'      "graph_key": {_esc(rec.graph_key)},\n'
        f'      "indices": {indices},\n'
        f'      "m": {rec.m},\n'
        f'      "max_deg": {rec.max_degree},\n'
        f'      "min_deg": {rec.min_degree},\n'
        f'      "n": {rec.n},\n'
        f'      "note": {_esc(rec.note)}\n'
        "    }"
    )


def _check_rows(rec: GraphRecord) -> list[list]:
    rows = []
    for check in rec.checks:
        if check.applicable:
            satisfied, equality = _BOOL[check.satisfied], _BOOL[check.equality]
        else:
            satisfied, equality = "na", ""
        rows.append(
            [rec.graph_key, rec.n, rec.m, rec.max_degree, rec.min_degree,
             check.theorem_id, format_value(check.lhs), format_value(check.rhs),
             satisfied, equality, format_value(check.slack)]
        )
    return rows


def _index_rows(rec: GraphRecord) -> list[list]:
    return [[rec.graph_key, rec.n, rec.m, rec.max_degree, rec.min_degree,
             *(format_value(getattr(rec.indices, name)) for name in INDEX_NAMES)]]


#: CSV tables by report format: (header, rows of one record).  "csv" is the
#: check table of ``verify``; "index_csv" the index table of ``compute --emit csv``.
_CSV_TABLES = {
    "csv": (("graph_key", "n", "m", "max_deg", "min_deg", "theorem_id",
             "lhs", "rhs", "satisfied", "equality", "slack"), _check_rows),
    "index_csv": (("graph_key", "n", "m", "max_deg", "min_deg", *INDEX_NAMES), _index_rows),
}


def write_report(meta: ReportMeta, records: Iterable[GraphRecord], fmt: str,
                 path: str) -> dict[str, Any]:
    """Stream a report to ``path`` and return its aggregates.

    ``fmt`` is "json", "csv" (the check table), "index_csv" (the index
    table) or "graph6" (each record's graph6 line, with no head).  An
    unknown format, an empty ``path``, a ``path`` that is a
    directory or ends in a separator, or one whose directory cannot hold a
    file is refused before the first record is drawn, and the error names
    ``path`` as given.  ``records`` is consumed once, and
    each record is dropped before the next is drawn: ``map`` holds an item
    only for its call, and ``writelines``/``writerows`` only the text made
    from it.  The records go to an unnamed temporary file in the directory of
    ``path`` as they arrive; ``path`` is opened only after the last one, to
    write the head and copy the records in.  A run that fails part way thus
    leaves ``path`` as it was.
    """
    if fmt not in ("json", "graph6") and fmt not in _CSV_TABLES:
        raise ValueError(
            f"unknown report format {fmt!r} (expected 'json', 'csv', 'index_csv' or 'graph6')"
        )
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        # "missing/" spools in "missing", so a trailing separator is refused here
        body = tempfile.TemporaryFile("w+", encoding="ascii", newline="",
                                      dir=os.path.dirname(path) or os.curdir)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    tally = ReportTally()
    counted = map(tally.add, records)
    with body:
        if fmt == "json":
            items = map(_record_json, counted)
            first = next(items, None)
            if first is not None:
                body.write("\n    " + first)
                body.writelines(",\n    " + item for item in items)
            head = {
                "aggregates": asdict(tally),
                "meta": {
                    "timestamp": meta.timestamp,
                    "seed": meta.seed,
                    "spec": meta.spec,
                    "theorems": list(meta.theorems),
                },
            }
            # the small head through json.dumps, its closing "\n}" reopened for "records"
            head_text = json.dumps(head, indent=2, sort_keys=True)[:-2] + ',\n  "records": ['
            tail = ("]" if first is None else "\n  ]") + "\n}\n"
        elif fmt == "graph6":
            body.writelines(rec.graph6 + "\n" for rec in counted)
            head_text = tail = ""
        else:
            header, rows = _CSV_TABLES[fmt]
            csv.writer(body, lineterminator="\n").writerows(
                itertools.chain.from_iterable(map(rows, counted))
            )
            head_text, tail = ",".join(header) + "\n", ""
        body.seek(0)
        with open(path, "w", encoding="ascii", newline="") as out:
            out.write(head_text)
            shutil.copyfileobj(body, out)
            out.write(tail)
    return asdict(tally)
