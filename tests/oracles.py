"""Independent brute-force oracles for the test suite.

Everything here is written against the definitions directly, sharing no
algorithmic machinery with the package: canonical keys by trying every
permutation, hyperbolicity by enumerating every geodesic triangle (all
geodesic choices) on the subdivision lattice, distances by a fresh BFS,
indices and the T10 sums by one term per edge or per pair, and reports by
building the whole document and handing it to ``json.dumps`` or ``csv``, with
the aggregates counted from the records.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from collections import deque
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from topoline.graph_core import Graph
from topoline.indices import IsolatedVertexError
from topoline.io_formats import format_value


def brute_canonical_key(g: Graph) -> str:
    """Minimal column-major adjacency bit string over all n! permutations."""
    edges = set(g.edges)
    best: str | None = None
    for perm in itertools.permutations(range(g.n)):
        bits = []
        for j in range(1, g.n):
            for i in range(j):
                u, v = sorted((perm[i], perm[j]))
                bits.append("1" if (u, v) in edges else "0")
        s = "".join(bits)
        if best is None or s < best:
            best = s
    return f"{g.n}:{best or ''}"


def graph6_oracle(s: str) -> Graph | tuple[str, int]:
    """Decode short-form graph6 one bit at a time: the graph, or the
    (reason, byte offset) of the first fault, checked in the order size byte,
    payload length, payload bytes, padding bits."""
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        return "empty graph6 string", 0
    if s[0] == "~":
        return "extended graph6 forms (n > 62) are not supported", 0
    if not "?" <= s[0] <= "}":
        return f"size byte {s[0]!r} out of range", 0
    n = ord(s[0]) - 63
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    need = (len(pairs) + 5) // 6
    if len(s) - 1 < need:
        return f"truncated payload: need {need} bytes for n={n}, got {len(s) - 1}", len(s)
    if len(s) - 1 > need:
        return "trailing garbage after payload", 1 + need
    bits = []
    for pos in range(1, len(s)):
        value = ord(s[pos]) - 63
        if not 0 <= value <= 63:
            return f"payload byte {s[pos]!r} out of range", pos
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[len(pairs):]):
        return "non-zero padding bits", len(s) - 1
    return Graph(n, tuple(pair for pair, bit in zip(pairs, bits) if bit))


def line_graph_oracle(g: Graph) -> tuple[tuple[int, int], ...]:
    """The edges of L(g), vertex i standing for ``g.edges[i]``: every pair
    (i, j), i < j, whose two edges share an endpoint, by a double loop."""
    return tuple(
        (i, j)
        for i, (a, b) in enumerate(g.edges)
        for j, (c, d) in enumerate(g.edges)
        if i < j and {a, b} & {c, d}
    )


def index_vector_oracle(g: Graph) -> dict[str, Fraction | float | None]:
    """Every index of the README table, one term per edge, in the keys of
    ``dataclasses.asdict`` of an ``IndexVector``; GA1 is the correctly rounded
    sum of per-edge terms."""
    d = [0] * g.n
    for u, v in g.edges:
        d[u] += 1
        d[v] += 1
    pairs = [(d[u], d[v]) for u, v in g.edges]
    roots = [math.isqrt(a * b) for a, b in pairs]
    rational = all(r * r == a * b for r, (a, b) in zip(roots, pairs))
    return {
        "m1": sum((Fraction(a + b) for a, b in pairs), Fraction(0)),
        "m2": sum((Fraction(a * b) for a, b in pairs), Fraction(0)),
        "forgotten": sum((Fraction(a * a + b * b) for a, b in pairs), Fraction(0)),
        "harmonic": sum((Fraction(2, a + b) for a, b in pairs), Fraction(0)),
        "ga1": math.fsum(2.0 * math.sqrt(a * b) / (a + b) for a, b in pairs),
        "ga1_exact": (
            sum((Fraction(2 * r, a + b) for r, (a, b) in zip(roots, pairs)), Fraction(0))
            if rational else None
        ),
        "platt": sum((Fraction(a + b - 2) for a, b in pairs), Fraction(0)),
    }


def evaluate_vdb_index(g: Graph, f) -> Fraction | float:
    """The edge-sum index sum_{uv in E} f(d_u, d_v), one term per edge.

    ``f`` must be symmetric; symmetry is checked on all degree pairs up to the
    maximum degree before summing.
    """
    d = [0] * g.n
    for u, v in g.edges:
        d[u] += 1
        d[v] += 1
    isolated = [v for v in range(g.n) if d[v] == 0]
    if isolated:
        raise IsolatedVertexError(
            f"isolated vertices {isolated}: every component needs at least one edge"
        )
    if g.m == 0:
        return Fraction(0)
    dmax = max(d)
    for a in range(1, dmax + 1):
        for b in range(a + 1, dmax + 1):
            if f(a, b) != f(b, a):
                raise ValueError(f"weight function is not symmetric at ({a}, {b})")
    return sum(f(d[u], d[v]) for u, v in g.edges)


def degree_component_oracle(g: Graph) -> dict[str, int | bool]:
    """The degree extremes and the all-components flags from ``g.n`` and
    ``g.edges`` alone, the components found by union-find.

    A component is regular when all its degrees are equal, biregular when it
    has exactly two degrees and every edge joins one of each, and trivial when
    it has fewer than 2 edges."""
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    d = [0] * g.n
    for u, v in g.edges:
        d[u] += 1
        d[v] += 1
        parent[find(u)] = find(v)
    degree_sets: dict[int, set[int]] = {}
    for v in range(g.n):
        degree_sets.setdefault(find(v), set()).add(d[v])
    edges_of: dict[int, list[tuple[int, int]]] = {root: [] for root in degree_sets}
    for u, v in g.edges:
        edges_of[find(u)].append((u, v))
    regular = {root: len(degs) == 1 for root, degs in degree_sets.items()}
    biregular = {
        root: len(degs) == 2 and all({d[u], d[v]} == degs for u, v in edges_of[root])
        for root, degs in degree_sets.items()
    }
    return {
        "max_degree": max(d, default=0),
        "min_degree": min(d, default=0),
        "is_non_trivial": all(len(es) >= 2 for es in edges_of.values()),
        "all_regular": all(regular.values()),
        "all_regular_or_biregular": all(regular[r] or biregular[r] for r in degree_sets),
    }


def all_edges_degree_equal(g: Graph) -> bool:
    """Symbolic criterion for GA1 = m: every edge joins equal-degree endpoints."""
    degs = g.degrees
    return all(degs[u] == degs[v] for u, v in g.edges)


def harmonic_of_path(n: int) -> Fraction:
    """Closed form for the harmonic index of the path on ``n`` vertices:
    1 for n = 2 and (3n - 1)/6 for n >= 3."""
    if n < 2:
        raise ValueError(f"path harmonic formula needs n >= 2, got {n}")
    if n == 2:
        return Fraction(1)
    return Fraction(3 * n - 1, 6)


def t10_sums_oracle(k: int, xs: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """S = sum_j 1/(x_j+k) and T = sum over the C(k, 2) pairs i < j of
    1/(x_i+x_j+2k-4), one term each."""
    s = sum((Fraction(1, x + k) for x in xs), Fraction(0))
    t = sum(
        (Fraction(1, a + b + 2 * k - 4) for a, b in itertools.combinations(xs, 2)),
        Fraction(0),
    )
    return s, t


def bfs_distances(adj: list[list[int]], src: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if dist[nxt] < 0:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def subdivision_lattice(g: Graph, k: int):
    """Lattice adjacency for edges split into k segments; vertices first."""
    adj: list[list[int]] = [[] for _ in range(g.n)]

    def link(a: int, b: int) -> None:
        adj[a].append(b)
        adj[b].append(a)

    for u, v in g.edges:
        prev = u
        for _ in range(1, k):
            idx = len(adj)
            adj.append([])
            link(prev, idx)
            prev = idx
        link(prev, v)
    return adj


def delta_oracle(g: Graph, k: int = 4, geodesic_cap: int = 512) -> Fraction:
    """Hyperbolicity by explicit enumeration of geodesic triangles.

    Corners range over *all* lattice points (a superset of J(G)),
    every geodesic between each corner pair is enumerated, and each side is
    probed against the union of the other two.  Exponential; tiny graphs only.
    """
    adj = subdivision_lattice(g, k)
    size = len(adj)
    dist = [bfs_distances(adj, s) for s in range(size)]
    D = np.array(dist, dtype=np.int64)

    def geodesics(a: int, b: int) -> list[tuple[int, ...]]:
        if dist[a][b] < 0:
            return []
        out: list[tuple[int, ...]] = []
        stack: list[tuple[int, tuple[int, ...]]] = [(a, (a,))]
        while stack:
            cur, path = stack.pop()
            if cur == b:
                out.append(path)
                if len(out) > geodesic_cap:
                    raise RuntimeError("geodesic cap exceeded; graph too rich for the oracle")
                continue
            for nxt in adj[cur]:
                if dist[b][nxt] == dist[b][cur] - 1:
                    stack.append((nxt, path + (nxt,)))
        return out

    geo_cache: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def geo(a: int, b: int) -> list[tuple[int, ...]]:
        key = (a, b) if a <= b else (b, a)
        if key not in geo_cache:
            geo_cache[key] = geodesics(*key)
        return geo_cache[key]

    best_hops = 0
    for x, y, z in itertools.combinations_with_replacement(range(size), 3):
        if dist[x][y] < 0 or dist[x][z] < 0 or dist[y][z] < 0:
            continue
        sides = (geo(y, z), geo(x, z), geo(x, y))
        for side_a, side_b, side_c in itertools.product(*sides):
            for probe, others in (
                (side_a, (side_b, side_c)),
                (side_b, (side_a, side_c)),
                (side_c, (side_a, side_b)),
            ):
                union = np.array(sorted(set(others[0]) | set(others[1])))
                probe_arr = np.array(probe)
                value = int(D[np.ix_(probe_arr, union)].min(axis=1).max())
                if value > best_hops:
                    best_hops = value

    value = Fraction(best_hops, k)
    quarters = value * 4
    if quarters.denominator == 1:
        return value
    # Sampled value certifies delta from below; the true value is the next
    # quarter-integer (sampling error is below the grid spacing).
    return Fraction(int(quarters) + 1, 4)


def check_to_dict(check) -> dict:
    """A check as the JSON report holds it, branches included."""
    out = {
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
        out["branches"] = [check_to_dict(b) for b in check.branches]
    return out


def aggregates_oracle(records) -> dict:
    """The report aggregates, counted from the records: a not-applicable check
    is neither a violation nor an equality case."""
    checks = [(rec.graph_key, c) for rec in records for c in rec.checks]
    applicable = [(key, c) for key, c in checks if c.applicable]
    violated = [[key, c.theorem_id] for key, c in applicable if not c.satisfied]
    return {
        "graphs_checked": len(records),
        "checks_run": len(checks),
        "violations": len(violated),
        "equality_cases": sum(1 for _, c in applicable if c.equality),
        "not_applicable": len(checks) - len(applicable),
        "violation_refs": violated,
    }


def report_json_oracle(meta, records) -> bytes:
    """The JSON report as one document through ``json.dumps(indent=2, sort_keys=True)``."""
    doc = {
        "meta": {
            "timestamp": meta.timestamp,
            "seed": meta.seed,
            "spec": meta.spec,
            "theorems": list(meta.theorems),
        },
        "records": [
            {
                "graph_key": rec.graph_key,
                "graph6": rec.graph6,
                "n": rec.n,
                "m": rec.m,
                "max_deg": rec.max_degree,
                "min_deg": rec.min_degree,
                "indices": None if rec.indices is None else {
                    name: format_value(value) for name, value in asdict(rec.indices).items()
                },
                "checks": [check_to_dict(c) for c in rec.checks],
                "note": rec.note,
            }
            for rec in records
        ],
        "aggregates": aggregates_oracle(records),
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("ascii")


def report_csv_oracle(meta, records) -> bytes:
    """The CSV check table, one ``csv.writer`` row per check; ``meta`` has no place in it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["graph_key", "n", "m", "max_deg", "min_deg", "theorem_id",
         "lhs", "rhs", "satisfied", "equality", "slack"]
    )
    for rec in records:
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
