#!/usr/bin/env python3
"""Seeded input generator for the benchmark workloads.

It does not import ``topoline``: it has its own ``random.Random``, its own
G(n, p) sampler, connectivity test, isomorphism certificate and graph6
writer, so a change to the program under test cannot change a workload.

    python3 perfbench/gen.py --workload delta --seed 1 --out DIR

writes ``DIR/<workload>.g6`` (one graph6 line per graph) and
``DIR/<workload>.manifest.json`` (the seed, the sha256 of each generated
file and the facts the benchmark checks the program's report against).
``sweep7`` enumerates its graphs inside the program, so its manifest lists
no input file.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
from pathlib import Path

# delta: one graph per (n, m) stratum, n in {6, 7, 8} and n <= m <= 0.6 C(n, 2)
# (edge density about 0.29 to 0.6).  The cost of exact hyperbolicity is set by
# n + 3m (the triangle-corner count), so fixing the strata keeps the work per
# run the same across seeds while the graphs themselves change with the seed.
DELTA_STRATA = tuple(
    (n, m) for n in (6, 7, 8) for m in range(n, int(0.6 * n * (n - 1) / 2) + 1)
)

# ingest: connected G(n, p) graphs with n cycling through 12..40 and mean
# degree about 5, i.e. p = 5 / (n - 1).
INGEST_GRAPHS = 400
INGEST_ORDERS = tuple(range(12, 41))
INGEST_MEAN_DEGREE = 5.0

MAX_DRAWS = 100_000


def gnp_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """One uniform draw per vertex pair in lexicographic order; edge iff below p."""
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def neighbourhoods(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_connected(n: int, adj: list[set[int]]) -> bool:
    if n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def graph6(n: int, edges) -> str:
    """Short-form graph6: size byte n + 63, then the column-major upper
    triangle (0,1), (0,2), (1,2), (0,3), ... packed six bits per byte."""
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 short form needs 0 <= n <= 62, got {n}")
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in edge_set else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k:k + 6]:
            value = (value << 1) | b
        out.append(chr(value + 63))
    return "".join(out)


def decode_graph6(s: str) -> tuple[int, list[tuple[int, int]]]:
    """Inverse of :func:`graph6` (short form only)."""
    n = ord(s[0]) - 63
    bits = [(ord(ch) - 63) >> shift & 1 for ch in s[1:] for shift in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, [pair for pair, bit in zip(pairs, bits) if bit]


def certificate(n: int, adj: list[set[int]]) -> tuple:
    """Isomorphism-invariant key: identical iff the graphs are isomorphic.

    Vertices are split into classes by colour refinement (degree, then the
    multiset of neighbour colours, repeated until stable); the key is the
    minimum adjacency bit string over orderings that list the classes in
    colour order and permute only within a class.
    """
    colour = [len(adj[v]) for v in range(n)]
    while True:
        signature = [(colour[v], tuple(sorted(colour[w] for w in adj[v]))) for v in range(n)]
        ranks = {sig: r for r, sig in enumerate(sorted(set(signature)))}
        refined = [ranks[sig] for sig in signature]
        if len(set(refined)) == len(set(colour)):
            break
        colour = refined
    classes = [
        [v for v in range(n) if refined[v] == c] for c in range(max(refined, default=-1) + 1)
    ]
    best = None
    for choice in itertools.product(*(itertools.permutations(cls) for cls in classes)):
        order = [v for block in choice for v in block]
        bits = tuple(
            1 if order[i] in adj[order[j]] else 0 for j in range(1, n) for i in range(j)
        )
        if best is None or bits < best:
            best = bits
    return (n, tuple(sorted(signature)), best)


def graph_facts(n: int, edges) -> dict:
    """What the report must say about this graph, computed independently."""
    degrees = [0] * n
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
    return {
        "graph6": graph6(n, edges),
        "n": n,
        "m": len(edges),
        "max_degree": max(degrees),
        "min_degree": min(degrees),
        "m1": sum(d * d for d in degrees),
    }


def generate_delta(rng: random.Random) -> list[dict]:
    """Connected non-tree G(n, p) samples, p = m / C(n, 2), kept when the
    draw has exactly m edges and is a new isomorphism class."""
    seen: set[tuple] = set()
    graphs = []
    for n, m in DELTA_STRATA:
        p = m / (n * (n - 1) / 2)
        for _ in range(MAX_DRAWS):
            edges = gnp_edges(rng, n, p)
            if len(edges) != m:
                continue
            adj = neighbourhoods(n, edges)
            if not is_connected(n, adj):
                continue
            key = certificate(n, adj)
            if key in seen:
                continue
            seen.add(key)
            graphs.append(graph_facts(n, edges))
            break
        else:
            raise RuntimeError(f"no new connected graph with n={n}, m={m} in {MAX_DRAWS} draws")
    return graphs


def generate_ingest(rng: random.Random) -> list[dict]:
    """Connected G(n, p) samples with n cycling through INGEST_ORDERS."""
    seen: set[str] = set()
    graphs = []
    for i in range(INGEST_GRAPHS):
        n = INGEST_ORDERS[i % len(INGEST_ORDERS)]
        p = INGEST_MEAN_DEGREE / (n - 1)
        for _ in range(MAX_DRAWS):
            edges = gnp_edges(rng, n, p)
            if not is_connected(n, neighbourhoods(n, edges)):
                continue
            facts = graph_facts(n, edges)
            if facts["graph6"] in seen:
                continue
            seen.add(facts["graph6"])
            graphs.append(facts)
            break
        else:
            raise RuntimeError(f"no new connected G({n}, {p:.3f}) in {MAX_DRAWS} draws")
    return graphs


GENERATORS = {"delta": generate_delta, "ingest": generate_ingest}


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's input file and manifest; return the manifest."""
    manifest: dict = {"workload": workload, "seed": seed, "files": {}, "graphs": []}
    if workload in GENERATORS:
        graphs = GENERATORS[workload](random.Random(f"{workload}:{seed}"))
        payload = "".join(g["graph6"] + "\n" for g in graphs).encode("ascii")
        name = f"{workload}.g6"
        (out_dir / name).write_bytes(payload)
        manifest["files"][name] = {
            "sha256": hashlib.sha256(payload).hexdigest(),
            "bytes": len(payload),
        }
        manifest["graphs"] = graphs
    (out_dir / f"{workload}.manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Generate one benchmark workload's inputs.")
    parser.add_argument("--workload", required=True, choices=("sweep7", "delta", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    manifest = generate(args.workload, args.seed, args.out)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "files": manifest["files"],
                      "graphs": len(manifest["graphs"])}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
