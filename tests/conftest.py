import itertools

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from topoline.graph_core import CANONICAL_CAP, Graph, GraphError, canonical_form
from topoline.harness import EnumerationSpec, enumerate_graphs, verification_meta, verify_records
from topoline.io_formats import _edge_list, write_report

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 7):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return Graph(n)
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph(n, tuple(edges))


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 7):
    """Random spanning tree plus extra edges; connected by construction."""
    n = draw(st.integers(min_n, max_n))
    tree = tuple(
        (draw(st.integers(0, i - 1)), i) for i in range(1, n)
    )
    spare = [p for p in itertools.combinations(range(n), 2) if p not in set(tree)]
    extra = (
        draw(st.lists(st.sampled_from(spare), unique=True, max_size=len(spare)))
        if spare
        else []
    )
    return Graph(n, tree + tuple(extra))


@st.composite
def nontrivial_graphs(draw, min_n: int = 3, max_n: int = 7):
    """Connected graphs with at least two edges (n >= 3 suffices)."""
    return draw(connected_graphs(min_n=max(min_n, 3), max_n=max_n))


@pytest.fixture(scope="session")
def graphs_upto_7() -> tuple[Graph, ...]:
    """Every graph with n <= 7, one per class in (n, key) order: each call of
    enumerate_graphs grows the levels afresh, so the modules that read them
    all share one growth."""
    return tuple(enumerate_graphs(EnumerationSpec(0, 7)))


def write_verified(tmp_path, spec, theorems=None, fmt="json") -> tuple[bytes, dict]:
    """Verify ``spec`` as ``topoline verify --no-timestamp`` does, writing the
    report under ``tmp_path``; its bytes and aggregates."""
    meta = verification_meta(spec, theorems)
    out = tmp_path / f"report.{fmt}"
    aggregates = write_report(meta, verify_records(spec, meta.theorems), fmt, str(out))
    return out.read_bytes(), aggregates


def permute(g: Graph, perm) -> Graph:
    """Relabel ``g`` by ``perm`` (vertex v becomes perm[v])."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError(f"not a permutation of 0..{g.n - 1}: {perm!r}")
    return Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def star_graph(n: int) -> Graph:
    """Star on ``n`` vertices: center 0 joined to 1..n-1."""
    if n < 1:
        raise GraphError("star needs n >= 1")
    return Graph(n, tuple((0, i) for i in range(1, n)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    shifted = tuple((u + g1.n, v + g1.n) for u, v in g2.edges)
    return Graph(g1.n + g2.n, g1.edges + shifted)


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test by canonical-form comparison.

    Intended for small graphs (n <= 10); larger inputs are accepted but the
    canonical search may be slow.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.degrees) != sorted(g2.degrees):
        return False
    cap = max(CANONICAL_CAP, g1.n)
    return canonical_form(g1, cap=cap) == canonical_form(g2, cap=cap)


def parse_edge_list(text: str) -> Graph:
    """The graph of edge-list ``text`` by the parser of ``read_graph_file``;
    only "\\n" separates its lines."""
    return _edge_list(text.split("\n"))


def emit_edge_list(g: Graph) -> str:
    """``g`` as edge-list text: its vertex count, then one "u v" line per edge."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
