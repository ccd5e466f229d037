"""Graph enumeration, sampling, batch verification and extremal search.

Records and their files are :mod:`.io_formats`'s: this module decides which
graphs a run sees and what is checked on each, and hands the records on.

Internal enumeration produces exactly one representative per isomorphism
class, ordered by canonical key, by extending each (n-1)-vertex class with
every possible neighborhood of a new vertex and deduplicating on canonical
form.  Trees are the same routine with a new leaf as the only neighborhood.
Each call grows the orders afresh and holds only the last one.  It is
deliberately simple and verifiable; the vertex cap (8) keeps the cost
explicit, and larger runs should feed a graph6 file instead.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .catalog import ENUMERATION_CAP, GRAPH_CLASSES, INDEX_NAMES, THEOREM_IDS
from .graph_core import (
    CANONICAL_CAP,
    Graph,
    canonical_form,
    is_connected,
    is_non_trivial,
    with_canonical_key,
)
from .hyperbolicity import _refuse_past_cap, hyperbolicity_constant
from .indices import IsolatedVertexError
from .io_formats import (
    GraphRecord,
    ReportMeta,
    graph_record,
    parse_graph6,
    read_graph6_texts,
)
from .theorems import GRAPH_CHECKS, _tolerance


class EnumerationCapError(ValueError):
    """Internal enumeration refused; supply a graph6 file for larger orders."""


@dataclass(frozen=True)
class EnumerationSpec:
    n_min: int
    n_max: int
    connected_only: bool = False
    non_trivial_only: bool = False
    source: str | None = None  # path to a graph6 file; None = internal enumeration


def _levels(n_max: int, masks: Callable[[int], Iterable[int]],
            first: Graph) -> Iterator[tuple[Graph, ...]]:
    """The classes of each order from ``first.n`` to ``n_max``, one level at a
    time, each in canonical-key order; only the last level is held.  Order
    n + 1 joins vertex n to each class of order n, in key order, by each
    neighborhood (a bitmask over 0..n-1) in ``masks(n)``, and keeps the first
    candidate per key."""
    level = (first,)
    yield level
    for n in range(first.n, n_max):
        firsts: dict[str, Graph] = {}
        for parent in level:
            for mask in masks(n):
                g = Graph(n + 1, parent.edges + tuple((i, n) for i in range(n) if mask >> i & 1))
                firsts.setdefault(canonical_form(g), g)
        level = tuple(firsts[key] for key in sorted(firsts))
        yield level


def enumerate_trees(n: int) -> tuple[Graph, ...]:
    """All trees on n vertices up to isomorphism, in canonical-key order: the
    graphs' routine from one vertex, with a new leaf as the only neighborhood."""
    if n < 1:
        raise ValueError("trees need n >= 1")
    if n > CANONICAL_CAP:
        raise EnumerationCapError(f"tree enumeration caps at n={CANONICAL_CAP}, the canonical-form cap")
    for trees in _levels(n, lambda k: (1 << i for i in range(k)), Graph(1)):
        pass
    return trees


def _first_texts(spec: EnumerationSpec) -> dict[tuple[int, str], str]:
    """(n, key) -> graph6 text of the first graph of ``spec.source`` with that
    order and key, over the orders in range; one pass, one line at a time.
    Every line is checked as :func:`parse_graph6` checks it, but only a graph
    within the canonical-form cap is decoded here: beyond it the key is the
    text itself."""
    texts: dict[tuple[int, str], str] = {}
    for n, text in read_graph6_texts(spec.source):
        if spec.n_min <= n <= spec.n_max:
            key = canonical_form(parse_graph6(text)) if n <= CANONICAL_CAP else text
            texts.setdefault((n, key), text)
    return texts


def _source_graphs(spec: EnumerationSpec) -> Iterator[Graph]:
    """The graphs of :func:`_first_texts` in (n, key) order, each parsed when
    its turn comes and carrying its key, so none outlives its own record."""
    texts = _first_texts(spec)
    for n, key in sorted(texts):
        g = parse_graph6(texts.pop((n, key)))
        yield with_canonical_key(g, key) if n <= CANONICAL_CAP else g


def enumerate_graphs(spec: EnumerationSpec) -> Iterator[Graph]:
    """One representative per isomorphism class, in (n, key) order; the key
    is the canonical form, or past ``CANONICAL_CAP`` the graph6 text."""
    origin = Graph(min(spec.n_min, 0))  # GraphError for a negative n_min, before a file is read
    if spec.n_min > spec.n_max:
        return
    if spec.source is not None:
        pool = _source_graphs(spec)
    else:
        if spec.n_max > ENUMERATION_CAP:
            raise EnumerationCapError(
                f"internal enumeration caps at n={ENUMERATION_CAP}; "
                f"for larger orders, run verify --source on a graph6 file"
            )
        levels = _levels(spec.n_max, lambda k: range(1 << k), origin)
        pool = itertools.chain.from_iterable(itertools.islice(levels, spec.n_min, None))
    for g in pool:
        if spec.connected_only and not is_connected(g):
            continue
        if spec.non_trivial_only and not is_non_trivial(g):
            continue
        yield g


def sample_gnp(n: int, p: Fraction | float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) sample.

    Deterministic and portable: a Mersenne Twister (``random.Random(seed)``)
    draws one uniform variate per vertex pair in lexicographic order
    (0,1), (0,2), ..., (0,n-1), (1,2), ...; the edge is present iff the
    variate is below p.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    rng = random.Random(seed)
    threshold = float(p)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < threshold
    ]
    return Graph(n, tuple(edges))


def _normalize_theorems(theorems) -> tuple[str, ...]:
    if theorems in (None, "all"):
        return THEOREM_IDS
    ids = set(theorems)
    if not ids:
        raise ValueError(f"empty theorem list; valid: {list(THEOREM_IDS)} or 'all'")
    unknown = sorted(ids - GRAPH_CHECKS.keys())
    if unknown:
        raise ValueError(f"unknown theorem ids {unknown}; valid: {list(THEOREM_IDS)}")
    return tuple(t for t in THEOREM_IDS if t in ids)


def verification_meta(
    spec: EnumerationSpec,
    theorems=None,
    *,
    timestamp: str | None = None,
) -> ReportMeta:
    """The report head of a run; refuses an empty or unknown theorem selection.

    ``timestamp`` is caller-supplied (None by default) so that identical
    inputs serialize to byte-identical reports.
    """
    return ReportMeta(
        timestamp=timestamp, spec=asdict(spec), theorems=_normalize_theorems(theorems)
    )


def verify_records(spec: EnumerationSpec, theorems=None) -> Iterator[GraphRecord]:
    """Check every (graph, selected theorem) pair, yielding each graph's record
    as soon as it is checked; nothing here keeps a record once it is yielded."""
    ids = _normalize_theorems(theorems)
    for g in enumerate_graphs(spec):
        try:
            iv = g.index_vector
            note = ""
        except IsolatedVertexError as exc:
            iv = None
            note = str(exc)
        yield graph_record(
            g, iv, (GRAPH_CHECKS[tid](g) for tid in ids), note,
            key=canonical_form(g) if g.n <= CANONICAL_CAP else None,
        )


def _index_value(g: Graph, index: str) -> Fraction | float:
    """The value on ``g`` of "delta" or of a name in :data:`INDEX_NAMES`."""
    if index == "delta":
        return hyperbolicity_constant(g).delta
    iv = g.index_vector
    return iv.ga1_value() if index == "ga1" else getattr(iv, index)


def _class_members(graph_class: str, n: int) -> list[Graph]:
    if graph_class == "trees":
        return list(enumerate_trees(n))
    spec = EnumerationSpec(n, n, connected_only=graph_class in ("connected", "unicyclic"))
    pool = list(enumerate_graphs(spec))
    if graph_class == "unicyclic":
        pool = [g for g in pool if g.m == g.n]
    return pool


def extremal_search(index: str, objective: str, graph_class: str,
                    n: int) -> list[tuple[Graph, Fraction | float]]:
    """All graphs on ``n`` vertices of ``graph_class`` ("all", "trees",
    "unicyclic" or "connected") attaining the ``objective`` ("max" or "min")
    value of ``index`` (see :func:`_index_value`), ties included."""
    valid = (*INDEX_NAMES, "delta")
    if index not in valid:
        raise ValueError(f"unknown index {index!r}; valid names: {sorted(valid)}")
    if objective not in ("max", "min"):
        raise ValueError(f"objective must be 'max' or 'min', got {objective!r}")
    if graph_class not in GRAPH_CLASSES:
        raise ValueError(f"unknown class {graph_class!r}; valid: {GRAPH_CLASSES}")
    if index == "delta" and n <= (CANONICAL_CAP if graph_class == "trees" else ENUMERATION_CAP):
        _refuse_past_cap(n)  # before any graph is grown; past its own cap the class refuses
    values: list[tuple[Graph, Fraction | float]] = []
    for g in _class_members(graph_class, n):
        try:
            values.append((g, _index_value(g, index)))
        except IsolatedVertexError:
            continue  # degree-based indices assume every component has an edge
    if not values:
        raise ValueError(f"no eligible graphs in class {graph_class!r} at n={n}")

    sign = 1 if objective == "max" else -1
    best = max(sign * v for _, v in values)
    # in canonical-key order, as each class's members arrive
    return [(g, v) for g, v in values if abs(gap := sign * v - best) <= _tolerance(gap)]
