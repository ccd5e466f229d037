"""Degree-based topological indices, line graphs and exact graph hyperbolicity,
with an executable-theorem verification harness over small graphs.

The public names below are loaded on first use (PEP 562), so importing the
package, or only the command line, loads no layer.  ``topoline.line_graph`` is
the submodule; the function is ``topoline.line_graph.line_graph``.
"""

import importlib

_EXPORTS = {
    "catalog": ("ENUMERATION_CAP", "THEOREM_IDS", "THEOREM_STATEMENTS"),
    "graph_core": (
        "CANONICAL_CAP", "CanonicalCapError", "ComponentInfo", "Graph", "GraphError",
        "all_regular", "all_regular_or_biregular", "canonical_form",
        "complete_bipartite_graph", "complete_graph", "components", "cycle_graph",
        "disjoint_union", "is_connected", "is_forest", "is_isomorphic", "is_non_trivial",
        "path_graph", "star_graph",
    ),
    "harness": (
        "EnumerationCapError", "EnumerationSpec", "enumerate_graphs", "enumerate_trees",
        "extremal_search", "sample_gnp", "verification_meta", "verify_records",
    ),
    "hyperbolicity": (
        "GeodesicTriangle", "HyperbolicityCapError", "HyperbolicityResult", "MetricPoint",
        "SubdividedLattice", "hyperbolicity_constant", "hyperbolicity_upper_bound",
        "subdivided_distances",
    ),
    "indices": ("IndexVector", "IsolatedVertexError", "compute_index_vector"),
    "io_formats": (
        "EdgeListError", "Graph6Error", "GraphRecord", "ReportMeta", "emit_graph6",
        "parse_graph6", "read_graph_file", "write_report",
    ),
    "line_graph": ("TrivialComponentError",),
    "theorems": (
        "GRAPH_CHECKS", "BoundCheckResult", "check_T1_m1_upper", "check_T2_ga_sum",
        "check_T3_line_identities", "check_T4_ga_platt", "check_T5_ga_hyperbolicity",
        "check_T6_ga_vs_m1", "check_T7_m1_line_identity", "check_T8_ga_line_lower",
        "check_T9_harmonic_bounds", "check_T10_on_graph", "check_T11_harmonic_sandwich",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
