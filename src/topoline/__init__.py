"""Degree-based topological indices, line graphs and exact graph hyperbolicity,
with an executable-theorem verification harness over small graphs."""

from .graph_core import (
    CANONICAL_CAP,
    CanonicalCapError,
    ComponentInfo,
    Graph,
    GraphError,
    all_regular,
    all_regular_or_biregular,
    build_graph,
    canonical_form,
    complete_bipartite_graph,
    complete_graph,
    components,
    cycle_graph,
    disjoint_union,
    is_connected,
    is_forest,
    is_isomorphic,
    is_non_trivial,
    path_graph,
    permute,
    star_graph,
)
from .harness import (
    ENUMERATION_CAP,
    EnumerationCapError,
    EnumerationSpec,
    enumerate_graphs,
    enumerate_trees,
    extremal_search,
    sample_gnp,
    verification_meta,
    verify_records,
)
from .hyperbolicity import (
    GeodesicTriangle,
    HyperbolicityCapError,
    HyperbolicityResult,
    MetricPoint,
    SubdividedLattice,
    hyperbolicity_constant,
    hyperbolicity_upper_bound,
    subdivided_distances,
)
from .indices import (
    IndexVector,
    IsolatedVertexError,
    compute_index_vector,
)
from .io_formats import (
    EdgeListError,
    Graph6Error,
    GraphRecord,
    ReportMeta,
    emit_edge_list,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
    read_graph_file,
    write_report,
)
from .line_graph import TrivialComponentError, line_graph
from .theorems import (
    GRAPH_CHECKS,
    THEOREM_IDS,
    THEOREM_STATEMENTS,
    BoundCheckResult,
    LemmaInstance,
    check_T1_m1_upper,
    check_T2_ga_sum,
    check_T3_line_identities,
    check_T4_ga_platt,
    check_T5_ga_hyperbolicity,
    check_T6_ga_vs_m1,
    check_T7_m1_line_identity,
    check_T8_ga_line_lower,
    check_T9_harmonic_bounds,
    check_T10_lemma,
    check_T10_on_graph,
    check_T11_harmonic_sandwich,
)

__version__ = "0.1.0"
