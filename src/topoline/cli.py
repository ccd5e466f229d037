"""Command-line surface: compute, verify, hyperbolicity, extremal, enumerate.

Exit codes: 0 success, 1 bound violations found, 2 usage or parse errors.

One I/O contract: a command reads its input once, as a stream (so a pipe will
do), spools its output so that a failure leaves it untouched, and takes a
report's format from its path (``.csv`` for CSV, JSON otherwise).  Each
command imports its layers when it runs, so ``theorems`` and ``--help`` load
only the catalogue, and ``compute`` and ``hyperbolicity`` load neither the
harness nor the theorem checks; every file goes through :mod:`.io_formats`.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import (
    DEFAULT_VERTEX_CAP,
    ENUMERATION_CAP,
    GRAPH_CLASSES,
    INDEX_NAMES,
    THEOREM_IDS,
    THEOREM_STATEMENTS,
)

USAGE_ERROR = 2
VIOLATIONS_FOUND = 1


def _cmd_compute(args) -> int:
    from .io_formats import ReportMeta, graph_label, graph_record, read_graph_file, write_report
    from .line_graph import line_graph

    def records():
        for g in read_graph_file(args.infile, args.format):
            try:  # line_graph and index_vector refuse a graph; name G, not L(G)
                h = line_graph(g) if args.line_graph else g
                record = graph_record(h, h.index_vector)
            except ValueError as exc:
                raise ValueError(f"graph {graph_label(g)}: {exc}") from None
            yield record

    write_report(ReportMeta(), records(), "index_csv" if args.out.endswith(".csv") else "json", args.out)
    return 0


def _cmd_verify(args) -> int:
    from .harness import EnumerationSpec, verification_meta, verify_records
    from .io_formats import write_report

    if args.theorems == "all":
        theorems = None
    else:
        theorems = tuple(t.strip() for t in args.theorems.split(",") if t.strip())
    spec = EnumerationSpec(
        n_min=args.n_min,
        n_max=args.n_max,
        connected_only=args.connected,
        non_trivial_only=args.non_trivial,
        source=args.source,
    )
    if args.no_timestamp:
        timestamp = None
    else:
        from datetime import datetime, timezone

        timestamp = datetime.now(timezone.utc).isoformat()
    meta = verification_meta(spec, theorems, timestamp=timestamp)
    fmt = "csv" if args.out.endswith(".csv") else "json"
    aggregates = write_report(meta, verify_records(spec, meta.theorems), fmt, args.out)
    print(
        f"checked {aggregates['graphs_checked']} graphs, "
        f"{aggregates['checks_run']} checks, "
        f"{aggregates['violations']} violations, "
        f"{aggregates['equality_cases']} equality cases"
    )
    for key, tid in aggregates["violation_refs"]:
        print(f"VIOLATION {tid} on {key}")
    return VIOLATIONS_FOUND if aggregates["violations"] else 0


def _cmd_hyperbolicity(args) -> int:
    import shutil
    import tempfile

    from .hyperbolicity import (
        HyperbolicityCapError,
        hyperbolicity_constant,
        hyperbolicity_upper_bound,
    )
    from .io_formats import format_value, graph_label, read_graph_file

    if args.cap < 0:
        raise ValueError(f"--cap must be non-negative, got {args.cap}")
    with tempfile.TemporaryFile("w+") as spool:  # printed after the last graph is read
        for g in read_graph_file(args.infile, args.format):
            label = graph_label(g)
            try:
                result = hyperbolicity_constant(g, cap=args.cap)
            except HyperbolicityCapError:
                bound = format_value(hyperbolicity_upper_bound(g))
                why = f"capped at n={args.cap}" if g.n > args.cap else "past its work budget"
                print(f"{label} delta<=m/4={bound} (exact computation {why})", file=spool)
                continue
            witness = result.witness
            probe = f" witness probe {witness.probe}" if witness else ""
            print(f"{label} delta={format_value(result.delta)}{probe}", file=spool)
        spool.seek(0)
        shutil.copyfileobj(spool, sys.stdout)
    return 0


def _cmd_extremal(args) -> int:
    from .harness import extremal_search
    from .io_formats import emit_graph6, format_value

    for g, value in extremal_search(args.index, args.objective, args.graph_class, args.n):
        print(f"{emit_graph6(g)} {format_value(value)}")
    return 0


def _cmd_enumerate(args) -> int:
    from .harness import EnumerationSpec, enumerate_graphs
    from .io_formats import ReportMeta, graph_record, write_report

    spec = EnumerationSpec(n_min=args.n, n_max=args.n, connected_only=args.connected)
    records = (graph_record(g, None) for g in enumerate_graphs(spec))
    write_report(ReportMeta(), records, "graph6", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoline",
        description="Degree-based topological indices, line graphs and graph hyperbolicity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute index vectors for graphs in a file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("graph6", "edgelist"), required=True)
    p.add_argument("--line-graph", action="store_true", help="compute on L(G) instead of G")
    p.add_argument("--out", required=True, help="report path (.csv for CSV, JSON otherwise)")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("verify", help="run theorem checks over an enumeration or a file")
    p.add_argument("--theorems", required=True,
                   help="comma-separated subset of T1..T11, or 'all'")
    p.add_argument("--n-min", dest="n_min", type=int, required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--non-trivial", dest="non_trivial", action="store_true")
    p.add_argument("--source", default=None, help="graph6 file instead of internal enumeration")
    p.add_argument("--out", required=True, help="report path (.csv for CSV, JSON otherwise)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the wall-clock timestamp for byte-reproducible reports")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hyperbolicity", help="exact hyperbolicity constant of graphs in a file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("graph6", "edgelist"), required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP,
                   help="vertex cap for exact computation")
    p.set_defaults(func=_cmd_hyperbolicity)

    p = sub.add_parser("extremal", help="graphs attaining an extremal index value")
    p.add_argument("--index", required=True,
                   help="|".join((*INDEX_NAMES, "delta")))
    p.add_argument("--objective", choices=("max", "min"), required=True)
    p.add_argument("--class", dest="graph_class", choices=GRAPH_CLASSES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("enumerate", help=f"emit graph6 lines, one isomorphism class each (n <= {ENUMERATION_CAP})")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("theorems", help="list the theorem catalog")
    p.set_defaults(func=_cmd_theorems)
    return parser


def _cmd_theorems(args) -> int:
    for tid in THEOREM_IDS:
        print(f"{tid}: {THEOREM_STATEMENTS[tid]}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every parse and refusal error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
