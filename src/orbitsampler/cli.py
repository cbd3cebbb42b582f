"""Command-line front end.

Subcommands::

    estimate     sample-based orbit-degree report for one node
    exact        brute-force enumeration report (same JSON schema)
    evaluate     repeated runs with NRMSE / L1 / L2 / top-k metrics
    orbit-table  directed orbit id <-> canonical direction codes
    bench        sampling throughput micro-benchmark

Exit codes: 0 success, 1 usage error, 2 data error, 3 enumeration guard
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import (
    BudgetConfig,
    Estimate,
    OrbitReport,
    estimate_orbit_degrees,
)
from .experiment import measure_sample_time, run_experiment
from .generators import sparse_random_graph
from .graph import Graph, GraphError, load_edge_list
from .oracle import DEFAULT_GUARD, GuardExceededError, exact_orbit_degrees
from .orbits import orbit_table
from .report import dumps, report_to_dict, write_report_csv
from .samplers import METHOD_ORDER

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_GUARD = 0, 1, 2, 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="orbitsampler", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    graph_opts = _Parser(add_help=False)
    graph_opts.add_argument("--graph", required=True, help="edge-list file")
    graph_opts.add_argument(
        "--directed", action="store_true", help="treat lines as arcs"
    )
    graph_opts.add_argument(
        "--id-map", default=None, help="write the dense-to-original id map here"
    )

    node_opts = _Parser(add_help=False)
    sel = node_opts.add_mutually_exclusive_group(required=True)
    sel.add_argument("--node", type=int, default=None, help="original node id")
    sel.add_argument(
        "--max-degree-node",
        action="store_true",
        help="pick the highest-degree node (lowest id wins ties)",
    )

    out_opts = _Parser(add_help=False)
    out_opts.add_argument("--output", default=None, help="write here instead of stdout")
    out_opts.add_argument("--format", choices=("json", "csv"), default="json")

    mode_opts = _Parser(add_help=False)
    mode_opts.add_argument(
        "--mode", choices=("undirected", "directed3"), default="undirected"
    )

    p_est = sub.add_parser(
        "estimate",
        parents=[graph_opts, node_opts, mode_opts, out_opts],
        help="estimate orbit degrees of one node",
    )
    _add_budget_args(p_est)
    p_est.add_argument("--seed", type=int, default=0)

    p_exact = sub.add_parser(
        "exact",
        parents=[graph_opts, node_opts, mode_opts, out_opts],
        help="exact orbit degrees by enumeration",
    )
    p_exact.add_argument("--oracle-guard", type=int, default=DEFAULT_GUARD)

    p_eval = sub.add_parser(
        "evaluate",
        parents=[graph_opts, node_opts, mode_opts, out_opts],
        help="repeated runs plus accuracy metrics",
    )
    _add_budget_args(p_eval)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--runs", type=int, default=100)
    p_eval.add_argument("--workers", type=int, default=1)
    p_eval.add_argument("--oracle-guard", type=int, default=DEFAULT_GUARD)
    p_eval.add_argument(
        "--with-timings",
        action="store_true",
        help="include wall-clock times (breaks byte-reproducibility)",
    )

    p_table = sub.add_parser(
        "orbit-table", parents=[out_opts], help="directed orbit code table"
    )
    del p_table  # no extra arguments

    p_bench = sub.add_parser(
        "bench", parents=[out_opts], help="sampling throughput micro-benchmark"
    )
    p_bench.add_argument("--graph", default=None, help="edge-list file (else generated)")
    p_bench.add_argument("--directed", action="store_true")
    p_bench.add_argument("--nodes", type=int, default=100_000)
    p_bench.add_argument("--avg-degree", type=float, default=10.0)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--draws", type=int, default=100_000)
    p_bench.add_argument(
        "--method", action="append", choices=METHOD_ORDER, default=None
    )
    return parser


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=int, default=None, help="total draws, split evenly")
    p.add_argument(
        "--budget-split",
        default=None,
        help="comma-separated per-route draws in pipeline order",
    )


def _budget_from_args(args) -> BudgetConfig:
    if args.budget_split is not None:
        try:
            split = tuple(int(x) for x in args.budget_split.split(","))
        except ValueError:
            raise _UsageError(f"bad --budget-split {args.budget_split!r}") from None
        return BudgetConfig(split=split)
    if args.budget is not None:
        return BudgetConfig(total=args.budget)
    raise _UsageError("need --budget or --budget-split")


def _load_graph(args) -> Graph:
    path = Path(args.graph)
    if not path.exists():
        raise GraphError(f"graph file not found: {path}")
    g = load_edge_list(path, directed=args.directed)
    if args.id_map:
        g.write_id_map(args.id_map)
    return g


def _pick_node(g: Graph, args) -> int:
    if args.node is not None:
        return g.to_dense(args.node)
    return int(np.argmax(g.degrees))


def _check_mode(g: Graph, mode: str) -> None:
    if mode == "directed3" and not g.directed:
        raise GraphError("--mode directed3 requires --directed")


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_estimate(args) -> int:
    g = _load_graph(args)
    _check_mode(g, args.mode)
    v = _pick_node(g, args)
    report = estimate_orbit_degrees(g, v, args.mode, _budget_from_args(args), args.seed)
    _emit_report(args, report, g.to_original(v))
    return EXIT_OK


def _cmd_exact(args) -> int:
    g = _load_graph(args)
    _check_mode(g, args.mode)
    v = _pick_node(g, args)
    counts = exact_orbit_degrees(g, v, guard=args.oracle_guard)
    mapping = counts.undirected if args.mode == "undirected" else counts.directed3
    report = OrbitReport(
        node=v,
        mode=args.mode,
        budgets={},
        seed=None,
        estimates={
            i: Estimate(float(c), 0.0, "exact") for i, c in sorted(mapping.items())
        },
    )
    _emit_report(args, report, g.to_original(v))
    return EXIT_OK


def _emit_report(args, report: OrbitReport, node_label: int) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        write_report_csv(report, buf, node_label=node_label)
        _emit(args, buf.getvalue())
    else:
        _emit(args, dumps(report_to_dict(report, node_label=node_label)))


def _cmd_evaluate(args) -> int:
    g = _load_graph(args)
    _check_mode(g, args.mode)
    v = _pick_node(g, args)
    report = run_experiment(
        g,
        v,
        args.mode,
        _budget_from_args(args),
        runs=args.runs,
        seed=args.seed,
        workers=args.workers,
        oracle_guard=args.oracle_guard,
        with_timings=args.with_timings,
    )
    if report.exact is None:
        print(
            "enumeration guard exceeded; emitting estimation-only report",
            file=sys.stderr,
        )
    payload = report.to_dict()
    payload["node"] = g.to_original(v)
    if args.format == "csv":
        _emit(args, _eval_csv(report, g.to_original(v)))
    else:
        _emit(args, dumps(payload))
    return EXIT_OK


def _eval_csv(report, node_label: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["node", "mode", "orbit", "mean_estimate", "exact", "nrmse"])
    for i, mean in sorted(report.mean_estimates.items()):
        exact = None if report.exact is None else report.exact.get(i)
        err = None if report.nrmse is None else report.nrmse.get(i)
        writer.writerow([node_label, report.mode, i, mean, exact, err])
    return buf.getvalue()


def _cmd_orbit_table(args) -> int:
    rows = orbit_table()
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["orbit", "class", "codes", "unorbit"])
        for row in rows:
            writer.writerow(
                [row["orbit"], row["class"], " ".join(map(str, row["codes"])), row["unorbit"]]
            )
        _emit(args, buf.getvalue())
    else:
        lines = ["orbit  class        codes    unorbit"]
        for row in rows:
            codes = ",".join(map(str, row["codes"]))
            lines.append(
                f"{row['orbit']:>5}  {row['class']:<11}  {codes:<7}  {row['unorbit']}"
            )
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.graph is not None:
        g = load_edge_list(args.graph, directed=args.directed)
    else:
        g = sparse_random_graph(args.nodes, args.avg_degree, args.seed)
    v = int(np.argmax(g.degrees))
    methods = args.method or list(METHOD_ORDER)
    rows = []
    for m in methods:
        try:
            per_draw = measure_sample_time(g, v, m, draws=args.draws, seed=args.seed)
        except Exception as exc:  # route undefined at this node
            rows.append({"method": m, "error": str(exc)})
            continue
        rows.append(
            {
                "method": m,
                "seconds_per_draw": per_draw,
                "draws_per_second": 1.0 / per_draw if per_draw > 0 else float("inf"),
            }
        )
    payload = {
        "node": g.to_original(v),
        "degree": int(g.degrees[v]),
        "draws": args.draws,
        "rates": rows,
    }
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["method", "seconds_per_draw", "draws_per_second", "error"])
        for r in rows:
            writer.writerow(
                [
                    r["method"],
                    r.get("seconds_per_draw"),
                    r.get("draws_per_second"),
                    r.get("error"),
                ]
            )
        _emit(args, buf.getvalue())
    else:
        _emit(args, dumps(payload))
    return EXIT_OK


_COMMANDS = {
    "estimate": _cmd_estimate,
    "exact": _cmd_exact,
    "evaluate": _cmd_evaluate,
    "orbit-table": _cmd_orbit_table,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GuardExceededError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
