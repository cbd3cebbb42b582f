"""Orbit-degree estimates of one node by biased subgraph sampling.

Exit codes: 0 success, 1 usage error, 2 data error, 3 oracle guard
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
from .estimators import BudgetConfig, Estimate, OrbitReport, estimate_orbit_degrees
from .experiment import exact_mode_counts, run_experiment
from .graph import Graph, GraphError, load_edge_list
from .oracle import DEFAULT_GUARD, GuardExceededError
from .orbits import orbit_table
from .report import dumps, report_rows, report_to_dict
from .samplers import MODES

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
    # unset: JSON, except orbit-table's fixed-width text table
    out_opts.add_argument("--format", choices=("json", "csv"), default=None)

    mode_opts = _Parser(add_help=False)
    mode_opts.add_argument("--mode", choices=tuple(MODES), default="undirected")

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
        help="exact orbit degrees, counted from the anchor's neighbour lists",
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

    sub.add_parser("orbit-table", parents=[out_opts], help="directed orbit code table")
    return parser


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--budget", type=int, default=None, help="total draws, split evenly"
    )
    group.add_argument(
        "--budget-split",
        default=None,
        help="comma-separated per-route draws in pipeline order",
    )


def _at_least(value: int, low: int, flag: str) -> None:
    if value < low:
        raise _UsageError(f"{flag} must be at least {low}, got {value}")


def _budget_from_args(args) -> BudgetConfig:
    if args.budget_split is not None:
        try:
            split = tuple(int(x) for x in args.budget_split.split(","))
        except ValueError:
            raise _UsageError(f"bad --budget-split {args.budget_split!r}") from None
        budget = BudgetConfig(split=split)
    else:
        budget = BudgetConfig(total=args.budget)
    try:
        budget.resolve(MODES[args.mode].routes)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return budget


def _load_graph(args) -> Graph:
    path = Path(args.graph)
    if not path.exists():
        raise GraphError(f"graph file not found: {path}")
    return load_edge_list(path, directed=args.directed)


def _pick_node(g: Graph, args) -> int:
    if args.node is not None:
        return g.to_dense(args.node)
    return int(np.argmax(g.degrees))


def _emit(args, payload, header: list[str], rows, text: str | None = None) -> None:
    """Write a result to --output or stdout: CSV rows for --format csv, the
    command's text form when it has one and no format is given, else JSON."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        out = buf.getvalue()
    elif text is not None and args.format is None:
        out = text
    else:
        out = dumps(payload)
    if args.output:
        Path(args.output).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)


def _cmd_estimate(args) -> int:
    budget = _budget_from_args(args)
    _at_least(args.seed, 0, "--seed")
    g = _load_graph(args)
    v = _pick_node(g, args)
    report = estimate_orbit_degrees(g, v, args.mode, budget, args.seed)
    _emit_report(args, report, g.to_original(v))
    return EXIT_OK


def _cmd_exact(args) -> int:
    _at_least(args.oracle_guard, 0, "--oracle-guard")
    g = _load_graph(args)
    v = _pick_node(g, args)
    mapping = exact_mode_counts(g, v, args.mode, args.oracle_guard)
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
    header, rows = report_rows(report, node_label)
    _emit(args, report_to_dict(report, node_label), header, rows)


def _cmd_evaluate(args) -> int:
    budget = _budget_from_args(args)
    _at_least(args.seed, 0, "--seed")
    _at_least(args.runs, 2, "--runs")
    _at_least(args.workers, 1, "--workers")
    _at_least(args.oracle_guard, 0, "--oracle-guard")
    g = _load_graph(args)
    v = _pick_node(g, args)
    report = run_experiment(
        g,
        v,
        args.mode,
        budget,
        runs=args.runs,
        seed=args.seed,
        workers=args.workers,
        oracle_guard=args.oracle_guard,
        with_timings=args.with_timings,
    )
    if report.exact is None:
        print(
            "oracle guard exceeded; emitting estimation-only report",
            file=sys.stderr,
        )
    node = g.to_original(v)
    payload = report.to_dict()
    payload["node"] = node
    exact, err = report.exact or {}, report.nrmse or {}
    rows = [
        [node, report.mode, i, mean, exact.get(i), err.get(i)]
        for i, mean in sorted(report.mean_estimates.items())
    ]
    header = ["node", "mode", "orbit", "mean_estimate", "exact", "nrmse"]
    _emit(args, payload, header, rows)
    return EXIT_OK


def _cmd_orbit_table(args) -> int:
    table = orbit_table()
    rows, lines = [], ["orbit  class        codes    unorbit"]
    for row in table:
        orbit, cls, unorbit = row["orbit"], row["class"], row["unorbit"]
        rows.append([orbit, cls, " ".join(map(str, row["codes"])), unorbit])
        codes = ",".join(map(str, row["codes"]))
        lines.append(f"{orbit:>5}  {cls:<11}  {codes:<7}  {unorbit}")
    header = ["orbit", "class", "codes", "unorbit"]
    _emit(args, table, header, rows, text="\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "estimate": _cmd_estimate,
    "exact": _cmd_exact,
    "evaluate": _cmd_evaluate,
    "orbit-table": _cmd_orbit_table,
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
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
