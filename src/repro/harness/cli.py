"""Command-line interface: regenerate any table or figure.

::

    python -m repro.harness.cli table1
    python -m repro.harness.cli fig8a fig8b
    python -m repro.harness.cli table2 --scale 0.1 --apps SAGE IS
    python -m repro.harness.cli fig11 --procs 8 16 32
    python -m repro.harness.cli all

Each command prints the same rows the corresponding paper table/figure
reports (see EXPERIMENTS.md for the expected values).

Observability subcommands (see docs/OBSERVABILITY.md)::

    python -m repro.harness.cli trace fig8 --out trace.json
    python -m repro.harness.cli metrics fig8 --ranks 8
    python -m repro.harness.cli explain fig8 --ranks 8 --json blame.json

``trace`` runs one instrumented experiment and writes a Perfetto
trace-event JSON (open in ui.perfetto.dev); ``metrics`` prints the
slice-level metrics report and the per-rank MPI profile; ``explain``
traces every message through its lifecycle and prints the virtual-time
critical-path blame breakdown (who the makespan waited on, per
microphase / rank / job, plus the longest message chains).  All are
deterministic: two runs with the same seed produce byte-identical
output.

Farm subcommands (see docs/FARM.md)::

    python -m repro.harness.cli farm figures -j 4
    python -m repro.harness.cli farm list

``farm figures`` regenerates the same tables through a parallel,
fault-isolated worker pool with content-addressed result caching; the
rows are byte-identical to the sequential commands above.

Trend subcommands (see docs/TRENDS.md)::

    python -m repro.harness.cli trend record --farm-store .farm-store
    python -m repro.harness.cli trend report
    python -m repro.harness.cli trend check --series 'farm.*'

``trend`` tracks per-family wall-clock performance across runs
(append-only JSONL store, median+MAD regression detection, ASCII
sparklines) and gates CI on per-experiment regressions.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import experiments
from .report import print_table


#: Rows produced during this invocation, keyed by experiment title
#: (collected for --save).
_collected: dict = {}


def _rows_to_table(title: str, rows: List[dict]) -> None:
    _collected[title] = rows
    if not rows:
        print(f"== {title} == (no rows)")
        return
    headers = list(rows[0].keys())
    print_table(title, headers, [[row[h] for h in headers] for row in rows])


def cmd_table1(args) -> None:
    _rows_to_table(
        "Table 1: BCS core mechanisms across networks",
        experiments.table1_rows(),
    )


def cmd_fig8a(args) -> None:
    _rows_to_table(
        "Fig 8(a): barrier benchmark vs granularity",
        experiments.fig8a_barrier_vs_granularity(n_ranks=args.ranks or 62),
    )


def cmd_fig8b(args) -> None:
    _rows_to_table(
        "Fig 8(b): barrier benchmark vs processes",
        experiments.fig8b_barrier_vs_procs(
            proc_counts=args.procs or (4, 8, 16, 32, 48, 62)
        ),
    )


def cmd_fig8c(args) -> None:
    _rows_to_table(
        "Fig 8(c): nearest-neighbour benchmark vs granularity",
        experiments.fig8c_p2p_vs_granularity(n_ranks=args.ranks or 62),
    )


def cmd_fig8d(args) -> None:
    _rows_to_table(
        "Fig 8(d): nearest-neighbour benchmark vs processes",
        experiments.fig8d_p2p_vs_procs(
            proc_counts=args.procs or (4, 8, 16, 32, 48, 62)
        ),
    )


def cmd_table2(args) -> None:
    _rows_to_table(
        "Fig 9 / Table 2: applications",
        experiments.fig9_table2_rows(
            n_ranks=args.ranks, scale=args.scale, apps=args.apps
        ),
    )


def cmd_fig10(args) -> None:
    _rows_to_table(
        "Fig 10: SAGE scaling",
        experiments.fig10_sage_scaling(
            proc_counts=args.procs or (8, 16, 32, 48, 62),
            scale=args.scale if args.scale is not None else 0.02,
        ),
    )


def cmd_fig11(args) -> None:
    _rows_to_table(
        "Fig 11: SWEEP3D blocking vs non-blocking",
        experiments.fig11_sweep3d(proc_counts=args.procs or (8, 16, 32, 48, 62)),
    )


def cmd_ablations(args) -> None:
    _rows_to_table(
        "Ablation: time slice",
        experiments.ablation_timeslice(n_ranks=args.ranks or 16),
    )
    _rows_to_table(
        "Ablation: buffered sends",
        experiments.ablation_buffered_sends(n_ranks=args.ranks or 16),
    )
    _rows_to_table(
        "Ablation: kernel-level BCS",
        experiments.ablation_kernel_level(n_ranks=args.ranks or experiments.FULL_MACHINE),
    )


COMMANDS = {
    "table1": cmd_table1,
    "fig8a": cmd_fig8a,
    "fig8b": cmd_fig8b,
    "fig8c": cmd_fig8c,
    "fig8d": cmd_fig8d,
    "table2": cmd_table2,
    "fig9": cmd_table2,  # alias: Fig 9 and Table 2 share the data
    "fig10": cmd_fig10,
    "fig11": cmd_fig11,
    "ablations": cmd_ablations,
}


# --- observability subcommands -------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_obs_parser(command: str) -> argparse.ArgumentParser:
    """Parser for the ``trace``/``metrics``/``explain`` subcommands."""
    from .obs_runs import INSTRUMENTED

    what = {
        "trace": "export a Perfetto trace (ui.perfetto.dev).",
        "explain": "print the virtual-time critical-path blame breakdown.",
    }.get(command, "print slice metrics and the per-rank MPI profile.")
    parser = argparse.ArgumentParser(
        prog=f"repro {command}",
        description="Run one instrumented experiment and " + what,
    )
    parser.add_argument(
        "experiment",
        choices=sorted(INSTRUMENTED),
        help="instrumented experiment to run",
    )
    parser.add_argument(
        "--ranks", type=_positive_int, default=8, help="process count (default 8)"
    )
    parser.add_argument("--seed", type=int, default=0, help="cluster RNG seed")
    if command == "trace":
        parser.add_argument(
            "--out",
            metavar="PATH",
            default="trace.json",
            help="output trace file (default trace.json)",
        )
    if command == "explain":
        parser.add_argument(
            "--top",
            type=_positive_int,
            default=8,
            help="how many longest message chains to report (default 8)",
        )
        parser.add_argument(
            "--json",
            metavar="PATH",
            default=None,
            help="also write the blame report as canonical JSON",
        )
        parser.add_argument(
            "--trace",
            metavar="PATH",
            default=None,
            help="also write the Perfetto trace (with message flow arrows)",
        )
    return parser


def cmd_trace(argv: List[str]) -> int:
    """``repro trace <experiment> --out trace.json``"""
    args = build_obs_parser("trace").parse_args(argv)
    from .obs_runs import run_instrumented

    run = run_instrumented(args.experiment, n_ranks=args.ranks, seed=args.seed)
    try:
        run.obs.perfetto.save(args.out)
    except OSError as exc:
        print(f"repro trace: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(
        f"{args.experiment}: {run.result.runtime_ns} ns simulated, "
        f"{run.obs.perfetto.n_events} trace events -> {args.out}"
    )
    print("open in https://ui.perfetto.dev (or chrome://tracing)")
    return 0


def cmd_metrics(argv: List[str]) -> int:
    """``repro metrics <experiment>``"""
    args = build_obs_parser("metrics").parse_args(argv)
    from .obs_runs import run_instrumented
    from .report import metrics_report

    run = run_instrumented(args.experiment, n_ranks=args.ranks, seed=args.seed)
    print(
        f"== {args.experiment}: {run.result.n_ranks} ranks, "
        f"{run.result.runtime_ns} ns simulated ==\n"
    )
    print(metrics_report(run.obs))
    print("\n== MPI profile ==")
    print(run.obs.profiler.report())
    return 0


def cmd_explain(argv: List[str]) -> int:
    """``repro explain <experiment> [--json blame.json] [--trace t.json]``"""
    args = build_obs_parser("explain").parse_args(argv)
    from ..obs.critpath import blame_payload, render_blame, to_json_bytes
    from .obs_runs import explain_run

    run, report = explain_run(
        args.experiment, n_ranks=args.ranks, seed=args.seed, top=args.top
    )
    title = (
        f"{args.experiment}: {run.result.n_ranks} ranks, "
        f"{run.result.runtime_ns} ns simulated"
    )
    print(render_blame(report, title))
    payload = to_json_bytes(
        blame_payload(
            report, experiment=args.experiment, ranks=args.ranks, seed=args.seed
        )
    )
    try:
        if args.json is not None:
            with open(args.json, "wb") as fh:
                fh.write(payload)
            print(f"blame report -> {args.json}")
        if args.trace is not None:
            run.obs.perfetto.save(args.trace)
            print(f"trace with flow arrows -> {args.trace}")
    except OSError as exc:
        print(f"repro explain: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_farm(argv: List[str]) -> int:
    """``repro farm figures|list|metrics|clean ...`` (see docs/FARM.md)."""
    from ..farm.cli import main as farm_main

    return farm_main(list(argv))


def cmd_trend(argv: List[str]) -> int:
    """``repro trend record|report|check|chart|list ...`` (see docs/TRENDS.md)."""
    from ..obs.trends.cli import main as trend_main

    return trend_main(list(argv))


#: Subcommands with their own argument structure (dispatched before the
#: experiment parser so ``repro table1 fig8a`` keeps working unchanged).
OBS_COMMANDS = {
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "explain": cmd_explain,
    "farm": cmd_farm,
    "trend": cmd_trend,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the BCS-MPI paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help=f"one or more of: {', '.join(sorted(COMMANDS))}, all",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="application scale factor (default: per-experiment; 1.0 = full size)",
    )
    parser.add_argument(
        "--ranks", type=int, default=None, help="override the process count"
    )
    parser.add_argument(
        "--procs",
        type=int,
        nargs="+",
        default=None,
        help="process counts for scaling figures (fig10/fig11)",
    )
    parser.add_argument(
        "--apps",
        nargs="+",
        default=None,
        help="restrict table2 to these applications (e.g. SAGE IS LU)",
    )
    parser.add_argument(
        "--save",
        metavar="PATH",
        default=None,
        help="also write the rows of every experiment run as JSON",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:  # pragma: no cover - interactive entry
        argv = sys.argv[1:]
    if argv and argv[0] in OBS_COMMANDS:
        return OBS_COMMANDS[argv[0]](list(argv[1:]))
    args = build_parser().parse_args(argv)
    wanted = list(args.experiments)
    if "all" in wanted:
        wanted = list(COMMANDS)
    unknown = [w for w in wanted if w not in COMMANDS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {', '.join(sorted(COMMANDS))}, all", file=sys.stderr)
        return 2
    _collected.clear()
    seen = set()
    for name in wanted:
        fn = COMMANDS[name]
        if fn in seen:
            continue
        seen.add(fn)
        fn(args)
    if args.save:
        import json

        with open(args.save, "w") as fh:
            json.dump(_collected, fh, indent=2, default=str)
        print(f"\nsaved {len(_collected)} experiment(s) to {args.save}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
