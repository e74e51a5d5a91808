"""Command-line interface: regenerate any table or figure.

::

    python -m repro.harness.cli table1
    python -m repro.harness.cli fig8a fig8b
    python -m repro.harness.cli table2 --scale 0.1 --apps SAGE IS
    python -m repro.harness.cli fig11 --procs 8 16 32
    python -m repro.harness.cli all

Each command runs the points of its figure's family
(:mod:`repro.farm.points`) in-process and prints the rows the paper
table/figure reports (see EXPERIMENTS.md for the expected values).
``--ranks``, ``--procs``, ``--scale`` and ``--apps`` override the
options of every family whose sweep takes them.  A family run without
overrides is its paper point set, held to the figure's shape check: a
failed check exits 1 and names the family.

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
rows are byte-identical to the in-process commands above.

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
import inspect
import math
import sys
from typing import List, Optional

from ..farm.points import FAMILIES, FIGURE_FAMILIES, check_family, execute_point, expand_family
from .experiments import APP_EXPERIMENTS
from .report import print_rows, save_rows

#: Experiment commands and the point families each runs, in ``repro
#: all`` order (see :mod:`repro.farm.points`).
COMMANDS = {name: (name,) for name in FIGURE_FAMILIES if not name.startswith("ablation_")}
COMMANDS["fig9"] = ("table2",)  # alias: Fig 9 and Table 2 share the data
COMMANDS["ablations"] = tuple(n for n in FIGURE_FAMILIES if n.startswith("ablation_"))

#: Experiment flags and the expander option each one overrides, for
#: every family whose expander takes that option.
FLAG_OPTIONS = {"ranks": "n_ranks", "procs": "proc_counts", "scale": "scale", "apps": "apps"}

#: Rows produced during this invocation, keyed by experiment title
#: (collected for --save).
_collected: dict = {}


def _overrides(family: str, args) -> dict:
    options = inspect.signature(FAMILIES[family].expand).parameters
    return {
        option: getattr(args, flag)
        for flag, option in FLAG_OPTIONS.items()
        if getattr(args, flag) is not None and option in options
    }


def _run_family(family: str, args) -> Optional[str]:
    """Run one family's points in-process and print its table.

    Returns the family's check failure, or None.  Only the paper point
    set is checked: a run whose flags override the family's options
    prints its rows unchecked.
    """
    overrides = _overrides(family, args)
    rows = [
        execute_point(spec.family, spec.params_dict)
        for spec in expand_family(family, "paper", overrides)
    ]
    _collected[FAMILIES[family].title] = rows
    print_rows(FAMILIES[family].title, rows)
    return None if overrides else check_family(family, rows)


def checked(convert, ok, requirement: str):
    """An argparse ``type=`` that rejects values failing ``ok`` (exit 2)."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in errors
    return parse


_positive_int = checked(int, lambda v: v >= 1, ">= 1")


# --- observability subcommands -------------------------------------------------


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
        type=checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0"),
        default=None,
        help="application scale factor (default: per-experiment; 1.0 = full size)",
    )
    parser.add_argument(
        "--ranks", type=_positive_int, default=None, help="override the process count"
    )
    parser.add_argument(
        "--procs",
        type=_positive_int,
        nargs="+",
        default=None,
        help="process counts for scaling figures (fig10/fig11)",
    )
    parser.add_argument(
        "--apps",
        nargs="+",
        choices=list(APP_EXPERIMENTS),
        default=None,
        metavar="APP",
        help=f"restrict table2 to these applications ({', '.join(APP_EXPERIMENTS)})",
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
    wanted = list(COMMANDS) if "all" in args.experiments else args.experiments
    unknown = [w for w in wanted if w not in COMMANDS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {', '.join(sorted(COMMANDS))}, all", file=sys.stderr)
        return 2
    _collected.clear()
    families = dict.fromkeys(f for name in wanted for f in COMMANDS[name])
    failures = [f for f in (_run_family(name, args) for name in families) if f]
    if args.save:
        save_rows(_collected, args.save)
    for failure in failures:
        print(f"repro: CHECK FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
