"""``repro farm`` — the parallel experiment-execution subcommand family.

::

    repro farm figures -j 4                 # all paper tables/figures
    repro farm figures fig8a table2 -j 2    # a subset
    repro farm figures --preset smoke       # reduced CI configuration
    repro farm figures --no-cache           # force re-execution
    repro farm list                         # families and point counts
    repro farm list --cached --limit 20     # page through the result store
    repro farm metrics                      # last run's farm telemetry
    repro farm clean                        # drop the result store

Exit codes: 0 = all points ok, 1 = some points failed, 3 =
``--expect-cached`` was given but points had to execute.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..harness.report import print_table
from .points import (
    ANALYSIS_FAMILIES,
    EXTENSION_FAMILIES,
    FAMILIES,
    FIGURE_FAMILIES,
    PRESETS,
    SCALING_FAMILIES,
)
from .service import FarmReport, run_farm
from .store import ResultStore, default_store_path

__all__ = ["main"]


def _checked(convert, ok, requirement: str):
    """An argparse ``type=`` that rejects values failing ``ok`` (exit 2)."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro farm",
        description="Parallel, cached execution of the paper's experiment points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser(
        "figures", help="regenerate tables/figures through the worker farm"
    )
    figures.add_argument(
        "families",
        nargs="*",
        metavar="FAMILY",
        help=f"families to run (default: all of {', '.join(FIGURE_FAMILIES)})",
    )
    figures.add_argument(
        "-j",
        "--jobs",
        type=_checked(int, lambda v: v >= 1, ">= 1"),
        default=4,
        help="worker processes (default 4)",
    )
    figures.add_argument(
        "--preset",
        choices=PRESETS,
        default="paper",
        help="point-set preset: 'paper' (full tables) or 'smoke' (reduced CI set)",
    )
    figures.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the result store; execute every point",
    )
    figures.add_argument(
        "--store", metavar="PATH", default=None, help="result store directory"
    )
    figures.add_argument(
        "--extensions",
        action="store_true",
        help=f"also run the extension families ({', '.join(EXTENSION_FAMILIES)})",
    )
    figures.add_argument(
        "--trend-store",
        metavar="PATH",
        default=None,
        help="append this run's per-family durations to a cross-run trend "
        "store (see docs/TRENDS.md; REPRO_TREND_RECORD=1 enables the default store)",
    )
    figures.add_argument(
        "--timeout",
        type=_checked(float, lambda v: v > 0, "> 0"),
        default=600.0,
        metavar="S",
        help="per-point wall-clock timeout in seconds (default 600)",
    )
    figures.add_argument(
        "--retries",
        type=_checked(int, lambda v: v >= 0, ">= 0"),
        default=1,
        metavar="N",
        help="extra attempts after a timeout/crash (default 1)",
    )
    figures.add_argument(
        "--save",
        metavar="PATH",
        default=None,
        help="also write every family's rows as JSON",
    )
    figures.add_argument(
        "--metrics",
        action="store_true",
        help="print the farm metrics report after the tables",
    )
    figures.add_argument(
        "--expect-cached",
        action="store_true",
        help="fail (exit 3) if any point had to execute — CI cache check",
    )
    figures.add_argument(
        "--no-progress", action="store_true", help="suppress the progress line"
    )

    lst = sub.add_parser("list", help="list point families and their sizes")
    lst.add_argument("--preset", choices=PRESETS, default="paper")
    lst.add_argument(
        "--cached",
        action="store_true",
        help="list the result store's cached point records instead",
    )
    lst.add_argument(
        "--store", metavar="PATH", default=None, help="result store directory"
    )
    lst.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="print at most N rows (default: all)",
    )
    lst.add_argument(
        "--offset",
        type=int,
        default=0,
        metavar="N",
        help="skip the first N rows (default 0)",
    )

    metrics = sub.add_parser("metrics", help="print the last farm run's telemetry")
    metrics.add_argument("--store", metavar="PATH", default=None)

    clean = sub.add_parser("clean", help="delete every cached point result")
    clean.add_argument("--store", metavar="PATH", default=None)

    return parser


def _store_from(args) -> ResultStore:
    path = Path(args.store) if args.store else default_store_path()
    return ResultStore(path)


def _print_report_tables(report: FarmReport, save: Optional[str]) -> None:
    collected = {}
    for family in report.families:
        rows = family.rows
        collected[family.title] = rows
        if not rows:
            print(f"\n== {family.title} == (no rows)")
            continue
        headers = list(rows[0].keys())
        print_table(family.title, headers, [[row[h] for h in headers] for row in rows])
    if save:
        with open(save, "w") as fh:
            json.dump(collected, fh, indent=2, default=str)
        print(f"\nsaved {len(collected)} experiment(s) to {save}")


def _print_failures(report: FarmReport) -> None:
    for outcome in report.failures():
        last_line = ((outcome.error or "").strip().splitlines() or ["?"])[-1]
        print(
            f"[farm] FAILED {outcome.spec.label()} "
            f"after {outcome.attempts} attempt(s): {last_line}",
            file=sys.stderr,
        )


def cmd_figures(args) -> int:
    wanted = list(args.families) or list(FIGURE_FAMILIES)
    if args.extensions:
        wanted += [f for f in EXTENSION_FAMILIES if f not in wanted]
    unknown = [f for f in wanted if f not in FAMILIES]
    if unknown:
        print(f"unknown family(ies): {', '.join(unknown)}", file=sys.stderr)
        print(
            "choose from: "
            + ", ".join(
                FIGURE_FAMILIES
                + EXTENSION_FAMILIES
                + SCALING_FAMILIES
                + ANALYSIS_FAMILIES
            ),
            file=sys.stderr,
        )
        return 2
    trend_store = None
    if args.trend_store:
        from ..obs.trends import TrendStore

        trend_store = TrendStore(Path(args.trend_store))
    report = run_farm(
        families=wanted,
        preset=args.preset,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        store=_store_from(args),
        timeout_s=args.timeout,
        retries=args.retries,
        progress=not args.no_progress,
        trend_store=trend_store,
    )
    _print_report_tables(report, args.save)
    if args.metrics:
        print("\n== farm metrics ==")
        print(report.registry.render())
    _print_failures(report)
    print(f"\n{report.summary_line()}")
    if args.expect_cached and report.n_executed > 0:
        print(
            f"[farm] expected a fully cached run but executed "
            f"{report.n_executed} point(s)",
            file=sys.stderr,
        )
        return 3
    return 0 if report.ok else 1


def _paginate(rows: list, limit: Optional[int], offset: int) -> tuple:
    """(page, footnote) — ``--limit/--offset`` over any row list."""
    offset = max(0, offset)
    page = rows[offset:]
    if limit is not None and limit >= 0:
        page = page[:limit]
    shown_to = offset + len(page)
    note = ""
    if not page and rows:
        note = f"--offset {offset} is past the end ({len(rows)} rows)"
    elif offset or shown_to < len(rows):
        note = (
            f"showing {offset + 1}-{shown_to} of {len(rows)} "
            f"(--offset {shown_to} for the next page)"
        )
    return page, note


def cmd_list(args) -> int:
    if args.cached:
        return _cmd_list_cached(args)
    rows = []
    for name in (
        FIGURE_FAMILIES + EXTENSION_FAMILIES + SCALING_FAMILIES + ANALYSIS_FAMILIES
    ):
        specs = FAMILIES[name].specs(
            FAMILIES[name].smoke if args.preset == "smoke" else None
        )
        rows.append([name, len(specs), FAMILIES[name].title])
    total = sum(r[1] for r in rows)
    page, note = _paginate(rows, args.limit, args.offset)
    print_table(
        f"farm families ({args.preset} preset)",
        ["family", "points", "title"],
        page,
    )
    print(f"\n{total} points total" + (f"; {note}" if note else ""))
    return 0


def _cmd_list_cached(args) -> int:
    """``repro farm list --cached``: page through the result store."""
    store = _store_from(args)
    rows = [
        [
            record.get("family", "?"),
            ",".join(
                f"{k}={v}" for k, v in sorted((record.get("params") or {}).items())
            )
            or "-",
            f"{record.get('duration_s', 0.0):.2f}",
            (record.get("key") or "")[:12],
        ]
        for record in store.records()
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    page, note = _paginate(rows, args.limit, args.offset)
    print_table(
        f"cached point records ({store.root})",
        ["family", "params", "dur_s", "key"],
        page,
    )
    print(f"\n{len(rows)} records total" + (f"; {note}" if note else ""))
    return 0


def cmd_metrics(args) -> int:
    last = _store_from(args).load_last_run()
    if last is None:
        print("no farm run recorded in this store yet", file=sys.stderr)
        return 1
    print(
        f"== last farm run: {last.get('points', '?')} points, "
        f"{last.get('cached', '?')} cached, {last.get('executed', '?')} executed, "
        f"{last.get('failed', '?')} failed =="
    )
    hit_rate = last.get("cache_hit_rate")
    if isinstance(hit_rate, (int, float)):
        print(f"cache hit rate: {hit_rate:.1%}")
    render = last.get("metrics_render")
    if render:
        print(render)
    for failure in last.get("failures", []):
        print(
            f"FAILED {failure.get('point')}: {failure.get('error')}",
            file=sys.stderr,
        )
    return 0


def cmd_clean(args) -> int:
    removed = _store_from(args).clear()
    print(f"removed {removed} cached point result(s)")
    return 0


_DISPATCH = {
    "figures": cmd_figures,
    "list": cmd_list,
    "metrics": cmd_metrics,
    "clean": cmd_clean,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    return _DISPATCH[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
