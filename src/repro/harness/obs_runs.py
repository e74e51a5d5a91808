"""Instrumented experiment runs for ``repro trace`` / ``repro metrics``.

Each entry in :data:`INSTRUMENTED` is one canonical workload that can be
run with a telemetry hub attached; its protocol log folds into the
metrics registry, a Perfetto trace, the per-rank MPI profile and the
message spans behind ``repro explain``.  These are the
paper's synthetic/application workloads at smoke-test sizes — big enough
to exercise every microphase, small enough to trace interactively.

Usage::

    run = run_instrumented("fig8", n_ranks=8)
    run.obs.perfetto.save("trace.json")
    print(run.obs.registry.render())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..apps import (
    barrier_benchmark,
    nearest_neighbor_benchmark,
    sage,
    sweep3d_blocking,
)
from ..bcs import BcsConfig
from ..obs import Observability
from ..units import kib, ms
from .runner import RunResult, run_workload

#: name -> (app, default params).  Synthetic runs skip the 1.2 s init
#: phase so the trace starts at the first interesting slice.
INSTRUMENTED: Dict[str, Tuple[object, dict]] = {
    "fig8": (barrier_benchmark, dict(granularity=ms(2), iterations=5)),
    "fig8-p2p": (
        nearest_neighbor_benchmark,
        dict(granularity=ms(2), iterations=5, message_bytes=kib(64)),
    ),
    "sage": (sage, dict(steps=3, step_compute=ms(5))),
    "sweep3d": (sweep3d_blocking, dict(octants=2, kblocks=2)),
}


@dataclass
class InstrumentedRun:
    """One instrumented run: the workload result plus its telemetry."""

    result: RunResult
    obs: Observability


def run_instrumented(
    name: str,
    n_ranks: int = 8,
    seed: int = 0,
    params: Optional[dict] = None,
    obs: Optional[Observability] = None,
) -> InstrumentedRun:
    """Run one :data:`INSTRUMENTED` experiment with a telemetry hub
    attached (``obs``, or a fresh one)."""
    try:
        app, default_params = INSTRUMENTED[name]
    except KeyError:
        raise ValueError(
            f"unknown instrumented experiment {name!r}; "
            f"choose from: {', '.join(sorted(INSTRUMENTED))}"
        ) from None
    if obs is None:
        obs = Observability()
    result = run_workload(
        app,
        n_ranks,
        "bcs",
        params=params if params is not None else dict(default_params),
        bcs_config=BcsConfig(init_cost=0),
        seed=seed,
        obs=obs,
    )
    return InstrumentedRun(result=result, obs=obs)


def explain_run(name: str, n_ranks: int = 8, seed: int = 0, top: int = 8):
    """Run one instrumented experiment and extract its blame report.

    Returns ``(run, report)`` where ``report`` is a
    :class:`~repro.obs.critpath.BlameReport` whose category totals sum
    to the run's virtual makespan exactly.
    """
    from ..obs.critpath import critical_path

    run = run_instrumented(name, n_ranks=n_ranks, seed=seed)
    report = critical_path(run.obs.spans, makespan_ns=run.result.runtime_ns, top=top)
    return run, report


#: Blame-share columns recorded per critpath farm point (and mirrored
#: into the trend store via ``Family.trend_columns``).
CRITPATH_COLUMNS = (
    "compute_pct",
    "dem_pct",
    "msm_pct",
    "p2p_pct",
    "coll_pct",
    "wait_pct",
)


def critpath_point(experiment: str, n_ranks: int = 8, seed: int = 0) -> dict:
    """One critical-path farm point: the blame composition of one run.

    Pure function of its parameters (content-addressed by the farm);
    shares are percentages of the run's virtual makespan, grouped so
    gating catches DEM/MSM/transmission composition shifts.
    """
    _run, report = explain_run(experiment, n_ranks=n_ranks, seed=seed)
    makespan = report.makespan_ns or 1

    def pct(*cats: str) -> float:
        return round(
            100.0 * sum(report.categories_ns.get(c, 0) for c in cats) / makespan, 3
        )

    return {
        "experiment": experiment,
        "ranks": n_ranks,
        "makespan_ns": report.makespan_ns,
        "compute_pct": pct("compute"),
        "dem_pct": pct("post_wait", "DEM"),
        "msm_pct": pct("MSM"),
        "p2p_pct": pct("P2P"),
        "coll_pct": pct("BBM", "RM"),
        "wait_pct": pct("launch_wait", "restart_wait", "wait_other"),
        "hops": report.n_hops,
    }
