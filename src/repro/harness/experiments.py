"""Per-figure/table point functions (the paper's evaluation, §5).

Each ``<family>_point`` function computes one row of one table or
figure from JSON-safe scalar parameters.  :mod:`repro.farm.points`
registers them as point families, which own each figure's sweep, title
and shape check; ``repro <figure>`` and ``repro farm figures`` both run
them through it.  ``scale`` shrinks iteration counts (and,
proportionally, the one-time runtime-initialization costs, so the
init/runtime ratio that drives the IS and EP results is preserved) —
see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..apps import (
    barrier_benchmark,
    nearest_neighbor_benchmark,
    sage,
    sweep3d_blocking,
    sweep3d_nonblocking,
)
from ..apps.nas import NAS_APPS
from ..bcs import BcsConfig
from ..core import BcsCore
from ..mpi.baseline import BaselineConfig
from ..network import Cluster, ClusterSpec, by_name
from ..units import MiB, kib, ms, seconds, to_us, us
from .runner import Comparison, compare_backends

#: The paper's full-machine process count (31 dual-CPU nodes).
FULL_MACHINE = 62

#: Paper-reported values, for side-by-side reporting (Table 2).
PAPER_TABLE2 = {
    "SAGE": -0.42,
    "SWEEP3D": -2.23,
    "IS": 10.14,
    "EP": 5.35,
    "MG": 4.37,
    "CG": 10.83,
    "LU": 15.04,
}


def _synthetic_configs():
    # Synthetic benchmarks measure the loop only (no init phase).
    return BcsConfig(init_cost=0), BaselineConfig(init_cost=0)


# --- Table 1 -----------------------------------------------------------------


def table1_point(network: str, nodes: int, payload: int = 1 * MiB) -> dict:
    """One Table 1 row: CaW latency + XaS bandwidth on one (network, n)."""
    cluster = Cluster(ClusterSpec(n_nodes=nodes, model=by_name(network)))
    core = BcsCore(cluster)

    def caw():
        t0 = cluster.env.now
        yield from core.compare_and_write(
            cluster.management_node.id, range(nodes), "x", "==", None
        )
        return cluster.env.now - t0

    caw_ns = cluster.run(until=cluster.env.process(caw()))

    def mcast():
        t0 = cluster.env.now
        core.xfer_and_signal(
            cluster.management_node.id,
            range(nodes),
            size=payload,
            local_event="done",
        )
        yield from core.test_event(cluster.management_node.id, "done")
        return cluster.env.now - t0

    mcast_ns = cluster.run(until=cluster.env.process(mcast()))
    aggregate_mb_s = (payload * nodes) / (mcast_ns / 1e9) / 1e6
    return {
        "network": network,
        "nodes": nodes,
        "caw_us": to_us(caw_ns),
        "xfer_aggregate_mb_s": aggregate_mb_s,
        "xfer_mb_s_per_node": aggregate_mb_s / nodes,
    }


# --- Figure 8 ---------------------------------------------------------------------


def fig8a_point(
    granularity_ms: float, n_ranks: int = FULL_MACHINE, iterations: int = 15
) -> dict:
    """One Fig 8a row: barrier slowdown at one granularity."""
    bc, bl = _synthetic_configs()
    comparison = compare_backends(
        barrier_benchmark,
        n_ranks,
        params=dict(granularity=ms(granularity_ms), iterations=iterations),
        bcs_config=bc,
        baseline_config=bl,
        name="barrier",
    )
    return _point("granularity_ms", granularity_ms, comparison)


def fig8b_point(
    processes: int, granularity_ms: float = 10, iterations: int = 15
) -> dict:
    """One Fig 8b row: barrier slowdown at one process count."""
    bc, bl = _synthetic_configs()
    comparison = compare_backends(
        barrier_benchmark,
        processes,
        params=dict(granularity=ms(granularity_ms), iterations=iterations),
        bcs_config=bc,
        baseline_config=bl,
        name="barrier",
    )
    return _point("processes", processes, comparison)


def fig8c_point(
    granularity_ms: float, n_ranks: int = FULL_MACHINE, iterations: int = 15
) -> dict:
    """One Fig 8c row: nearest-neighbour slowdown at one granularity."""
    bc, bl = _synthetic_configs()
    comparison = compare_backends(
        nearest_neighbor_benchmark,
        n_ranks,
        params=dict(
            granularity=ms(granularity_ms),
            iterations=iterations,
            n_neighbors=4,
            message_bytes=kib(4),
        ),
        bcs_config=bc,
        baseline_config=bl,
        name="p2p",
    )
    return _point("granularity_ms", granularity_ms, comparison)


def fig8d_point(
    processes: int, granularity_ms: float = 10, iterations: int = 15
) -> dict:
    """One Fig 8d row: nearest-neighbour slowdown at one process count."""
    bc, bl = _synthetic_configs()
    comparison = compare_backends(
        nearest_neighbor_benchmark,
        processes,
        params=dict(
            granularity=ms(granularity_ms),
            iterations=iterations,
            n_neighbors=4,
            message_bytes=kib(4),
        ),
        bcs_config=bc,
        baseline_config=bl,
        name="p2p",
    )
    return _point("processes", processes, comparison)


# --- Figure 9 / Table 2 ------------------------------------------------------------


@dataclass(frozen=True)
class AppExperiment:
    """One application row of Fig 9 / Table 2."""

    name: str
    app: object
    #: params for scale=1.0 (the class-C-like / full-input problem).
    full_params: dict
    #: which params shrink with scale (iteration-like counts).
    scaled_params: tuple
    #: scale of the paper point set (keeps event counts tractable while
    #: preserving per-iteration structure and the init/runtime ratio).
    default_scale: float = 0.25
    #: default process count.  The NPB 2.4 kernels require power-of-two
    #: process counts, so the paper's NAS rows are 32-process runs; only
    #: SAGE and SWEEP3D use the full 62-process machine.
    n_ranks: int = 32


APP_EXPERIMENTS: Dict[str, AppExperiment] = {
    "SAGE": AppExperiment(
        "SAGE", sage, dict(steps=1200), ("steps",), default_scale=0.05,
        n_ranks=FULL_MACHINE,
    ),
    "SWEEP3D": AppExperiment(
        "SWEEP3D",
        sweep3d_nonblocking,
        dict(octants=4096, kblocks=4),
        ("octants",),
        default_scale=0.02,
        n_ranks=FULL_MACHINE,
    ),
    "IS": AppExperiment(
        "IS",
        NAS_APPS["IS"],
        dict(iterations=11, total_keys=2**27),
        ("iterations",),
        default_scale=0.5,
    ),
    "EP": AppExperiment(
        "EP",
        NAS_APPS["EP"],
        dict(total_compute=seconds(22)),
        ("total_compute",),
        default_scale=0.25,
    ),
    "MG": AppExperiment(
        "MG", NAS_APPS["MG"], dict(iterations=20), ("iterations",), default_scale=0.25
    ),
    "CG": AppExperiment(
        "CG",
        NAS_APPS["CG"],
        dict(outer_iterations=75, inner_iterations=25),
        ("outer_iterations",),
        default_scale=0.1,
    ),
    "LU": AppExperiment(
        "LU",
        NAS_APPS["LU"],
        dict(iterations=250, kblocks=16),
        ("iterations",),
        default_scale=0.04,
    ),
}

#: Full-scale runtime-initialization costs (see DESIGN.md §7).
BCS_INIT_FULL = seconds(1.2)
BASELINE_INIT_FULL = seconds(0.15)


def run_app_experiment(
    name: str,
    n_ranks: Optional[int] = None,
    scale: Optional[float] = None,
) -> Comparison:
    """Run one Fig 9 / Table 2 application at the given scale.

    Iteration-like parameters *and* the one-time init costs shrink by
    ``scale`` together, preserving the init/runtime ratio that drives
    the IS and EP slowdowns.  ``scale=None`` uses the experiment's
    tractable default; ``n_ranks=None`` uses the paper's size for that
    application (62 for SAGE/SWEEP3D, 32 for the NPB kernels).
    """
    exp = APP_EXPERIMENTS[name]
    if scale is None:
        scale = exp.default_scale
    if n_ranks is None:
        n_ranks = exp.n_ranks
    params = dict(exp.full_params)
    for key in exp.scaled_params:
        params[key] = max(int(round(params[key] * scale)), 1)
    bc = BcsConfig(init_cost=int(BCS_INIT_FULL * scale))
    bl = BaselineConfig(init_cost=int(BASELINE_INIT_FULL * scale))
    return compare_backends(
        exp.app,
        n_ranks,
        params=params,
        bcs_config=bc,
        baseline_config=bl,
        name=name,
    )


def table2_point(
    app: str,
    n_ranks: Optional[int] = None,
    scale: Optional[float] = None,
) -> dict:
    """One Fig 9 / Table 2 row: one application vs the paper's number."""
    comparison = run_app_experiment(app, n_ranks, scale)
    return {
        "app": app,
        "baseline_s": comparison.baseline.runtime_s,
        "bcs_s": comparison.bcs.runtime_s,
        "slowdown_pct": comparison.slowdown_pct,
        "paper_slowdown_pct": PAPER_TABLE2.get(app),
    }


# --- Figure 10 -----------------------------------------------------------------------


def fig10_point(processes: int, scale: Optional[float] = 0.02) -> dict:
    """One Fig 10 row: SAGE at one process count."""
    comparison = run_app_experiment("SAGE", processes, scale)
    return _point("processes", processes, comparison)


# --- Figure 11 ------------------------------------------------------------------------


def fig11_point(
    processes: int, variant: str, octants: int = 4, kblocks: int = 4
) -> dict:
    """One Fig 11 row: SWEEP3D, one variant, one process count."""
    app = {"blocking": sweep3d_blocking, "nonblocking": sweep3d_nonblocking}[variant]
    bc, bl = _synthetic_configs()
    comparison = compare_backends(
        app,
        processes,
        params=dict(octants=octants, kblocks=kblocks),
        bcs_config=bc,
        baseline_config=bl,
        name=f"sweep3d_{variant}",
    )
    row = _point("processes", processes, comparison)
    row["variant"] = variant
    return row


# --- Ablations (design choices; DESIGN.md §6) -----------------------------------


def ablation_timeslice_point(timeslice_us: float, n_ranks: int = 16) -> dict:
    """One time-slice ablation row: ping-pong cost at one slice length."""
    bc = BcsConfig(
        init_cost=0,
        timeslice=us(timeslice_us),
        dem_min_duration=us(min(65, timeslice_us * 0.13)),
        msm_min_duration=us(min(60, timeslice_us * 0.12)),
    )
    comparison = compare_backends(
        sweep3d_blocking,
        n_ranks,
        params=dict(octants=2, kblocks=4),
        bcs_config=bc,
        baseline_config=BaselineConfig(init_cost=0),
        name="timeslice",
    )
    return _point("timeslice_us", timeslice_us, comparison)


def ablation_kernel_point(
    implementation: str,
    n_ranks: int = FULL_MACHINE,
    granularity_ms: float = 10,
    iterations: int = 15,
) -> dict:
    """One §4.5 ablation row: user-level or kernel-level BCS."""
    bc = {
        "user-level": BcsConfig(init_cost=0),
        "kernel-level": BcsConfig.kernel_level(init_cost=0),
    }[implementation]
    comparison = compare_backends(
        barrier_benchmark,
        n_ranks,
        params=dict(granularity=ms(granularity_ms), iterations=iterations),
        bcs_config=bc,
        baseline_config=BaselineConfig(init_cost=0),
        name="kernel",
    )
    return _point("implementation", implementation, comparison)


def ablation_buffered_point(buffered: bool, n_ranks: int = 16) -> dict:
    """One buffered-sends ablation row."""
    bc = BcsConfig(init_cost=0, buffered_sends=buffered)
    comparison = compare_backends(
        sweep3d_blocking,
        n_ranks,
        params=dict(octants=2, kblocks=4),
        bcs_config=bc,
        baseline_config=BaselineConfig(init_cost=0),
        name="buffered",
    )
    return _point("buffered_sends", buffered, comparison)


def _point(x_name: str, x, comparison: Comparison) -> dict:
    return {
        x_name: x,
        "baseline_s": comparison.baseline.runtime_s,
        "bcs_s": comparison.bcs.runtime_s,
        "slowdown_pct": comparison.slowdown_pct,
    }
