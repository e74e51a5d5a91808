"""Extension experiments beyond the paper's evaluation, as farm points.

Three studies extend §5 and previously lived only as sequential benches
(``benchmarks/bench_ft_extension.py``, ``benchmarks/bench_pfs_qos.py``,
and the noise-coordination ablation in ``bench_ablations.py``):

- **NPB FT** — the kernel the paper could not run (no MPI groups,
  §4.5); this implementation supports communicator splitting, so FT's
  global transpose completes the NAS picture;
- **PFS QoS** — the §1 motivation quantified: parallel-file-system
  background traffic under the global BCS schedule vs an uncoordinated
  baseline;
- **noise coordination** — coordinated vs uncoordinated OS daemons on
  a fine-grained barrier code (§1 / [20]).

Each ``<family>_point`` function computes exactly one row from
JSON-safe scalar parameters, so :mod:`repro.farm.points` can register
the studies as point families: the full extension matrix rides the
content-addressed cache and feeds the cross-run trend store, and the
benches become thin assertions over the same rows.
"""

from __future__ import annotations

from typing import Optional

from ..apps import barrier_benchmark, nearest_neighbor_benchmark
from ..apps.nas import NAS_APPS
from ..bcs import BcsConfig, BcsRuntime
from ..mpi.baseline import BaselineConfig, BaselineRuntime
from ..network import Cluster, ClusterSpec
from ..noise import NoiseConfig
from ..pfs import PfsService, UncoordinatedPfs
from ..storm import JobSpec
from ..units import kib, ms, seconds
from .runner import compare_backends, run_workload

__all__ = [
    "NOISE_SCENARIOS",
    "PFS_SCHEDULERS",
    "ext_ft_point",
    "ext_noise_point",
    "ext_pfs_point",
]


# --- NPB FT ------------------------------------------------------------------


def ext_ft_point(n_ranks: int = 32, iterations: int = 3, grid_points: int = 256) -> dict:
    """One FT extension row: the transpose-heavy kernel on both backends."""
    comparison = compare_backends(
        NAS_APPS["FT"],
        n_ranks,
        params=dict(iterations=iterations, grid_points=grid_points),
        bcs_config=BcsConfig(init_cost=seconds(0.12)),
        baseline_config=BaselineConfig(init_cost=seconds(0.015)),
        name="FT",
    )
    return {
        "n_ranks": n_ranks,
        "baseline_s": comparison.baseline.runtime_s,
        "bcs_s": comparison.bcs.runtime_s,
        "slowdown_pct": comparison.slowdown_pct,
        # The transpose really moves matching data flow on both backends.
        "results_match": comparison.bcs.results == comparison.baseline.results,
    }


# --- PFS QoS -----------------------------------------------------------------


#: Scheduler variants in row order.
PFS_SCHEDULERS = ("bcs", "baseline")


def ext_pfs_point(
    scheduler: str,
    with_pfs: bool,
    n_ranks: int = 16,
    pfs_files: int = 24,
    pfs_file_kib: int = 4096,
    granularity_ms: float = 3,
    iterations: int = 12,
    message_kib: int = 4,
) -> dict:
    """One QoS row: the latency-sensitive app with/without PFS traffic.

    Under BCS the PFS stripes are system-class matches that only get
    the link budget user messages leave over; under the uncoordinated
    baseline they contend head-of-line on the same links.
    """
    if scheduler not in PFS_SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}; choose from {PFS_SCHEDULERS}")
    cluster = Cluster(ClusterSpec(n_nodes=n_ranks // 2))
    io_nodes = list(range(n_ranks // 2))
    if scheduler == "bcs":
        runtime = BcsRuntime(cluster, BcsConfig(init_cost=0))
        pfs = PfsService(runtime, io_nodes=io_nodes) if with_pfs else None
    else:
        runtime = BaselineRuntime(cluster, BaselineConfig(init_cost=0))
        pfs = UncoordinatedPfs(cluster, io_nodes=io_nodes) if with_pfs else None
    if pfs is not None:

        def writer():
            for i in range(pfs_files):
                pfs.write(i % len(io_nodes), f"f{i}", pfs_file_kib * 1024)
                yield cluster.env.timeout(ms(4))

        cluster.env.process(writer(), name="pfs.bg")

    job = runtime.run_job(
        JobSpec(
            app=nearest_neighbor_benchmark,
            n_ranks=n_ranks,
            params=dict(
                granularity=ms(granularity_ms),
                iterations=iterations,
                message_bytes=kib(message_kib),
            ),
        ),
        max_time=seconds(120),
    )
    return {
        "scheduler": scheduler,
        "with_pfs": with_pfs,
        "runtime_s": job.runtime / 1e9,
    }


# --- noise coordination ------------------------------------------------------


#: Noise scenarios in row order.
NOISE_SCENARIOS = ("quiet", "uncoordinated", "coordinated")


def ext_noise_point(
    scenario: str,
    n_ranks: int = 32,
    granularity_ms: float = 2,
    iterations: int = 30,
    period_ms: float = 20,
    duration_ms: float = 2,
    seed: int = 7,
) -> dict:
    """One noise row: a fine-grained barrier code under one daemon regime."""
    if scenario not in NOISE_SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose from {NOISE_SCENARIOS}")
    noise: Optional[NoiseConfig] = None
    if scenario != "quiet":
        noise = NoiseConfig(
            period=ms(period_ms),
            duration=ms(duration_ms),
            coordinated=(scenario == "coordinated"),
        )
    result = run_workload(
        barrier_benchmark,
        n_ranks,
        "baseline",
        params=dict(granularity=ms(granularity_ms), iterations=iterations, jitter=0.0),
        baseline_config=BaselineConfig(init_cost=0),
        noise=noise,
        seed=seed,
    )
    return {"scenario": scenario, "runtime_s": result.runtime_ns / 1e9}
