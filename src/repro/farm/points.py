"""The point registry: every figure/table as declarative, hashable points.

A *point* is the smallest independently executable unit of the paper's
evaluation — one (app, backend-pair, ranks, config) tuple producing one
row of one table or figure.  Each :class:`Family` groups the points of
one figure/table and knows how to

- **expand** a family-specific options dict into the ordered list of
  param dicts the sequential generator in
  :mod:`repro.harness.experiments` would iterate over, and
- **execute** one param dict into exactly the row dict that generator
  would append.

Because the sequential generators are themselves comprehensions over
the same ``<family>_point`` functions, a farm run and an in-process run
produce byte-identical rows (asserted by ``tests/farm/test_determinism.py``).

Params must stay JSON-serializable: the canonical JSON encoding of
``(family, params)`` is the point's identity, and — combined with the
code fingerprint — its cache key (see docs/FARM.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..harness import experiments as E
from ..harness import extensions as X
from ..harness import scaling as S
from ..units import MiB

__all__ = [
    "ANALYSIS_FAMILIES",
    "EXTENSION_FAMILIES",
    "FAMILIES",
    "FIGURE_FAMILIES",
    "Family",
    "PointSpec",
    "SCALING_FAMILIES",
    "execute_point",
    "expand_family",
    "family_specs",
]


@dataclass(frozen=True)
class PointSpec:
    """One schedulable point: a family name plus canonical parameters."""

    family: str
    #: position of this point's row within the family's table.
    index: int
    #: canonical (sorted) parameter items; values are JSON-safe scalars.
    params: Tuple[Tuple[str, Any], ...]

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def key(self) -> str:
        """Canonical JSON identity (excludes ``index`` — the row position
        orders output but does not change what the point computes)."""
        return json.dumps(
            {"family": self.family, "params": self.params_dict},
            sort_keys=True,
            separators=(",", ":"),
        )

    def point_hash(self) -> str:
        """Stable content hash of the point's identity."""
        return hashlib.sha256(self.key().encode()).hexdigest()

    def label(self) -> str:
        """Short human-readable id for progress lines and failure reports."""
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}[{inner}]"


def _canonical_params(params: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    # Round-trip through JSON so int/float/bool/str/None params hash the
    # same way regardless of how the expander spelled them.
    encoded = json.loads(json.dumps(dict(params)))
    if encoded != dict(params):
        raise ValueError(f"point params are not JSON-safe: {params!r}")
    return tuple(sorted(encoded.items()))


@dataclass(frozen=True)
class Family:
    """One figure/table: how to enumerate and execute its points."""

    name: str
    #: table title — identical to the one ``repro <name>`` prints.
    title: str
    #: options dict -> ordered list of param dicts (row order).
    expand: Callable[..., List[dict]]
    #: one param dict -> one row dict.
    execute: Callable[..., dict]
    #: option overrides for the reduced ``--preset smoke`` configuration.
    smoke: Mapping[str, Any]
    #: numeric row columns mirrored into the trend store as per-point
    #: gauges (``farm.row.<column>{family=...,point=...}``) so regression
    #: gating can watch row *values*, not just wall-clock durations.
    trend_columns: Tuple[str, ...] = ()

    def specs(self, options: Optional[Mapping[str, Any]] = None) -> List[PointSpec]:
        return [
            PointSpec(self.name, i, _canonical_params(p))
            for i, p in enumerate(self.expand(**dict(options or {})))
        ]


# --- expanders (must mirror the sequential generators' loop order) ----------


def _expand_table1(
    node_counts: Sequence[int] = (2, 4, 8, 16, 32), payload: int = 1 * MiB
) -> List[dict]:
    return [
        dict(network=m, nodes=n, payload=payload)
        for m in E.TABLE1_NETWORKS
        for n in node_counts
    ]


def _expand_fig8_granularity(
    granularities_ms: Sequence[float] = (1, 2, 5, 10, 20, 50),
    n_ranks: int = E.FULL_MACHINE,
    iterations: int = 15,
) -> List[dict]:
    return [
        dict(granularity_ms=g, n_ranks=n_ranks, iterations=iterations)
        for g in granularities_ms
    ]


def _expand_fig8_procs(
    proc_counts: Sequence[int] = (4, 8, 16, 32, 48, 62),
    granularity_ms: float = 10,
    iterations: int = 15,
) -> List[dict]:
    return [
        dict(processes=p, granularity_ms=granularity_ms, iterations=iterations)
        for p in proc_counts
    ]


def _expand_table2(
    apps: Optional[Sequence[str]] = None,
    n_ranks: Optional[int] = None,
    scale: Optional[float] = None,
) -> List[dict]:
    return [
        dict(app=name, n_ranks=n_ranks, scale=scale)
        for name in (apps or E.APP_EXPERIMENTS)
    ]


def _expand_fig10(
    proc_counts: Sequence[int] = (8, 16, 32, 48, 62),
    scale: Optional[float] = 0.02,
) -> List[dict]:
    return [dict(processes=p, scale=scale) for p in proc_counts]


def _expand_fig11(
    proc_counts: Sequence[int] = (8, 16, 32, 48, 62),
    octants: int = 4,
    kblocks: int = 4,
) -> List[dict]:
    return [
        dict(processes=p, variant=v, octants=octants, kblocks=kblocks)
        for p in proc_counts
        for v in E.FIG11_VARIANTS
    ]


def _expand_ablation_timeslice(
    timeslices_us: Sequence[float] = (125, 250, 500, 1000, 2000),
    n_ranks: int = 16,
) -> List[dict]:
    return [dict(timeslice_us=ts, n_ranks=n_ranks) for ts in timeslices_us]


def _expand_ablation_buffered(n_ranks: int = 16) -> List[dict]:
    return [dict(buffered=b, n_ranks=n_ranks) for b in (True, False)]


def _expand_ablation_kernel(
    n_ranks: int = E.FULL_MACHINE,
    granularity_ms: float = 10,
    iterations: int = 15,
) -> List[dict]:
    return [
        dict(
            implementation=label,
            n_ranks=n_ranks,
            granularity_ms=granularity_ms,
            iterations=iterations,
        )
        for label in E.KERNEL_IMPLEMENTATIONS
    ]


# --- extension families (beyond the paper's evaluation) ----------------------


def _expand_ext_ft(
    rank_counts: Sequence[int] = (32,),
    iterations: int = 3,
    grid_points: int = 256,
) -> List[dict]:
    return [
        dict(n_ranks=n, iterations=iterations, grid_points=grid_points)
        for n in rank_counts
    ]


def _expand_ext_pfs_qos(
    schedulers: Sequence[str] = X.PFS_SCHEDULERS,
    n_ranks: int = 16,
    pfs_files: int = 24,
    pfs_file_kib: int = 4096,
    granularity_ms: float = 3,
    iterations: int = 12,
) -> List[dict]:
    return [
        dict(
            scheduler=s,
            with_pfs=w,
            n_ranks=n_ranks,
            pfs_files=pfs_files,
            pfs_file_kib=pfs_file_kib,
            granularity_ms=granularity_ms,
            iterations=iterations,
        )
        for s in schedulers
        for w in (False, True)
    ]


def _expand_ext_noise(
    scenarios: Sequence[str] = X.NOISE_SCENARIOS,
    n_ranks: int = 32,
    granularity_ms: float = 2,
    iterations: int = 30,
) -> List[dict]:
    return [
        dict(
            scenario=s,
            n_ranks=n_ranks,
            granularity_ms=granularity_ms,
            iterations=iterations,
        )
        for s in scenarios
    ]


# --- scaling study (simulator throughput; rows carry wall-clock fields) ------


def _expand_scaling(
    node_counts: Sequence[int] = (1024, 4096, 16384, 65536),
    networks: Sequence[str] = S.SCALING_NETWORKS,
    app: str = "neighbor",
    active_ranks: int = 32,
    iterations: int = 30,
    granularity_us: float = 400.0,
    message_kib: int = 4,
) -> List[dict]:
    return [
        dict(
            network=m,
            n_nodes=n,
            app=app,
            active_ranks=active_ranks,
            iterations=iterations,
            granularity_us=granularity_us,
            message_kib=message_kib,
        )
        for m in networks
        for n in node_counts
    ]


# --- critical-path analysis family (blame composition per run) ---------------


def _expand_critpath(
    experiments: Sequence[str] = ("fig8", "fig8-p2p", "sweep3d"),
    n_ranks: int = 8,
    seed: int = 0,
) -> List[dict]:
    return [
        dict(experiment=e, n_ranks=n_ranks, seed=seed) for e in experiments
    ]


def _execute_critpath(experiment: str, n_ranks: int = 8, seed: int = 0) -> dict:
    # Imported lazily: the critpath analysis pulls in the full
    # observability stack, which plain figure points never need.
    from ..harness.obs_runs import critpath_point

    return critpath_point(experiment, n_ranks=n_ranks, seed=seed)


# --- selftest family (test hook: controllable success/hang/crash) -----------


def _expand_selftest(
    modes: Sequence[str] = ("ok", "ok", "ok", "ok"),
) -> List[dict]:
    return [dict(mode=m, value=i) for i, m in enumerate(modes)]


def _execute_selftest(mode: str = "ok", value: int = 0, sleep_s: float = 0.0) -> dict:
    """Farm test hook: a point that can succeed, error, crash, or hang."""
    if sleep_s:
        time.sleep(sleep_s)
    if mode == "error":
        raise RuntimeError(f"injected point failure (value={value})")
    if mode == "crash":
        os._exit(41)
    if mode == "hang":
        while True:  # wall-clock hang; only the pool's timeout ends this
            time.sleep(60)
    return {"mode": mode, "value": value, "doubled": value * 2}


# --- registry ---------------------------------------------------------------

#: Families of the paper's figures/tables, in ``repro all`` print order.
FIGURE_FAMILIES: Tuple[str, ...] = (
    "table1",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig8d",
    "table2",
    "fig10",
    "fig11",
    "ablation_timeslice",
    "ablation_buffered",
    "ablation_kernel",
)

#: Extension studies beyond the paper's evaluation (FT, PFS QoS, noise
#: coordination — see :mod:`repro.harness.extensions`).  Not part of the
#: default ``repro farm figures`` set; run them by name or with
#: ``--extensions``.
EXTENSION_FAMILIES: Tuple[str, ...] = ("ext_ft", "ext_pfs_qos", "ext_noise")

#: Simulator-throughput studies.  Their rows include *host wall-clock*
#: fields (slices/sec, speedup), so they are deliberately outside the
#: deterministic figure set and never part of ``repro farm figures``
#: defaults; run them by name (``repro farm figures scaling``).
SCALING_FAMILIES: Tuple[str, ...] = ("scaling",)

#: Analysis families: deterministic derived metrics over instrumented
#: runs (critical-path blame composition).  Not in the default figure
#: set; run them by name (``repro farm figures critpath``) — their row
#: columns feed the trend store via ``Family.trend_columns``.
ANALYSIS_FAMILIES: Tuple[str, ...] = ("critpath",)

FAMILIES: Dict[str, Family] = {
    f.name: f
    for f in (
        Family(
            "table1",
            "Table 1: BCS core mechanisms across networks",
            _expand_table1,
            E.table1_point,
            smoke=dict(node_counts=(2, 4)),
        ),
        Family(
            "fig8a",
            "Fig 8(a): barrier benchmark vs granularity",
            _expand_fig8_granularity,
            E.fig8a_point,
            smoke=dict(granularities_ms=(1, 10), n_ranks=8, iterations=5),
        ),
        Family(
            "fig8b",
            "Fig 8(b): barrier benchmark vs processes",
            _expand_fig8_procs,
            E.fig8b_point,
            smoke=dict(proc_counts=(4, 8), iterations=5),
        ),
        Family(
            "fig8c",
            "Fig 8(c): nearest-neighbour benchmark vs granularity",
            _expand_fig8_granularity,
            E.fig8c_point,
            smoke=dict(granularities_ms=(1, 10), n_ranks=8, iterations=5),
        ),
        Family(
            "fig8d",
            "Fig 8(d): nearest-neighbour benchmark vs processes",
            _expand_fig8_procs,
            E.fig8d_point,
            smoke=dict(proc_counts=(4, 8), iterations=5),
        ),
        Family(
            "table2",
            "Fig 9 / Table 2: applications",
            _expand_table2,
            E.table2_point,
            smoke=dict(apps=("EP", "IS"), n_ranks=4, scale=0.05),
        ),
        Family(
            "fig10",
            "Fig 10: SAGE scaling",
            _expand_fig10,
            E.fig10_point,
            smoke=dict(proc_counts=(4, 8), scale=0.01),
        ),
        Family(
            "fig11",
            "Fig 11: SWEEP3D blocking vs non-blocking",
            _expand_fig11,
            E.fig11_point,
            smoke=dict(proc_counts=(4, 8), octants=2, kblocks=2),
        ),
        Family(
            "ablation_timeslice",
            "Ablation: time slice",
            _expand_ablation_timeslice,
            E.ablation_timeslice_point,
            smoke=dict(timeslices_us=(250, 500), n_ranks=4),
        ),
        Family(
            "ablation_buffered",
            "Ablation: buffered sends",
            _expand_ablation_buffered,
            E.ablation_buffered_point,
            smoke=dict(n_ranks=4),
        ),
        Family(
            "ablation_kernel",
            "Ablation: kernel-level BCS",
            _expand_ablation_kernel,
            E.ablation_kernel_point,
            smoke=dict(n_ranks=8, iterations=5),
        ),
        Family(
            "ext_ft",
            "Extension: NPB FT (transpose-heavy kernel)",
            _expand_ext_ft,
            X.ext_ft_point,
            smoke=dict(rank_counts=(8,), iterations=2, grid_points=64),
        ),
        Family(
            "ext_pfs_qos",
            "Extension: PFS background traffic vs a latency-sensitive app",
            _expand_ext_pfs_qos,
            X.ext_pfs_point,
            smoke=dict(n_ranks=8, pfs_files=6, pfs_file_kib=1024, iterations=6),
        ),
        Family(
            "ext_noise",
            "Extension: OS noise coordination on a fine-grained barrier code",
            _expand_ext_noise,
            X.ext_noise_point,
            smoke=dict(n_ranks=8, iterations=8),
        ),
        Family(
            "scaling",
            "Scaling: fast vs reference slice engine, 1k-64k nodes, fat tree vs 3D torus",
            _expand_scaling,
            S.scaling_point,
            smoke=dict(node_counts=(128, 4096), iterations=12),
            trend_columns=(
                "speedup",
                "slices_per_sec",
                "peak_rss_mib",
                "gc_collections",
            ),
        ),
        Family(
            "critpath",
            "Critical path: virtual-time blame composition per experiment",
            _expand_critpath,
            _execute_critpath,
            smoke=dict(experiments=("fig8",)),
            trend_columns=(
                "compute_pct",
                "dem_pct",
                "msm_pct",
                "p2p_pct",
                "coll_pct",
                "wait_pct",
            ),
        ),
        Family(
            "selftest",
            "Farm selftest",
            _expand_selftest,
            _execute_selftest,
            smoke=dict(modes=("ok", "ok")),
        ),
    )
}

#: Named option presets.  "paper" is the sequential generators' defaults;
#: "smoke" is the reduced CI configuration.
PRESETS = ("paper", "smoke")


def expand_family(
    name: str,
    preset: str = "paper",
    overrides: Optional[Mapping[str, Any]] = None,
) -> List[PointSpec]:
    """Ordered :class:`PointSpec` list for one family under a preset."""
    family = FAMILIES[name]
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {PRESETS}")
    options = dict(family.smoke) if preset == "smoke" else {}
    if overrides:
        options.update(overrides)
    return family.specs(options)


def family_specs(
    names: Optional[Sequence[str]] = None,
    preset: str = "paper",
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> Dict[str, List[PointSpec]]:
    """Specs for several families, keyed by family name, in given order.

    ``names=None`` expands every figure family; an empty sequence
    expands none (callers scheduling only explicit extra specs).
    """
    out: Dict[str, List[PointSpec]] = {}
    for name in FIGURE_FAMILIES if names is None else names:
        if name not in FAMILIES:
            raise ValueError(
                f"unknown family {name!r}; choose from: "
                + ", ".join(sorted(FAMILIES))
            )
        out[name] = expand_family(name, preset, (overrides or {}).get(name))
    return out


def execute_point(family: str, params: Mapping[str, Any]) -> dict:
    """Run one point in-process and return its row dict.

    This is the single entry point both the sequential path (indirectly,
    through the ``<family>_point`` functions) and the farm's worker
    children (directly) go through.
    """
    try:
        fam = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown point family {family!r}") from None
    return fam.execute(**dict(params))
