"""``repro.farm``: parallel experiment execution with result caching.

The farm runs the paper's evaluation as independent points on one
machine, caching every result (see docs/FARM.md):

- :mod:`~repro.farm.points` — every figure/table as one family: its
  declarative, hashable :class:`PointSpec` units, rows and shape check;
- :mod:`~repro.farm.pool` — a spawn-safe worker pool with per-point
  timeouts, bounded retries, and crash containment;
- :mod:`~repro.farm.store` — a content-addressed result store keyed by
  (point hash, code fingerprint);
- :mod:`~repro.farm.service` — orchestration, aggregation back into
  each family's rows in sweep order, and the paper preset's checks;
- :mod:`~repro.farm.cli` — the ``repro farm`` subcommand family.
"""

from .fingerprint import code_fingerprint, git_sha, result_key
from .points import (
    EXTENSION_FAMILIES,
    FAMILIES,
    FIGURE_FAMILIES,
    SCALING_FAMILIES,
    Family,
    PointSpec,
    execute_point,
    expand_family,
)
from .pool import PointOutcome, WorkerPool
from .service import FamilyResult, FarmReport, run_farm
from .store import ResultStore

__all__ = [
    "EXTENSION_FAMILIES",
    "FAMILIES",
    "FIGURE_FAMILIES",
    "Family",
    "FamilyResult",
    "FarmReport",
    "PointOutcome",
    "PointSpec",
    "ResultStore",
    "SCALING_FAMILIES",
    "WorkerPool",
    "code_fingerprint",
    "execute_point",
    "expand_family",
    "git_sha",
    "result_key",
    "run_farm",
]
