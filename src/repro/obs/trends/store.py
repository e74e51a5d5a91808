"""Append-only JSONL trend store: performance series across runs.

Layout (everything line-oriented JSON, everything append-only)::

    <root>/runs.jsonl                 one metadata line per recorded run
    <root>/series/<id>.jsonl          one observation line per (run, series)

A *series* is one tracked quantity — e.g. the mean wall-clock duration
of the ``fig8a`` farm family (``farm.duration_ms/fig8a``) or the
normalized wall-clock of one bench workload
(``bench.normalized/sage_fig10``).  A series file is human-auditable
with ``jq``/``python -m json.tool`` and merges trivially across CI
artifact restores: appending is the only write operation.

Each observation carries both the **normalized** value the regression
detector consumes (wall seconds divided by the run's spin-loop
``calibration_s`` — see :mod:`.calibrate`) and the **raw** measurement,
so a flagged regression can always be traced back to real seconds.
Corrupt or truncated lines (a crashed append, a bad artifact merge)
are skipped on read, never raised: the worst outcome of a damaged
store is a shorter history.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, List, Optional

__all__ = [
    "DEFAULT_TREND_STORE",
    "RunMeta",
    "Sample",
    "TrendStore",
    "default_trend_path",
]

#: Default on-disk location (repo-local, gitignored); override with
#: ``REPRO_TREND_STORE`` or ``--store``.
DEFAULT_TREND_STORE = ".trend-store"

#: Series ids: ``<metric>`` or ``<metric>/<label>`` with conservative
#: charsets so the id maps onto one filename on every filesystem (the
#: metric must start alphanumeric, so ``..``-style names never appear).
_SERIES_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*(/[A-Za-z0-9.,=_ -]+)?$")


def default_trend_path() -> Path:
    return Path(os.environ.get("REPRO_TREND_STORE", DEFAULT_TREND_STORE))


@dataclass(frozen=True)
class RunMeta:
    """Provenance of one recorded run — the join key for every series row."""

    run_id: str
    #: what produced the run: "farm" | "bench" | "seed" | ad hoc.
    source: str
    git_sha: str = "unknown"
    #: source-tree fingerprint (see :mod:`repro.farm.fingerprint`).
    fingerprint: str = "unknown"
    python: str = ""
    #: wall-clock unix time the run was recorded.
    time_s: float = 0.0
    #: quick/reduced mode (CI) vs the full configuration; None if n/a.
    quick: Optional[bool] = None
    #: spin-loop calibration used to normalize this run's timings.
    calibration_s: Optional[float] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass(frozen=True)
class Sample:
    """One observation of one series in one run."""

    series: str
    #: normalized, machine-comparable value (what the detector sees).
    value: float
    #: raw measurement in ``unit`` (for humans bisecting a regression).
    raw: Optional[float] = None
    unit: str = "x"
    #: "timing" series gate CI; "exact" series (virtual time, event
    #: counts) are deterministic bookkeeping — a change is reported but
    #: never fails the check on statistical grounds.
    kind: str = "timing"
    #: how many underlying measurements this observation aggregates.
    n: int = 1

    def __post_init__(self):
        if not _SERIES_ID.match(self.series):
            raise ValueError(f"bad series id {self.series!r}")
        if self.kind not in ("timing", "exact"):
            raise ValueError(f"bad sample kind {self.kind!r}")


class TrendStore:
    """Append-only run metadata + per-series observation files."""

    RUNS = "runs.jsonl"

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else default_trend_path()

    # -- paths ---------------------------------------------------------------

    def _series_path(self, series_id: str) -> Path:
        if not _SERIES_ID.match(series_id):
            raise ValueError(f"bad series id {series_id!r}")
        return self.root / "series" / (series_id.replace("/", "@") + ".jsonl")

    # -- writing -------------------------------------------------------------

    def append_run(self, meta: RunMeta, samples: Iterable[Sample]) -> int:
        """Record one run: its metadata line plus one line per sample.

        Returns the number of series rows written.  Raises
        ``ValueError`` if ``meta.run_id`` was already recorded — the
        guard that keeps a re-entrant CI step from double-counting.
        """
        samples = list(samples)
        if meta.run_id in self.run_ids():
            raise ValueError(f"run {meta.run_id!r} already recorded")
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / self.RUNS, "a") as fh:
            fh.write(json.dumps(meta.to_dict(), sort_keys=True) + "\n")
        (self.root / "series").mkdir(exist_ok=True)
        for sample in samples:
            row = {
                "run": meta.run_id,
                "value": sample.value,
                "raw": sample.raw,
                "unit": sample.unit,
                "kind": sample.kind,
                "n": sample.n,
            }
            with open(self._series_path(sample.series), "a") as fh:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        return len(samples)

    # -- reading -------------------------------------------------------------

    @staticmethod
    def _read_jsonl(path: Path) -> List[dict]:
        try:
            text = path.read_text()
        except OSError:
            return []
        rows: List[dict] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue  # truncated append / damaged artifact: skip
            if isinstance(row, dict):
                rows.append(row)
        return rows

    def runs(self) -> List[dict]:
        """Metadata of every recorded run, in append (≈ time) order."""
        return self._read_jsonl(self.root / self.RUNS)

    def run_ids(self) -> List[str]:
        return [r["run_id"] for r in self.runs() if "run_id" in r]

    def run_count(self) -> int:
        return len(self.runs())

    def series_ids(self) -> List[str]:
        """Every series with at least one observation, sorted."""
        series_dir = self.root / "series"
        if not series_dir.is_dir():
            return []
        return sorted(
            p.name[: -len(".jsonl")].replace("@", "/")
            for p in series_dir.glob("*.jsonl")
        )

    def read_series(self, series_id: str) -> List[dict]:
        """All observations of one series, in append order."""
        return self._read_jsonl(self._series_path(series_id))

    def values(self, series_id: str) -> List[float]:
        """The normalized values of one series, in append order."""
        return [
            float(r["value"])
            for r in self.read_series(series_id)
            if isinstance(r.get("value"), (int, float))
        ]

    def __repr__(self) -> str:
        return (
            f"<TrendStore {self.root} runs={self.run_count()} "
            f"series={len(self.series_ids())}>"
        )
