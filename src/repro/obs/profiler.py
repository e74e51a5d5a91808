"""Per-rank MPI profiling (mpiP-style).

Attributes every rank's virtual time to *application* vs *MPI* (time
spent suspended in blocking waits), and every MPI operation to the call
site that issued it — the summary mpiP prints after a real run, built
here from the deterministic simulation instead of sampled timers.

The profiler is a fold over the protocol log
(:attr:`repro.obs.Observability.events`): ``record_post`` handles its
post entries, ``record_wait`` its wait entries.  The BCS communicator
(:class:`repro.mpi.bcs_backend.BcsCommunicator`, the paper's BCS API)
logs each one's call site, resolved by :func:`call_site` walking the
Python stack past the runtime's own frames to the first application
frame.  The resulting ``file:function+offset`` strings are stable
across runs, keeping reports byte-identical, and across edits outside
the function.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Tuple

__all__ = ["MpiProfiler", "call_site"]

#: Module path fragments considered runtime-internal when resolving the
#: application call site (searched against normalized file paths).
_INTERNAL = (
    os.sep + "repro" + os.sep + "mpi" + os.sep,
    os.sep + "repro" + os.sep + "bcs" + os.sep,
    os.sep + "repro" + os.sep + "obs" + os.sep,
)


def call_site(max_depth: int = 24) -> str:
    """``file:function+offset`` of the nearest non-runtime frame on the
    stack, ``offset`` counting lines from the function's first line, so
    an edit above the function leaves the name unchanged."""
    frame = sys._getframe(1)
    depth = 0
    while frame is not None and depth < max_depth:
        code = frame.f_code
        if not any(part in code.co_filename for part in _INTERNAL):
            offset = frame.f_lineno - code.co_firstlineno
            return f"{_shorten(code.co_filename)}:{code.co_name}+{offset}"
        frame = frame.f_back
        depth += 1
    return "<unknown>"


def _shorten(filename: str) -> str:
    """Path from the ``repro`` package root (or the basename)."""
    parts = filename.replace("\\", "/").split("/")
    if "repro" in parts:
        return "/".join(parts[parts.index("repro"):])
    return parts[-1]


class _RankProfile:
    """Accumulated attribution for one rank."""

    __slots__ = ("app_ns", "mpi_ns", "last_mark")

    def __init__(self):
        self.app_ns = 0
        self.mpi_ns = 0
        #: Virtual time of the last accounted event boundary.
        self.last_mark = 0


class MpiProfiler:
    """mpiP-style attribution of virtual time per rank and call site."""

    def __init__(self):
        #: (job index, world_rank) -> per-rank totals.
        self.ranks: Dict[Tuple[int, int], _RankProfile] = {}
        #: (op, site) -> [count, total_wait_ns, total_bytes]
        self.sites: Dict[Tuple[str, str], List[int]] = {}

    # -- recording ----------------------------------------------------------------

    def _rank(self, job: int, rank: int) -> _RankProfile:
        key = (job, rank)
        prof = self.ranks.get(key)
        if prof is None:
            prof = _RankProfile()
            self.ranks[key] = prof
        return prof

    def record_post(self, job: int, rank: int, op: str, nbytes: int, site: str) -> None:
        """One descriptor post (non-blocking half of an MPI call) issued
        at ``site`` by ``rank`` of the ``job``-th launched job."""
        entry = self.sites.get((op, site))
        if entry is None:
            self.sites[(op, site)] = [1, 0, nbytes]
        else:
            entry[0] += 1
            entry[2] += nbytes
        # A rank that posts gets its row even if it never waits.
        self._rank(job, rank)

    def record_wait(
        self, job: int, rank: int, op: str, t0: int, t1: int, site: str
    ) -> None:
        """One blocking wait: ``[t0, t1]`` of virtual time spent in MPI,
        issued at ``site``."""
        prof = self._rank(job, rank)
        prof.app_ns += max(t0 - prof.last_mark, 0)
        prof.mpi_ns += t1 - t0
        prof.last_mark = t1
        entry = self.sites.get((op, site))
        if entry is None:
            self.sites[(op, site)] = [1, t1 - t0, 0]
        else:
            entry[0] += 1
            entry[1] += t1 - t0

    # -- reporting ----------------------------------------------------------------

    def report(self, top: int = 20) -> str:
        """The mpiP-style text summary (deterministic)."""
        lines: List[str] = []
        lines.append("@--- MPI Time (virtual milliseconds) " + "-" * 34)
        lines.append(f"{'Task':>8}  {'AppTime':>12}  {'MPITime':>12}  {'MPI%':>6}")
        tot_app = tot_mpi = 0
        for (job, rank) in sorted(self.ranks):
            prof = self.ranks[(job, rank)]
            tot_app += prof.app_ns
            tot_mpi += prof.mpi_ns
            total = prof.app_ns + prof.mpi_ns
            pct = 100.0 * prof.mpi_ns / total if total else 0.0
            lines.append(
                f"{f'{job}.{rank}':>8}  {prof.app_ns / 1e6:12.3f}  "
                f"{prof.mpi_ns / 1e6:12.3f}  {pct:6.2f}"
            )
        total = tot_app + tot_mpi
        pct = 100.0 * tot_mpi / total if total else 0.0
        lines.append(
            f"{'*':>8}  {tot_app / 1e6:12.3f}  {tot_mpi / 1e6:12.3f}  {pct:6.2f}"
        )

        # Callsite table: by total wait time, then count, then name.
        ordered = sorted(
            self.sites.items(), key=lambda kv: (-kv[1][1], -kv[1][0], kv[0])
        )
        shown = ordered[:top]
        width = max([40, *(len(site) for (_op, site), _entry in shown)])
        lines.append("")
        lines.append(f"@--- Callsites: {len(ordered)} " + "-" * 48)
        lines.append(
            f"{'Op':<16} {'Site':<{width}} {'Count':>8} {'Time(ms)':>10} {'MB':>8}"
        )
        for (op, site), (count, wait_ns, nbytes) in shown:
            lines.append(
                f"{op:<16} {site:<{width}} {count:>8} {wait_ns / 1e6:>10.3f} "
                f"{nbytes / 1e6:>8.2f}"
            )
        if len(ordered) > top:
            lines.append(f"... ({len(ordered) - top} more call sites)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<MpiProfiler ranks={len(self.ranks)} sites={len(self.sites)}>"
