"""Spawn-safe worker pool: one child process per point attempt.

This is the farm's only execution path: :func:`repro.farm.run_farm`
sends every result-store miss through one :class:`WorkerPool`.  Every
point runs in its own freshly spawned interpreter, so a wedged,
OOM'd, or crashing simulation takes down only its worker:

- a **timeout** (wall-clock, per attempt) kills the child and counts as
  a transient failure;
- a **crash** (child exits without reporting) counts the same way;
- transient failures are retried up to ``retries`` extra attempts;
- a clean Python **exception** in the point is deterministic, is never
  retried, and carries the child's traceback back to the parent.

The ``spawn`` start method is used unconditionally — it is the only
start method that is safe regardless of parent threads and it matches
what macOS/Windows would do anyway, so CI and laptops behave alike.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as conn_wait
from typing import Callable, Dict, List, Optional, Sequence

from .points import PointSpec

__all__ = ["PointOutcome", "WorkerPool"]

_CTX = mp.get_context("spawn")

#: parent poll interval while waiting on children, seconds.
_POLL_S = 0.05


def _child_entry(conn, family: str, params: dict) -> None:
    """Worker body: run one point, report ("ok", row) or ("error", tb)."""
    try:
        from repro.farm.points import execute_point

        payload = ("ok", execute_point(family, params))
    except BaseException:
        payload = ("error", traceback.format_exc(limit=30))
    try:
        conn.send(payload)
        conn.close()
    except Exception:
        pass  # parent already gone or pipe torn down — nothing to report to


@dataclass
class PointOutcome:
    """Terminal state of one point after all attempts."""

    spec: PointSpec
    status: str  # "ok" | "failed"
    row: Optional[dict] = None
    attempts: int = 0
    #: wall-clock seconds of the final attempt.
    duration_s: float = 0.0
    error: Optional[str] = None
    #: True when the row came from the result store, not a worker.
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class _Task:
    seq: int
    spec: PointSpec
    attempts: int = 0
    proc: Optional[object] = None
    conn: Optional[object] = None
    started: float = 0.0
    deadline: float = field(default=float("inf"))


class WorkerPool:
    """Run point specs through isolated child processes.

    ``on_event(kind, task_info)`` (optional) observes scheduling:
    ``kind`` is ``"start"``, ``"retry"``, or ``"done"``; the payload is a
    dict with ``spec``, ``attempt`` and, for retries, ``reason``, and for
    completions, the :class:`PointOutcome`.
    """

    def __init__(
        self,
        jobs: int = 2,
        timeout_s: float = 600.0,
        retries: int = 1,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retries = retries

    # -- scheduling ----------------------------------------------------------

    def run(
        self,
        specs: Sequence[PointSpec],
        on_event: Optional[Callable[[str, dict], None]] = None,
    ) -> List[PointOutcome]:
        """Execute every spec; outcomes come back in input order."""
        emit = on_event or (lambda kind, info: None)
        pending = deque(_Task(seq=i, spec=s) for i, s in enumerate(specs))
        running: Dict[int, _Task] = {}
        outcomes: Dict[int, PointOutcome] = {}

        try:
            while pending or running:
                while pending and len(running) < self.jobs:
                    task = pending.popleft()
                    self._start(task)
                    running[task.seq] = task
                    emit("start", {"spec": task.spec, "attempt": task.attempts})

                self._wait_any(running)
                now = time.monotonic()
                for task in list(running.values()):
                    result = self._poll(task, now)
                    if result is None:
                        continue
                    del running[task.seq]
                    status, payload = result
                    if status == "ok":
                        outcomes[task.seq] = PointOutcome(
                            spec=task.spec,
                            status="ok",
                            row=payload,
                            attempts=task.attempts,
                            duration_s=now - task.started,
                        )
                        emit("done", {"outcome": outcomes[task.seq]})
                    elif status == "error" or task.attempts > self.retries:
                        outcomes[task.seq] = PointOutcome(
                            spec=task.spec,
                            status="failed",
                            attempts=task.attempts,
                            duration_s=now - task.started,
                            error=payload,
                        )
                        emit("done", {"outcome": outcomes[task.seq]})
                    else:  # transient (timeout/crash) with retries left
                        emit(
                            "retry",
                            {
                                "spec": task.spec,
                                "attempt": task.attempts,
                                "reason": payload,
                            },
                        )
                        pending.append(task)
        finally:
            for task in running.values():
                self._kill(task)

        return [outcomes[i] for i in range(len(specs))]

    # -- per-task lifecycle --------------------------------------------------

    def _start(self, task: _Task) -> None:
        task.attempts += 1
        parent_conn, child_conn = _CTX.Pipe(duplex=False)
        task.proc = _CTX.Process(
            target=_child_entry,
            args=(child_conn, task.spec.family, task.spec.params_dict),
            daemon=True,
        )
        task.proc.start()
        child_conn.close()  # child holds the write end; EOF now means death
        task.conn = parent_conn
        task.started = time.monotonic()
        task.deadline = task.started + self.timeout_s

    def _poll(self, task: _Task, now: float):
        """("ok"|"error"|"timeout"|"crash", payload) once terminal, else None."""
        if task.conn.poll():
            try:
                status, payload = task.conn.recv()
            except (EOFError, OSError):
                self._kill(task)
                return ("crash", self._crash_reason(task))
            self._reap(task)
            return (status, payload)
        if now >= task.deadline:
            self._kill(task)
            return (
                "timeout",
                f"point timed out after {self.timeout_s:.1f}s (wall clock)",
            )
        if not task.proc.is_alive():
            self._kill(task)
            return ("crash", self._crash_reason(task))
        return None

    def _wait_any(self, running: Dict[int, _Task]) -> None:
        """Block briefly until any child reports, dies, or we must re-check
        deadlines."""
        if not running:
            return
        sentinels = []
        for task in running.values():
            sentinels.append(task.conn)
            sentinels.append(task.proc.sentinel)
        conn_wait(sentinels, timeout=_POLL_S)

    @staticmethod
    def _crash_reason(task: _Task) -> str:
        code = task.proc.exitcode
        return f"worker exited without a result (exit code {code})"

    @staticmethod
    def _reap(task: _Task) -> None:
        task.conn.close()
        task.proc.join(timeout=5)
        if task.proc.is_alive():  # refuses to exit after reporting: force it
            task.proc.kill()
            task.proc.join(timeout=5)

    @staticmethod
    def _kill(task: _Task) -> None:
        if task.proc is not None and task.proc.is_alive():
            task.proc.kill()
        if task.proc is not None:
            task.proc.join(timeout=5)
        if task.conn is not None:
            task.conn.close()
