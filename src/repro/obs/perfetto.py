"""Chrome/Perfetto trace-event JSON export.

Builds a `Trace Event Format`_ document loadable in ``ui.perfetto.dev``
or ``chrome://tracing``.  The mapping used by the instrumented BCS
runtime:

- one *process* (pid) per simulated node; the management node carries
  the slice-machine track (slices and microphases as seen by the
  Strobe Sender);
- per node, thread 0 is the node's microphase track (per-node spans as
  seen by its Strobe Receiver) and thread 1 the NIC-thread track
  (BS/BR/DH/CH/RH occupancy spans);
- microphases are complete ("X") duration events, nested inside their
  slice span by containment;
- scheduler backlog / granted bytes are counter ("C") events;
- message lifecycles are flow ("s"/"t"/"f") events sharing one flow id:
  start at descriptor exchange on the source node's microphase track,
  step at the match on the destination node, end at delivery — each
  timestamp lands inside a real microphase span on its track, so the
  Perfetto UI draws the cross-node causality arrows.

Timestamps are simulated **nanoseconds** converted to the microsecond
unit the format expects; with integer virtual time the conversion is
exact in binary for the .001 multiples produced here, so serialization
is byte-stable across identical runs.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

__all__ = ["PerfettoTrace"]


def _us(ts_ns: int) -> float:
    """Nanoseconds -> microseconds (the trace-event time unit)."""
    return ts_ns / 1000.0


class PerfettoTrace:
    """Accumulates trace events and serializes them deterministically."""

    def __init__(self):
        #: Metadata events (process/thread names), emitted first.
        self._meta: List[dict] = []
        #: Timed events, in emission (= simulation) order.
        self._events: List[dict] = []
        self._named_processes: Dict[int, str] = {}
        self._named_threads: Dict[tuple, str] = {}

    # -- metadata -----------------------------------------------------------------

    def process_name(self, pid: int, name: str, sort_index: Optional[int] = None) -> None:
        """Name the track group of ``pid`` (idempotent)."""
        if self._named_processes.get(pid) == name:
            return
        self._named_processes[pid] = name
        self._meta.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
        if sort_index is not None:
            self._meta.append(
                {
                    "ph": "M",
                    "name": "process_sort_index",
                    "pid": pid,
                    "tid": 0,
                    "args": {"sort_index": sort_index},
                }
            )

    def thread_name(self, pid: int, tid: int, name: str) -> None:
        """Name one thread track of ``pid`` (idempotent)."""
        if self._named_threads.get((pid, tid)) == name:
            return
        self._named_threads[(pid, tid)] = name
        self._meta.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )

    # -- events -------------------------------------------------------------------

    def complete(
        self,
        pid: int,
        tid: int,
        name: str,
        cat: str,
        start_ns: int,
        dur_ns: int,
        args: Optional[dict] = None,
    ) -> None:
        """A duration ("X") event: one span on a track."""
        event = {
            "ph": "X",
            "name": name,
            "cat": cat,
            "pid": pid,
            "tid": tid,
            "ts": _us(start_ns),
            "dur": _us(dur_ns),
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def _flow(
        self,
        ph: str,
        pid: int,
        tid: int,
        name: str,
        cat: str,
        ts_ns: int,
        flow_id: int,
    ) -> None:
        event = {
            "ph": ph,
            "name": name,
            "cat": cat,
            "pid": pid,
            "tid": tid,
            "ts": _us(ts_ns),
            "id": flow_id,
        }
        if ph == "f":
            # Bind to the enclosing slice, not the next one to start.
            event["bp"] = "e"
        self._events.append(event)

    def flow_start(
        self, pid: int, tid: int, name: str, cat: str, ts_ns: int, flow_id: int
    ) -> None:
        """A flow-start ("s") event: the arrow's tail."""
        self._flow("s", pid, tid, name, cat, ts_ns, flow_id)

    def flow_step(
        self, pid: int, tid: int, name: str, cat: str, ts_ns: int, flow_id: int
    ) -> None:
        """A flow-step ("t") event: an intermediate arrow waypoint."""
        self._flow("t", pid, tid, name, cat, ts_ns, flow_id)

    def flow_end(
        self, pid: int, tid: int, name: str, cat: str, ts_ns: int, flow_id: int
    ) -> None:
        """A flow-end ("f", bp=e) event: the arrow's head."""
        self._flow("f", pid, tid, name, cat, ts_ns, flow_id)

    def counter(self, pid: int, name: str, ts_ns: int, values: dict) -> None:
        """A counter ("C") sample: stacked value track."""
        self._events.append(
            {
                "ph": "C",
                "name": name,
                "pid": pid,
                "tid": 0,
                "ts": _us(ts_ns),
                "args": {k: values[k] for k in sorted(values)},
            }
        )

    # -- serialization ------------------------------------------------------------

    @property
    def n_events(self) -> int:
        """Number of timed (non-metadata) events recorded."""
        return len(self._events)

    def to_dict(self) -> dict:
        """The trace document as a plain dict (metadata first)."""
        return {
            "displayTimeUnit": "ns",
            "traceEvents": list(self._meta) + list(self._events),
        }

    def to_json_bytes(self) -> bytes:
        """Byte-stable serialization (sorted keys, fixed separators)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=True
        ).encode("ascii")

    def save(self, path) -> None:
        """Write the trace to ``path`` (open in ui.perfetto.dev)."""
        with open(path, "wb") as fh:
            fh.write(self.to_json_bytes())

    def __repr__(self) -> str:
        return f"<PerfettoTrace events={len(self._events)} meta={len(self._meta)}>"
