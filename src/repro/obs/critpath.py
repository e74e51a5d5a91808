"""Virtual-time critical-path extraction over the span DAG.

Given a :class:`~repro.obs.spans.SpanTracker` from a finished run, walk
backward from workload completion — the last rank to finish — through
the wait blocks and message/collective spans that bound each resumption,
and attribute every nanosecond of the makespan to exactly one category:

==================  ===========================================================
category            time on the critical path spent ...
==================  ===========================================================
``compute``         executing application code (no block in the way)
``launch_wait``     aligning the gang launch to the first slice boundary
``post_wait``       a posted descriptor waiting for its slice's DEM to start
``DEM``             in the descriptor-exchange microphase (ship / drain)
``MSM``             between arrival/exchange and match, plus scheduling gaps
                    between chunks of a multi-slice transfer, plus a
                    collective's drain-and-CaW window
``P2P``             actually moving bytes in the transmission microphase
``BBM``             executing a scheduled barrier/broadcast epoch
``RM``              executing a scheduled reduce epoch
``restart_wait``    delivered/committed, waiting for the next slice boundary
                    to restart the blocked process
``wait_other``      bound by an event the tracker has no span for
                    (cancelled receive, untracked request, truncated data)
==================  ===========================================================

The walk is a single backward cursor per segment: every emission clamps
into ``[floor, cursor]``, so the category totals sum to the makespan
*exactly* (asserted in tests and by the acceptance criteria) and the
walk provably terminates.  Each message traversal is also recorded as a
*hop* with a per-stage breakdown; the top-k longest hops form the
"longest message chains" section of the report.

Everything here is deterministic: tracker contents are recorded in
simulation order, tie-breaks use run-local ids, and the JSON
serialization sorts keys — two same-seed runs produce byte-identical
reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .spans import CollectiveSpan, MessageSpan, RankBlock, SpanTracker

__all__ = [
    "CATEGORIES",
    "BlameReport",
    "blame_payload",
    "critical_path",
    "render_blame",
    "to_json_bytes",
]

#: Blame categories, in report order.
CATEGORIES = (
    "compute",
    "launch_wait",
    "post_wait",
    "DEM",
    "MSM",
    "P2P",
    "BBM",
    "RM",
    "restart_wait",
    "wait_other",
)

#: Walker iteration backstop (far above any real block count).
_MAX_STEPS = 10_000_000


def _fmt_rank(key: Tuple[int, int]) -> str:
    return f"{key[0]}.{key[1]}"


@dataclass
class BlameReport:
    """The critical-path blame breakdown of one run."""

    makespan_ns: int
    #: Nanoseconds on the critical path per category; sums to makespan.
    categories_ns: Dict[str, int]
    #: Nanoseconds attributed per rank ("job.rank"); sums to makespan.
    per_rank_ns: Dict[str, int]
    #: Nanoseconds attributed per job launch index; sums to makespan.
    per_job_ns: Dict[str, int]
    #: Message/collective hops traversed, longest first (top-k).
    chains: List[dict] = field(default_factory=list)
    n_segments: int = 0
    n_hops: int = 0
    n_messages: int = 0
    n_delivered: int = 0
    n_collectives: int = 0

    def share(self, category: str) -> float:
        """Fraction of the makespan blamed on ``category``."""
        if not self.makespan_ns:
            return 0.0
        return self.categories_ns.get(category, 0) / self.makespan_ns


class _Walk:
    """Mutable walker state: one backward cursor plus the accumulators."""

    def __init__(self, floor: int, cur: int):
        self.floor = floor
        self.cur = cur
        self.cats = {c: 0 for c in CATEGORIES}
        self.per_rank: Dict[str, int] = {}
        self.per_job: Dict[str, int] = {}
        self.hops: List[dict] = []
        self.segments = 0

    def emit(self, lo, category: str, rank_key, hop: Optional[dict] = None) -> None:
        """Charge [max(floor, lo), cur] to ``category`` and move the cursor."""
        lo = self.floor if lo is None or lo < self.floor else lo
        if lo >= self.cur:
            return
        dur = self.cur - lo
        self.cats[category] += dur
        rk = _fmt_rank(rank_key)
        self.per_rank[rk] = self.per_rank.get(rk, 0) + dur
        jb = str(rank_key[0])
        self.per_job[jb] = self.per_job.get(jb, 0) + dur
        if hop is not None:
            stages = hop["stages_ns"]
            stages[category] = stages.get(category, 0) + dur
            hop["total_ns"] += dur
        self.segments += 1
        self.cur = lo


def _latest_block(blocks: List[RankBlock], cur: int) -> Optional[RankBlock]:
    """The block with the largest t1 <= cur (blocks sorted by t1)."""
    lo, hi = 0, len(blocks)
    while lo < hi:
        mid = (lo + hi) // 2
        if blocks[mid].t1 <= cur:
            lo = mid + 1
        else:
            hi = mid
    return blocks[lo - 1] if lo else None


def _rank_blocks(tracker: SpanTracker) -> Dict[tuple, List[RankBlock]]:
    per: Dict[tuple, List[RankBlock]] = {}
    for key, (t0, t1) in tracker.rank_start.items():
        if t1 > t0:
            per.setdefault(key, []).append(RankBlock(t0, t1, "launch"))
    for key, blist in tracker.blocks.items():
        per.setdefault(key, []).extend(blist)
    for blist in per.values():
        blist.sort(key=lambda b: (b.t1, b.t0))
    return per


def _binding(block: RankBlock) -> Optional[tuple]:
    """The awaited ref that completed last (first among exact ties)."""
    best_t, best_ref = None, None
    for completed, ref in block.entries:
        if best_t is None or completed > best_t:
            best_t, best_ref = completed, ref
    return best_ref


def _resolve_message(w: _Walk, m: MessageSpan, rank, block: RankBlock):
    if m.delivered_at is None or m.matched_at is None:
        w.emit(block.t0, "wait_other", rank)
        return rank
    dstk = m.dst_key or m.src_key
    srck = m.src_key
    hop = {
        "hop": len(w.hops),
        "kind": "message",
        "src": _fmt_rank(srck),
        "dst": _fmt_rank(dstk),
        "size": m.size,
        "tag": m.tag,
        "matched_by": m.matched_by,
        "slices": [
            s
            for s in (m.exchange_slice, m.match_slice, m.first_grant_slice, m.delivered_slice)
            if s is not None
        ],
        "total_ns": 0,
        "stages_ns": {},
    }
    w.emit(m.delivered_at, "restart_wait", rank, hop)
    # Transmission: P2P windows with scheduling gaps between chunks.
    for slice_no, c0, c1, _nbytes in reversed(m.chunks):
        w.emit(c1, "MSM", dstk, hop)
        w.emit(c0, "P2P", dstk, hop)
    w.emit(m.matched_at, "MSM", dstk, hop)
    if m.matched_by == "send":
        # The arrival completed the pair: the binding constraint chain
        # runs through the sender's descriptor exchange.
        if m.exchanged_at is not None:
            w.emit(m.exchanged_at, "MSM", dstk, hop)
            w.emit(m.exchange_slice_start, "DEM", srck, hop)
        w.emit(m.send_posted_at, "post_wait", srck, hop)
        nxt = srck
    else:
        # The receive post completed the pair (drained an unexpected
        # send): the chain runs through the receiver's DEM drain.
        w.emit(m.match_slice_start, "DEM", dstk, hop)
        if m.recv_posted_at is not None:
            w.emit(m.recv_posted_at, "post_wait", dstk, hop)
        nxt = dstk
    w.hops.append(hop)
    return nxt


def _resolve_collective(w: _Walk, c: CollectiveSpan, rank, block: RankBlock):
    if c.completed_at is None or c.scheduled_at is None or not c.posts:
        w.emit(block.t0, "wait_other", rank)
        return rank
    last_t = max(c.posts.values())
    last_key = min(k for k, v in c.posts.items() if v == last_t)
    hop = {
        "hop": len(w.hops),
        "kind": c.kind,
        "participants": len(c.posts),
        "last_poster": _fmt_rank(last_key),
        "slices": [s for s in (c.sched_slice, c.completed_slice) if s is not None],
        "total_ns": 0,
        "stages_ns": {},
    }
    w.emit(c.completed_at, "restart_wait", rank, hop)
    execute = "RM" if c.kind in ("reduce", "allreduce") else "BBM"
    w.emit(c.scheduled_at, execute, last_key, hop)
    # Slice holding the CaW: descriptor drain + query broadcast window.
    w.emit(c.sched_slice_start, "MSM", last_key, hop)
    w.emit(last_t, "post_wait", last_key, hop)
    w.hops.append(hop)
    return last_key


def critical_path(
    tracker: SpanTracker,
    makespan_ns: Optional[int] = None,
    top: int = 8,
) -> BlameReport:
    """Walk the span DAG backward from completion; return the blame report.

    ``makespan_ns`` defaults to the latest rank finish time; when given
    (e.g. the harness's measured job runtime) the walk covers exactly
    that window ending at the last finish.  Category, per-rank, and
    per-job totals each sum to the makespan exactly.
    """
    finish = tracker.rank_finish
    if finish:
        t_end = max(finish.values())
        start_rank = min(k for k, v in finish.items() if v == t_end)
    else:
        t_end, start_rank = 0, (0, 0)
    makespan = t_end if makespan_ns is None else makespan_ns
    floor = t_end - makespan
    w = _Walk(floor, t_end)
    blocks = _rank_blocks(tracker)

    rank = start_rank
    steps = 0
    while w.cur > floor:
        steps += 1
        if steps > _MAX_STEPS:  # pragma: no cover - defensive backstop
            w.emit(floor, "wait_other", rank)
            break
        blist = blocks.get(rank)
        block = _latest_block(blist, w.cur) if blist else None
        if block is None or block.t1 <= floor:
            w.emit(floor, "compute", rank)
            break
        if block.t1 < w.cur:
            w.emit(block.t1, "compute", rank)
        before = w.cur
        if block.kind == "launch":
            w.emit(block.t0, "launch_wait", rank)
        else:
            ref = _binding(block)
            target = tracker.resolve(ref) if ref is not None else None
            if isinstance(target, MessageSpan):
                rank = _resolve_message(w, target, rank, block)
            elif isinstance(target, CollectiveSpan):
                rank = _resolve_collective(w, target, rank, block)
            else:
                w.emit(block.t0, "wait_other", rank)
        if w.cur >= before:
            # Inconsistent span data would stall the cursor; charge the
            # whole block and, failing that, the remainder of the walk.
            w.emit(block.t0, "wait_other", rank)
            if w.cur >= before:
                w.emit(floor, "wait_other", rank)
                break

    chains = sorted(w.hops, key=lambda h: (-h["total_ns"], h["hop"]))[:top]
    return BlameReport(
        makespan_ns=makespan,
        categories_ns=w.cats,
        per_rank_ns=dict(sorted(w.per_rank.items())),
        per_job_ns=dict(sorted(w.per_job.items())),
        chains=chains,
        n_segments=w.segments,
        n_hops=len(w.hops),
        n_messages=len(tracker.messages),
        n_delivered=tracker.n_delivered,
        n_collectives=len(tracker.collectives),
    )


# -- reporting --------------------------------------------------------------------


def blame_payload(
    report: BlameReport,
    *,
    experiment: Optional[str] = None,
    ranks: Optional[int] = None,
    seed: Optional[int] = None,
) -> dict:
    """The machine-readable blame report (``explain --json`` schema v1)."""
    makespan = report.makespan_ns
    return {
        "schema": 1,
        "experiment": experiment,
        "ranks": ranks,
        "seed": seed,
        "makespan_ns": makespan,
        "categories_ns": {c: report.categories_ns.get(c, 0) for c in CATEGORIES},
        "shares": {c: round(report.share(c), 6) for c in CATEGORIES},
        "per_rank_ns": dict(report.per_rank_ns),
        "per_job_ns": dict(report.per_job_ns),
        "chains": list(report.chains),
        "counts": {
            "segments": report.n_segments,
            "hops": report.n_hops,
            "messages": report.n_messages,
            "delivered": report.n_delivered,
            "collectives": report.n_collectives,
        },
    }


def to_json_bytes(payload: dict) -> bytes:
    """Byte-stable serialization of a blame payload."""
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("ascii")


def render_blame(report: BlameReport, title: str = "run") -> str:
    """Deterministic text rendering of one blame report."""
    lines = [
        f"critical path of {title}: makespan {report.makespan_ns} ns, "
        f"{report.n_segments} segment(s), {report.n_hops} hop(s)",
        "",
        "  category       time on critical path",
        "  -------------  ----------------------",
    ]
    for cat in CATEGORIES:
        ns = report.categories_ns.get(cat, 0)
        if ns == 0 and cat not in ("compute",):
            continue
        lines.append(f"  {cat:<13}  {ns:>14} ns  {100.0 * report.share(cat):5.1f}%")
    total = sum(report.categories_ns.values())
    lines.append(f"  {'total':<13}  {total:>14} ns  100.0%")

    if report.per_rank_ns:
        lines.append("")
        lines.append("  per rank (job.rank):")
        for rk, ns in sorted(
            report.per_rank_ns.items(), key=lambda kv: (-kv[1], kv[0])
        )[:8]:
            lines.append(f"    {rk:<8}  {ns:>14} ns  {100.0 * ns / total if total else 0.0:5.1f}%")

    if report.chains:
        lines.append("")
        lines.append(f"  top {len(report.chains)} chain(s) on the critical path:")
        for hop in report.chains:
            stages = ", ".join(
                f"{c}={hop['stages_ns'][c]}" for c in CATEGORIES if c in hop["stages_ns"]
            )
            if hop["kind"] == "message":
                head = (
                    f"message {hop['src']}->{hop['dst']} "
                    f"({hop['size']} B, tag {hop['tag']})"
                )
            else:
                head = f"{hop['kind']} x{hop['participants']} (last post {hop['last_poster']})"
            lines.append(f"    #{hop['hop']:<3} {head}: {hop['total_ns']} ns [{stages}]")
    return "\n".join(lines)
