"""Causal message-lifecycle spans (the "why is this run slow" layer).

Aggregate metrics (:mod:`.registry`) say *how much* time each microphase
consumed; this module records *which* message spent it.  A
:class:`SpanTracker` follows every point-to-point message through its
lifecycle

    posted -> descriptor exchanged (DEM) -> matched (MSM/DEM)
           -> scheduled -> transmitted in chunks (P2P) -> delivered

and every collective through

    posted (per rank) -> CaW-scheduled -> committed (BBM/RM)

as linked spans with rank, slice, and microphase attribution.  It also
records every blocking wait (which requests a rank blocked on, and when
it resumed), which is exactly the dependency edge set the critical-path
extractor (:mod:`.critpath`) walks backward from workload completion.

The tracker is a fold over the protocol log
(:attr:`repro.obs.Observability.events`): each handler below takes the
fields of one entry kind.  When a
:class:`~repro.obs.perfetto.PerfettoTrace` is given, each message also
emits a flow-event triple ("s"/"t"/"f") on the nodes' microphase
tracks, so the Perfetto UI renders the cross-node causality arrows over
the existing DEM/MSM/P2P spans.

Everything that reaches a report uses run-local ids: ``msg_id``,
assigned in log order, and the job's launch index, as logged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .perfetto import PerfettoTrace

__all__ = ["CollectiveSpan", "MessageSpan", "RankBlock", "SpanTracker"]

#: Microphase thread track inside each node's process group (matches
#: ``repro.obs.telemetry.TID_MICROPHASES``; duplicated to avoid a cycle).
_TID_MICROPHASES = 0

#: A rank on the critical-path graph: (job launch index, world rank).
RankKey = Tuple[int, int]


class MessageSpan:
    """One point-to-point message's lifecycle, posted to delivered."""

    __slots__ = (
        "msg_id",
        "job",
        "src_key",
        "dst_key",
        "tag",
        "size",
        "src_node",
        "dst_node",
        "send_posted_at",
        "recv_posted_at",
        "exchanged_at",
        "exchange_slice",
        "exchange_slice_start",
        "matched_at",
        "match_slice",
        "match_slice_start",
        "matched_by",
        "first_grant_slice",
        "chunks",
        "delivered_at",
        "delivered_slice",
    )

    def __init__(self, msg_id: int, job: int, src_key: RankKey, tag: int, size: int):
        self.msg_id = msg_id
        self.job = job
        self.src_key: RankKey = src_key
        self.dst_key: Optional[RankKey] = None
        self.tag = tag
        self.size = size
        self.src_node: Optional[int] = None
        self.dst_node: Optional[int] = None
        self.send_posted_at: int = 0
        self.recv_posted_at: Optional[int] = None
        self.exchanged_at: Optional[int] = None
        self.exchange_slice: Optional[int] = None
        self.exchange_slice_start: Optional[int] = None
        self.matched_at: Optional[int] = None
        self.match_slice: Optional[int] = None
        self.match_slice_start: Optional[int] = None
        #: Which descriptor completed the pair: "send" (arrival met a
        #: posted receive) or "recv" (a post drained an unexpected send).
        self.matched_by: str = ""
        self.first_grant_slice: Optional[int] = None
        #: Transmitted chunks: (slice_no, t0, t1, nbytes), in sim order.
        self.chunks: List[Tuple[int, int, int, int]] = []
        self.delivered_at: Optional[int] = None
        self.delivered_slice: Optional[int] = None

    def __repr__(self) -> str:
        state = "delivered" if self.delivered_at is not None else "in-flight"
        return f"<MessageSpan #{self.msg_id} {self.src_key}->{self.dst_key} {state}>"


class CollectiveSpan:
    """One collective epoch's lifecycle across its participating ranks."""

    __slots__ = (
        "coll_id",
        "job",
        "kind",
        "posts",
        "scheduled_at",
        "sched_slice",
        "sched_slice_start",
        "completed_at",
        "completed_slice",
    )

    def __init__(self, coll_id: int, job: int, kind: str):
        self.coll_id = coll_id
        self.job = job
        self.kind = kind
        #: Post time per participating rank key.
        self.posts: Dict[RankKey, int] = {}
        self.scheduled_at: Optional[int] = None
        self.sched_slice: Optional[int] = None
        self.sched_slice_start: Optional[int] = None
        #: Commit time (max over per-node completion commits).
        self.completed_at: Optional[int] = None
        self.completed_slice: Optional[int] = None

    def __repr__(self) -> str:
        state = "done" if self.completed_at is not None else "pending"
        return f"<CollectiveSpan #{self.coll_id} {self.kind} n={len(self.posts)} {state}>"


class RankBlock:
    """One blocking wait of one rank: [t0, t1] plus what it waited on."""

    __slots__ = ("t0", "t1", "kind", "entries")

    def __init__(self, t0: int, t1: int, kind: str, entries=()):
        self.t0 = t0
        self.t1 = t1
        #: "wait" (bcs wait) or "launch" (gang-launch slice alignment).
        self.kind = kind
        #: (completed_at, ref) per awaited request, in the caller's
        #: request order (deterministic: it is the application's list).
        self.entries: Tuple[Tuple[int, tuple], ...] = tuple(entries)

    def __repr__(self) -> str:
        return f"<RankBlock {self.kind} [{self.t0},{self.t1}] n={len(self.entries)}>"


class SpanTracker:
    """Collects message/collective spans and per-rank wait blocks."""

    def __init__(self, perfetto: Optional["PerfettoTrace"] = None):
        self.perfetto = perfetto
        #: Every tracked message, in post (= msg_id) order.
        self.messages: List[MessageSpan] = []
        #: Every tracked collective, in first-post order.
        self.collectives: List[CollectiveSpan] = []
        self._span_by_send: Dict[int, MessageSpan] = {}
        self._span_by_recv: Dict[int, MessageSpan] = {}
        #: Posted receives not yet linked: desc_id -> (rank_key, t).
        self._recv_posts: Dict[int, Tuple[RankKey, int]] = {}
        self._coll_by_key: Dict[tuple, CollectiveSpan] = {}
        #: Completed wait blocks per rank key, in completion order.
        self.blocks: Dict[RankKey, List[RankBlock]] = {}
        #: Gang-launch window per rank key: (t0, first slice boundary).
        self.rank_start: Dict[RankKey, Tuple[int, int]] = {}
        #: Finish time per rank key.
        self.rank_finish: Dict[RankKey, int] = {}
        #: The current slice and its start time.
        self.slice_no = 0
        self.slice_start = 0

    def slice_begin(self, t: int, slice_no: int) -> None:
        self.slice_no = slice_no
        self.slice_start = t

    # -- posts ------------------------------------------------------------------------

    def posted(
        self, t: int, ref: tuple, job: int, rank: int, op: str, nbytes: int, tag: int
    ) -> None:
        """A rank posted the descriptor ``ref`` names."""
        kind, key = ref
        rank_key = (job, rank)
        if kind == "msg":
            span = MessageSpan(len(self.messages), job, rank_key, tag, nbytes)
            span.send_posted_at = t
            self.messages.append(span)
            self._span_by_send[key] = span
        elif kind == "recv":
            self._recv_posts[key] = (rank_key, t)
        else:
            span = self._coll_by_key.get(key)
            if span is None:
                span = CollectiveSpan(len(self.collectives), job, op)
                self.collectives.append(span)
                self._coll_by_key[key] = span
            span.posts[rank_key] = t

    # -- NIC threads ------------------------------------------------------------------

    def msg_exchanged(self, t: int, send_id: int, src_node: int, dst_node: int) -> None:
        """BS shipped the send descriptor to the destination BR (DEM)."""
        span = self._span_by_send.get(send_id)
        if span is None:
            return
        span.src_node = src_node
        span.dst_node = dst_node
        span.exchanged_at = t
        span.exchange_slice, span.exchange_slice_start = self.slice_no, self.slice_start
        if self.perfetto is not None:
            self.perfetto.flow_start(
                src_node, _TID_MICROPHASES, "msg", "msgflow", t, span.msg_id
            )

    def msg_matched(
        self, t: int, send_id: int, recv_id: int, src_node: int, dst_node: int, via: str
    ) -> None:
        """The BR paired the send with a posted receive."""
        span = self._span_by_send.get(send_id)
        if span is None:
            return
        span.matched_at = t
        span.match_slice, span.match_slice_start = self.slice_no, self.slice_start
        span.matched_by = via
        span.src_node = src_node
        span.dst_node = dst_node
        recv_post = self._recv_posts.pop(recv_id, None)
        if recv_post is not None:
            span.dst_key, span.recv_posted_at = recv_post
        self._span_by_recv[recv_id] = span
        if self.perfetto is not None:
            self.perfetto.flow_step(
                dst_node, _TID_MICROPHASES, "msg", "msgflow", t, span.msg_id
            )

    def sched_granted(self, send_ids) -> None:
        """The MSM scheduler granted this slice's chunks."""
        by_send = self._span_by_send
        for send_id in send_ids:
            span = by_send.get(send_id)
            if span is not None and span.first_grant_slice is None:
                span.first_grant_slice = self.slice_no

    def msg_chunk(self, t1: int, send_id: int, t0: int, nbytes: int) -> None:
        """The DH moved one chunk of the message (P2P)."""
        span = self._span_by_send.get(send_id)
        if span is not None:
            span.chunks.append((self.slice_no, t0, t1, nbytes))

    def msg_delivered(
        self, t: int, node: int, src_rank: int, dst_rank: int, tag: int, size: int,
        send_id: int,
    ) -> None:
        """The last chunk landed on ``node``; the receive request completed."""
        span = self._span_by_send.get(send_id)
        if span is None:
            return
        span.delivered_at = t
        span.delivered_slice = self.slice_no
        if self.perfetto is not None:
            self.perfetto.flow_end(
                node, _TID_MICROPHASES, "msg", "msgflow", t, span.msg_id
            )

    def coll_scheduled(self, t: int, job: int, comm_id: int, epoch: int) -> None:
        """The root node's CaW admitted the epoch (MSM)."""
        span = self._coll_by_key.get((job, comm_id, epoch))
        if span is not None:
            span.scheduled_at = t
            span.sched_slice, span.sched_slice_start = self.slice_no, self.slice_start

    def coll_completed(
        self, t: int, node: int, comm_id: int, epoch: int, job: int
    ) -> None:
        """One node committed the epoch's result to its local ranks."""
        span = self._coll_by_key.get((job, comm_id, epoch))
        if span is None:
            return
        if span.completed_at is None or t > span.completed_at:
            span.completed_at = t
            span.completed_slice = self.slice_no

    # -- rank lifecycle -----------------------------------------------------------------

    def rank_started(self, t1: int, job: int, rank: int, t0: int) -> None:
        self.rank_start[(job, rank)] = (t0, t1)

    def rank_wait(self, job: int, rank: int, waited, t0: int, t1: int) -> None:
        """One rank blocked over [t0, t1] (t1 > t0) on ``waited``, a
        ``(completed_at, ref)`` pair per awaited request."""
        key = (job, rank)
        self.blocks.setdefault(key, []).append(RankBlock(t0, t1, "wait", waited))

    def rank_finished(self, t: int, job: int, rank: int) -> None:
        self.rank_finish[(job, rank)] = t

    # -- resolution (used by the critical-path walker) ------------------------------

    def resolve(self, ref: tuple):
        """A block entry's ref -> MessageSpan | CollectiveSpan | None."""
        kind, key = ref
        if kind == "msg":
            return self._span_by_send.get(key)
        if kind == "recv":
            return self._span_by_recv.get(key)
        return self._coll_by_key.get(key)

    @property
    def n_delivered(self) -> int:
        return sum(1 for m in self.messages if m.delivered_at is not None)

    def __repr__(self) -> str:
        return (
            f"<SpanTracker msgs={len(self.messages)} "
            f"colls={len(self.collectives)} ranks={len(self.rank_finish)}>"
        )
