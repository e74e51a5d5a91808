"""MPI message matching, as performed by the Buffer Receiver.

During the Message Scheduling Microphase the BR "matches the remote send
descriptor list against the local receive descriptor list" (paper §4.3).
This module implements that matcher with full MPI semantics:

- (source, tag) matching with ``ANY_SOURCE`` / ``ANY_TAG`` wildcards,
- the non-overtaking rule: two sends on the same (comm, src, dst) pair
  match receives in the order they were posted,
- truncation detection when a matched message exceeds the receive buffer.

Two interchangeable implementations live here:

- :class:`LinearMatcher` — the original O(U×P) list scan.  Kept verbatim
  as the reference oracle for the differential tests; the reference
  slice engine (``BcsConfig(engine="reference")``) runs it.
- :class:`HashMatcher` — hash-bucketed queues; the fast slice engine's
  and the baseline MPI's matcher.  An exact operation (a send, a receive
  or probe naming both source and tag) is O(1); a wildcard receive or
  probe is O(unexpected sends held: under BCS, those on the node).  It
  produces the *identical* match sequence
  (`tests/bcs/test_matching_differential.py` pins this against the
  oracle for randomized streams).

Both take descriptors one at a time (``add_send``/``add_recv``) or as
one DEM batch per node (``add_send_batch``/``add_recv_batch``).  A batch
is matched as if its descriptors came one at a time, in order.  Only
:class:`HashMatcher` overrides a batch feed: a send batch of at least
``BATCH_MIN`` descriptors, with no wildcard receive posted, is joined
against the posted buckets over numpy columns.  ``probe`` answers
``MPI_Iprobe`` without building a descriptor.

``Matcher`` is an alias for the default implementation.

How the hashed structures preserve linear-scan semantics
--------------------------------------------------------

Like the posted and unexpected queues of MPICH2-style libraries, the
indexes hold exactly the pending descriptors: an entry leaves its bucket
when its descriptor is matched, cancelled or purged, and a bucket leaves
its dict with its last entry.

*Posted receives* live in exactly one bucket keyed by their own pattern
``(job, comm, rank, src, tag)`` — wildcards included, as literal key
components — and carry a post clock (``_seq``).  A send with concrete
``(src, tag)`` can only be matched by receives whose pattern is one of
four keys: ``(src, tag)``, ``(src, ANY)``, ``(ANY, tag)``,
``(ANY, ANY)``.  Looking up those four buckets and taking the head with
the smallest seq is therefore exactly "the first posted receive that
matches".  While no wildcard receive is posted (``_wild_posted == 0``)
only the exact bucket can hold a match, so ``add_send`` looks up that
one alone.

*Unexpected sends* live in one exact bucket ``(job, comm, dst, src,
tag)``, in arrival order, and in ``_usends``, the insertion-ordered
(= arrival-ordered) dict of all of them.  An exact receive takes the
head of its bucket.  A wildcard receive scans ``_usends`` for the first
send it matches — the linear scan's answer — and that send heads its
own exact bucket, since every earlier send of the bucket would match
too.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.errors import SimError
from .descriptors import ANY_SOURCE, ANY_TAG, Match, RecvDescriptor, SendDescriptor

#: Below this many sends a send batch takes the sequential object path —
#: the SoA column setup costs more than the vectorized join saves.
BATCH_MIN = 8


class TruncationError(SimError):
    """A matched message is larger than the posted receive buffer."""


class MatcherTotals:
    """Machine-wide (unexpected, posted) counts shared by all matchers.

    Every matcher keeps these aggregates current as descriptors are
    parked and matched, so telemetry that wants machine totals (the
    per-slice matcher gauges) reads two integers instead of polling all
    N per-node matchers.  The runtime hands one shared instance to every
    node's matcher; a matcher constructed without one gets its own.
    """

    __slots__ = ("unexpected", "posted")

    def __init__(self):
        self.unexpected = 0
        self.posted = 0

    def __repr__(self) -> str:
        return f"<MatcherTotals unexpected={self.unexpected} posted={self.posted}>"


class _MatcherBase:
    """Shared pairing / reporting logic of both matcher implementations."""

    node_id: int

    def _pair(self, send: SendDescriptor, recv: RecvDescriptor, via: str) -> Match:
        if send.size > recv.capacity:
            raise TruncationError(
                f"message of {send.size} B from rank {send.src_rank} "
                f"(tag {send.tag}) exceeds the {recv.capacity} B receive "
                f"buffer of rank {recv.rank}"
            )
        return Match(
            send=send,
            recv=recv,
            src_node=send.src_node,
            dst_node=self.node_id,
            total_bytes=send.size,
            matched_via=via,
        )

    # -- batch feeds -----------------------------------------------------------

    def add_send_batch(
        self, sends: Sequence[SendDescriptor]
    ) -> List[Tuple[int, Match]]:
        """Feed a batch of arrived sends; returns ``[(index, match), ...]``.

        Exactly equivalent to calling :meth:`add_send` for each
        descriptor in order; :class:`HashMatcher` overrides it with a
        vectorized join that produces the identical match sequence.
        """
        out: List[Tuple[int, Match]] = []
        add = self.add_send
        for i, send in enumerate(sends):
            m = add(send)
            if m is not None:
                out.append((i, m))
        return out

    def add_recv_batch(
        self, recvs: Sequence[RecvDescriptor]
    ) -> List[Tuple[int, Match]]:
        """Feed a batch of posted receives; returns ``[(index, match), ...]``.

        Exactly equivalent to calling :meth:`add_recv` for each
        descriptor in order; both matchers take this path.
        """
        out: List[Tuple[int, Match]] = []
        add = self.add_recv
        for i, recv in enumerate(recvs):
            m = add(recv)
            if m is not None:
                out.append((i, m))
        return out

    def withdraw(self, request) -> bool:
        """Remove the posted receive of ``request`` (``MPI_Cancel``);
        False if none is queued here."""
        for recv in self.posted:
            if recv.request is request:
                self._unpost(recv)
                self.totals.posted -= 1
                return True
        return False

    @property
    def pending_counts(self) -> tuple[int, int]:
        """(unexpected sends, posted receives) still queued."""
        raise NotImplementedError

    def __repr__(self) -> str:
        u, p = self.pending_counts
        return f"<{type(self).__name__} node={self.node_id} unexpected={u} posted={p}>"


class LinearMatcher(_MatcherBase):
    """Per-node matcher holding the unexpected and posted queues.

    The straightforward list-scan implementation; also the reference
    oracle the hashed matcher is differentially tested against.
    """

    __slots__ = ("node_id", "totals", "unexpected", "posted")

    def __init__(self, node_id: int, totals: Optional[MatcherTotals] = None):
        self.node_id = node_id
        self.totals = totals if totals is not None else MatcherTotals()
        #: Arrived send descriptors not yet matched (arrival order).
        self.unexpected: List[SendDescriptor] = []
        #: Posted receive descriptors not yet matched (post order).
        self.posted: List[RecvDescriptor] = []

    # -- queue feeds -----------------------------------------------------------

    def add_send(self, send: SendDescriptor) -> Optional[Match]:
        """An arrived send descriptor: match or park as unexpected."""
        for i, recv in enumerate(self.posted):
            if recv.matches(send):
                del self.posted[i]
                self.totals.posted -= 1
                return self._pair(send, recv, "send")
        self.unexpected.append(send)
        self.totals.unexpected += 1
        return None

    def add_recv(self, recv: RecvDescriptor) -> Optional[Match]:
        """A posted receive: match the earliest arrived send, or park."""
        for i, send in enumerate(self.unexpected):
            if recv.matches(send):
                del self.unexpected[i]
                self.totals.unexpected -= 1
                return self._pair(send, recv, "recv")
        self.posted.append(recv)
        self.totals.posted += 1
        return None

    def probe(self, job: int, comm: int, rank: int, source: int, tag: int) -> bool:
        """Would a receive with this pattern match an unexpected send?"""
        return any(
            send.job_id == job
            and send.comm_id == comm
            and send.dst_rank == rank
            and source in (ANY_SOURCE, send.src_rank)
            and tag in (ANY_TAG, send.tag)
            for send in self.unexpected
        )

    def _unpost(self, recv: RecvDescriptor) -> None:
        self.posted.remove(recv)

    def purge_job(self, job_id: int) -> None:
        """Drop every descriptor belonging to ``job_id``."""
        kept_u = [d for d in self.unexpected if d.job_id != job_id]
        kept_p = [d for d in self.posted if d.job_id != job_id]
        self.totals.unexpected -= len(self.unexpected) - len(kept_u)
        self.totals.posted -= len(self.posted) - len(kept_p)
        self.unexpected = kept_u
        self.posted = kept_p

    @property
    def pending_counts(self) -> tuple[int, int]:
        """(unexpected sends, posted receives) still queued."""
        return len(self.unexpected), len(self.posted)


class HashMatcher(_MatcherBase):
    """Hash-bucketed matcher: O(1) per exact operation.

    Semantically identical to :class:`LinearMatcher` — same match
    sequence, same truncation behavior, same queue ordering — but an
    exact operation looks up at most four buckets instead of scanning
    every pending descriptor (see the module docstring for the
    invariants).  Its indexes hold exactly the pending descriptors: no
    entry outlives its descriptor's match, cancel or purge, and no
    bucket is left empty.
    """

    __slots__ = (
        "node_id",
        "totals",
        "_seq",
        "_usends",
        "_precvs",
        "_u_buckets",
        "_p_buckets",
        "_wild_posted",
    )

    def __init__(self, node_id: int, totals: Optional[MatcherTotals] = None):
        self.node_id = node_id
        self.totals = totals if totals is not None else MatcherTotals()
        #: Post clock of the receives: "first posted" across buckets is a
        #: min-seq question.
        self._seq = 0
        #: Posted receives whose pattern contains a wildcard.  While this
        #: is zero, an arrived send can only match its exact bucket — the
        #: precondition for ``add_send``'s one-bucket probe and the
        #: vectorized send-batch join.
        self._wild_posted = 0
        #: Unexpected sends: desc_id -> send, insertion-ordered (= arrival
        #: order).
        self._usends: Dict[int, SendDescriptor] = {}
        #: Posted receives: desc_id -> (seq, recv), in post order; each
        #: entry is the very tuple its bucket holds.
        self._precvs: Dict[int, Tuple[int, RecvDescriptor]] = {}
        #: Unexpected sends bucketed by ``(job, comm, dst, src, tag)``.
        self._u_buckets: Dict[tuple, Deque[SendDescriptor]] = {}
        #: Posted receives bucketed by their own (wildcard-literal) pattern.
        self._p_buckets: Dict[tuple, Deque[Tuple[int, RecvDescriptor]]] = {}

    # -- queue feeds -----------------------------------------------------------

    def add_send(self, send: SendDescriptor) -> Optional[Match]:
        """An arrived send descriptor: match or park as unexpected."""
        j, c, d, s, t = send.job_id, send.comm_id, send.dst_rank, send.src_rank, send.tag
        exact = (j, c, d, s, t)
        buckets = self._p_buckets
        if self._wild_posted:
            best = best_key = None
            for key in (
                exact,
                (j, c, d, s, ANY_TAG),
                (j, c, d, ANY_SOURCE, t),
                (j, c, d, ANY_SOURCE, ANY_TAG),
            ):
                bucket = buckets.get(key)
                if bucket is not None and (best is None or bucket[0][0] < best[0][0]):
                    best, best_key = bucket, key
        else:
            best, best_key = buckets.get(exact), exact
        if best is not None:
            return self._take_recv(best, best_key, send)
        self.totals.unexpected += 1
        self._usends[send.desc_id] = send
        _append(self._u_buckets, exact, send)
        return None

    def add_recv(self, recv: RecvDescriptor) -> Optional[Match]:
        """A posted receive: match the earliest arrived send, or park."""
        j, c, r, s, t = recv.job_id, recv.comm_id, recv.rank, recv.src_rank, recv.tag
        buckets = self._u_buckets
        wild = s == ANY_SOURCE or t == ANY_TAG
        if not wild:
            key = (j, c, r, s, t)
            bucket = buckets.get(key)
        else:
            bucket = None
            send = self._first_unexpected(j, c, r, s, t)
            if send is not None:
                # The earliest match heads its exact bucket: every
                # earlier send of that bucket fits the same pattern.
                key = (j, c, r, send.src_rank, send.tag)
                bucket = buckets[key]
        if bucket is not None:
            send = bucket.popleft()
            if not bucket:
                del buckets[key]
            del self._usends[send.desc_id]
            self.totals.unexpected -= 1
            return self._pair(send, recv, "recv")

        self._seq += 1
        self.totals.posted += 1
        if wild:
            self._wild_posted += 1
        entry = self._precvs[recv.desc_id] = (self._seq, recv)
        _append(self._p_buckets, (j, c, r, s, t), entry)
        return None

    def probe(self, job: int, comm: int, rank: int, source: int, tag: int) -> bool:
        """Would a receive with this pattern match an unexpected send?"""
        if source != ANY_SOURCE and tag != ANY_TAG:
            return (job, comm, rank, source, tag) in self._u_buckets
        return self._first_unexpected(job, comm, rank, source, tag) is not None

    def _first_unexpected(self, j, c, r, s, t) -> Optional[SendDescriptor]:
        """The earliest arrived send a wildcard pattern matches: a scan of
        the unexpected sends in arrival order."""
        for send in self._usends.values():
            if (
                send.dst_rank == r
                and send.job_id == j
                and send.comm_id == c
                and (s == ANY_SOURCE or send.src_rank == s)
                and (t == ANY_TAG or send.tag == t)
            ):
                return send
        return None

    def _take_recv(self, bucket: Deque, key: tuple, send: SendDescriptor) -> Match:
        """Pair ``send`` with the head of the posted bucket ``key``."""
        _, recv = bucket.popleft()
        if not bucket:
            del self._p_buckets[key]
        del self._precvs[recv.desc_id]
        self.totals.posted -= 1
        if recv.src_rank == ANY_SOURCE or recv.tag == ANY_TAG:
            self._wild_posted -= 1
        return self._pair(send, recv, "send")

    # -- batch feeds -----------------------------------------------------------

    def add_send_batch(
        self, sends: Sequence[SendDescriptor]
    ) -> List[Tuple[int, Match]]:
        """Vectorized arrived-send batch (identical sequence to add_send).

        Fast path precondition: no wildcard receive is posted, so every
        send can only match the posted bucket keyed by its own exact
        pattern.  The join is decided in one pass over SoA columns
        (stable lexsort grouping by ``(job, comm, dst, src, tag)``),
        then applied in original batch order so pops and truncation
        raises land exactly where the object path puts them.  Wildcards
        present, or a tiny batch, fall back to the object path.
        """
        n = len(sends)
        if n < BATCH_MIN or self._wild_posted:
            return _MatcherBase.add_send_batch(self, sends)

        job = np.fromiter((s.job_id for s in sends), np.int64, n)
        comm = np.fromiter((s.comm_id for s in sends), np.int64, n)
        dst = np.fromiter((s.dst_rank for s in sends), np.int64, n)
        src = np.fromiter((s.src_rank for s in sends), np.int64, n)
        tag = np.fromiter((s.tag for s in sends), np.int64, n)
        # Stable sort: equal keys keep batch order, so the k-th group
        # member (in batch order) is the k-th claimant of its bucket.
        order = np.lexsort((tag, src, dst, comm, job))
        oj, oc, od, os_, ot = (
            job[order], comm[order], dst[order], src[order], tag[order],
        )
        newgrp = np.empty(n, dtype=bool)
        newgrp[0] = True
        newgrp[1:] = (
            (oj[1:] != oj[:-1])
            | (oc[1:] != oc[:-1])
            | (od[1:] != od[:-1])
            | (os_[1:] != os_[:-1])
            | (ot[1:] != ot[:-1])
        )
        grp = np.cumsum(newgrp) - 1
        starts = np.flatnonzero(newgrp)
        pos = np.arange(n)
        occ = pos - starts[grp]  # claim rank within the group

        # Per-group availability: the length of its exact posted bucket.
        buckets = self._p_buckets
        avail = np.zeros(len(starts), dtype=np.int64)
        group_keys: List[tuple] = []
        for g, st in enumerate(starts):
            s0 = sends[order[st]]
            key = (s0.job_id, s0.comm_id, s0.dst_rank, s0.src_rank, s0.tag)
            group_keys.append(key)
            bucket = buckets.get(key)
            if bucket is not None:
                avail[g] = len(bucket)
        matched = occ < avail[grp]
        takes = {int(order[p]): group_keys[grp[p]] for p in np.flatnonzero(matched)}

        out: List[Tuple[int, Match]] = []
        for i, send in enumerate(sends):
            key = takes.get(i)
            if key is not None:
                out.append((i, self._take_recv(buckets[key], key, send)))
            else:
                self.totals.unexpected += 1
                self._usends[send.desc_id] = send
                _append(
                    self._u_buckets,
                    (send.job_id, send.comm_id, send.dst_rank, send.src_rank, send.tag),
                    send,
                )
        return out

    # -- maintenance -----------------------------------------------------------

    def _unpost(self, recv: RecvDescriptor) -> None:
        entry = self._precvs.pop(recv.desc_id)
        key = (recv.job_id, recv.comm_id, recv.rank, recv.src_rank, recv.tag)
        bucket = self._p_buckets[key]
        bucket.remove(entry)  # by identity: seqs differ between entries
        if not bucket:
            del self._p_buckets[key]
        if recv.src_rank == ANY_SOURCE or recv.tag == ANY_TAG:
            self._wild_posted -= 1

    def purge_job(self, job_id: int) -> None:
        """Drop every descriptor belonging to ``job_id``.

        Rare (failure teardown), so it simply filters the authoritative
        queues and rebuilds the buckets, preserving post seqs.
        """
        before_u, before_p = len(self._usends), len(self._precvs)
        self._usends = {
            k: s for k, s in self._usends.items() if s.job_id != job_id
        }
        self._precvs = {
            k: v for k, v in self._precvs.items() if v[1].job_id != job_id
        }
        self.totals.unexpected -= before_u - len(self._usends)
        self.totals.posted -= before_p - len(self._precvs)
        self._u_buckets = {}
        for send in self._usends.values():
            key = (send.job_id, send.comm_id, send.dst_rank, send.src_rank, send.tag)
            _append(self._u_buckets, key, send)
        self._p_buckets = {}
        self._wild_posted = 0
        for entry in self._precvs.values():
            recv = entry[1]
            key = (recv.job_id, recv.comm_id, recv.rank, recv.src_rank, recv.tag)
            _append(self._p_buckets, key, entry)
            if recv.src_rank == ANY_SOURCE or recv.tag == ANY_TAG:
                self._wild_posted += 1

    # -- views -----------------------------------------------------------------

    @property
    def unexpected(self) -> List[SendDescriptor]:
        """Arrived-but-unmatched sends, in arrival order (snapshot)."""
        return list(self._usends.values())

    @property
    def posted(self) -> List[RecvDescriptor]:
        """Posted-but-unmatched receives, in post order (snapshot)."""
        return [recv for _, recv in self._precvs.values()]

    @property
    def pending_counts(self) -> tuple[int, int]:
        """(unexpected sends, posted receives) still queued — O(1)."""
        return len(self._usends), len(self._precvs)


def _append(family: dict, key: tuple, entry: tuple) -> None:
    bucket = family.get(key)
    if bucket is None:
        family[key] = deque((entry,))
    else:
        bucket.append(entry)


#: The default matcher implementation.
Matcher = HashMatcher
