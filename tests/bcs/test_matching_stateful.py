"""Stateful property test: the BR matcher vs a reference MPI matcher."""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.bcs import ANY_SOURCE, ANY_TAG, Matcher
from repro.bcs.descriptors import RecvDescriptor, SendDescriptor


class _Req:
    complete = False


#: Two jobs, so that ``purge_job`` always has one to keep.
JOBS = st.sampled_from([0, 1])


class ReferenceMatcher:
    """Straightforward O(n^2) restatement of the MPI matching rules."""

    def __init__(self):
        self.unexpected = []
        self.posted = []

    @staticmethod
    def _matches(recv, send):
        if recv["job"] != send["job"]:
            return False
        if recv["src"] not in (ANY_SOURCE, send["src"]):
            return False
        if recv["tag"] not in (ANY_TAG, send["tag"]):
            return False
        return True

    def add_send(self, send):
        for i, recv in enumerate(self.posted):
            if self._matches(recv, send):
                del self.posted[i]
                return (send["uid"], recv["uid"])
        self.unexpected.append(send)
        return None

    def add_recv(self, recv):
        for i, send in enumerate(self.unexpected):
            if self._matches(recv, send):
                del self.unexpected[i]
                return (send["uid"], recv["uid"])
        self.posted.append(recv)
        return None

    def withdraw(self, request):
        for i, recv in enumerate(self.posted):
            if recv["req"] is request:
                del self.posted[i]
                return True
        return False

    def purge_job(self, job):
        self.unexpected = [s for s in self.unexpected if s["job"] != job]
        self.posted = [r for r in self.posted if r["job"] != job]


class MatcherMachine(RuleBasedStateMachine):
    """Drive both matchers with the same operations; outcomes must agree."""

    def __init__(self):
        super().__init__()
        self.real = Matcher(0)
        self.ref = ReferenceMatcher()
        self.uid = 0
        self.seq = {}

    def _next_uid(self):
        self.uid += 1
        return self.uid

    @rule(job=JOBS, src=st.integers(0, 2), tag=st.integers(0, 2))
    def post_send(self, job, src, tag):
        uid = self._next_uid()
        seq = self.seq.get((job, src), 0)
        self.seq[(job, src)] = seq + 1
        send = SendDescriptor(
            job_id=job, comm_id=0, src_rank=src, dst_rank=0, tag=tag,
            size=8, request=_Req(), seq=seq,
        )
        send.uid = uid  # type: ignore[attr-defined]
        got = self.real.add_send(send)
        want = self.ref.add_send({"job": job, "src": src, "tag": tag, "uid": uid})
        got_pair = None if got is None else (got.send.uid, got.recv.uid)
        assert got_pair == want

    @rule(
        job=JOBS,
        src=st.sampled_from([ANY_SOURCE, 0, 1, 2]),
        tag=st.sampled_from([ANY_TAG, 0, 1, 2]),
    )
    def post_recv(self, job, src, tag):
        uid = self._next_uid()
        req = _Req()
        recv = RecvDescriptor(
            job_id=job, comm_id=0, rank=0, src_rank=src, tag=tag,
            capacity=1 << 30, request=req,
        )
        recv.uid = uid  # type: ignore[attr-defined]
        got = self.real.add_recv(recv)
        want = self.ref.add_recv(
            {"job": job, "src": src, "tag": tag, "uid": uid, "req": req}
        )
        got_pair = None if got is None else (got.send.uid, got.recv.uid)
        assert got_pair == want

    @rule(pick=st.integers(0, 63))
    def withdraw(self, pick):
        """MPI_Cancel of a posted receive, or of a request not queued."""
        posted = self.ref.posted
        req = posted[pick % len(posted)]["req"] if posted else _Req()
        assert self.real.withdraw(req) == self.ref.withdraw(req)

    @rule(job=JOBS)
    def purge_job(self, job):
        self.real.purge_job(job)
        self.ref.purge_job(job)

    @invariant()
    def queues_agree(self):
        assert len(self.real.unexpected) == len(self.ref.unexpected)
        assert len(self.real.posted) == len(self.ref.posted)
        # Same identities, same order.
        assert [s.uid for s in self.real.unexpected] == [
            s["uid"] for s in self.ref.unexpected
        ]
        assert [r.uid for r in self.real.posted] == [
            r["uid"] for r in self.ref.posted
        ]

    @invariant()
    def wildcard_count_is_exact(self):
        """``add_send`` probes only the exact bucket while the count reads
        0, so it must never undercount the posted wildcard receives."""
        wild = sum(
            r.src_rank == ANY_SOURCE or r.tag == ANY_TAG for r in self.real.posted
        )
        assert self.real._wild_posted == wild
        assert self.real.totals.posted == len(self.real.posted)

    @invariant()
    def index_holds_only_pending(self):
        """Every index entry is a pending descriptor, each pending
        descriptor is indexed once, and no bucket is empty."""
        pending = {id(d) for d in self.real.unexpected + self.real.posted}
        indexed = 0
        for attr in type(self.real).__slots__:
            if not attr.startswith(("_u_", "_p_")):
                continue
            for key, bucket in getattr(self.real, attr).items():
                assert bucket, (attr, key)
                for entry in bucket:
                    # A bucket holds descriptors or (seq, descriptor) pairs.
                    desc = entry[1] if type(entry) is tuple else entry
                    assert id(desc) in pending, (attr, key, desc)
                    indexed += 1
        assert indexed == len(pending)


MatcherMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestMatcherAgainstReference = MatcherMachine.TestCase
