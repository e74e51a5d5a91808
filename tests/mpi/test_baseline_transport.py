"""Differential test of the baseline MPI's message path.

:class:`BaselineRuntime` moves each message as a chain of callbacks on
the fabric's completion events, and a ``waitall`` blocks its rank on one
countdown record.  :class:`ProcessPath` keeps the earlier path: one
process per injected message and one per match, a loop that waits for
the receiver to enter the library, and a ``waitall`` over a condition
on every pending request.  Both must take every heap entry they share in
the same order, so random nonblocking programs must give the same
makespan, the same per-request completion times and contents, and the
same protocol log on both.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bcs.descriptors import ANY_SOURCE, _copy_payload
from repro.mpi.baseline import BaselineConfig, BaselineRuntime
from repro.network import Cluster, ClusterSpec
from repro.obs import Observability
from repro.storm import JobSpec
from repro.units import bw_time, seconds, us

EAGER = 4096
#: Message sizes: empty, tiny, exactly a control message (so eager data
#: and RTS/CTS land in the same instants), both sides of the eager
#: threshold, and a multi-link-hold rendezvous.
SIZES = [0, 1, 96, 1024, EAGER, EAGER + 1, 20_000]
COMPUTES = [us(1), us(3), us(10), us(40)]


class ProcessPath(BaselineRuntime):
    """The baseline's message path as one process per message stage."""

    def start_send(self, info, send):
        if send.size <= self.config.eager_threshold:
            send.payload = _copy_payload(send.payload)
        self.env.process(self._send_proc(info, send), name="mpi.send")

    def _send_proc(self, info, send):
        cfg = self.config
        fabric = self.cluster.fabric
        src_node = info.node_of(send.src_rank)
        dst_node = info.node_of(send.dst_rank)
        eager = send.size <= cfg.eager_threshold
        self.stats["eager" if eager else "rendezvous"] += 1
        if eager:
            yield fabric.transfer(src_node, dst_node, send.size, label="eager")
            send.request._finish()
            self._arrive(info, send)
            return
        yield fabric.transfer(src_node, dst_node, cfg.control_bytes, label="rts")
        self._arrive(info, send)

    def _on_match(self, info, match):
        self.env.process(self._finish_match(info, match), name="mpi.match")

    def _finish_match(self, info, match):
        cfg = self.config
        fabric = self.cluster.fabric
        send, recv = match.send, match.recv
        src_node = info.node_of(send.src_rank)
        dst_node = info.node_of(send.dst_rank)
        if send.size <= cfg.eager_threshold:
            if not recv.request.complete and send.size > 0:
                yield self.env.timeout(bw_time(send.size, cfg.copy_bandwidth))
        else:
            recv_world = info.world_ranks[send.dst_rank]
            yield from self.wait_progress_window(send.job_id, recv_world)
            yield fabric.transfer(dst_node, src_node, cfg.control_bytes, label="cts")
            yield fabric.transfer(src_node, dst_node, send.size, label="rdv")
            send.request._finish()
        recv.request.payload = _copy_payload(send.payload)
        recv.request.source = send.src_rank
        recv.request.tag = send.tag
        recv.request.size = send.size
        recv.request._finish()
        self.stats["messages_delivered"] += 1

    def wait_progress_window(self, job_id, world_rank):
        while self._in_mpi.get((job_id, world_rank), 0) <= 0:
            yield self._entry_signal(job_id, world_rank).wait()

    def waitall(self, comm, reqs):
        with comm._lib:
            yield from comm._overhead(self.config.wait_overhead)
            pending = [r for r in reqs if not r.complete]
            if pending:
                yield self.env.all_of(pending)
        return [r.payload for r in reqs]


def _interpret(ctx, program, messages, wild, requests):
    """Run this rank's steps: posts, computes and waitalls."""
    comm = ctx.comm
    runtime = comm._runtime
    mine = {}
    for kind, arg in program[ctx.rank]:
        if kind == "compute":
            yield from ctx.compute(arg)
        elif kind == "waitall":
            reqs = [mine[op] for op in arg]
            if isinstance(runtime, ProcessPath):
                yield from runtime.waitall(comm, reqs)
            else:
                yield from comm.waitall(reqs)
        else:
            src, dst, size, tag = messages[arg]
            if kind == "send":
                req = comm.isend(bytes([arg]) * size, dest=dst, tag=tag)
            else:
                req = comm.irecv(source=ANY_SOURCE if wild[dst, tag] else src, tag=tag)
            mine[kind, arg] = requests[ctx.rank, kind, arg] = req


@st.composite
def programs(draw):
    """A nonblocking program that cannot deadlock.

    Ranks sit on random nodes, several to a node or one each.  Every
    rank posts all of its sends and receives (a receive group of
    one destination and tag is all wildcards or all named, so each
    receive finds a message), then waits on them in a random partition
    of waitalls, one handle sometimes listed twice; computes sit
    anywhere in between.  A waitall while posting covers eager sends
    only, which complete without their receiver.
    """
    n_ranks = draw(st.integers(2, 5))
    n_nodes = draw(st.integers(1, n_ranks))
    placement = draw(st.lists(st.integers(0, n_nodes - 1), min_size=n_ranks, max_size=n_ranks))
    rank = st.integers(0, n_ranks - 1)
    messages = draw(
        st.lists(
            st.tuples(rank, rank, st.sampled_from(SIZES), st.integers(0, 1)),
            min_size=1,
            max_size=10,
        )
    )
    wild = {(dst, tag): draw(st.booleans()) for _, dst, _, tag in messages}
    program = []
    for r in range(n_ranks):
        ops = [("send", i) for i, m in enumerate(messages) if m[0] == r]
        ops += [("recv", i) for i, m in enumerate(messages) if m[1] == r]
        ops = draw(st.permutations(ops))
        steps, eager_sent = [], []
        for op in ops:
            if draw(st.booleans()):
                steps.append(("compute", draw(st.sampled_from(COMPUTES))))
            steps.append(op)
            if op[0] == "send" and messages[op[1]][2] <= EAGER:
                eager_sent.append(op)
                if draw(st.booleans()):
                    picked = draw(st.lists(st.sampled_from(eager_sent), min_size=1))
                    steps.append(("waitall", tuple(picked)))
        groups = {}
        for op in draw(st.permutations(ops)):
            groups.setdefault(draw(st.integers(0, 2)), []).append(op)
        for _, group in sorted(groups.items()):
            if draw(st.booleans()):
                group.append(group[0])
            if draw(st.booleans()):
                steps.append(("compute", draw(st.sampled_from(COMPUTES))))
            steps.append(("waitall", tuple(group)))
        program.append(steps)
    return placement, messages, wild, program


def _run(runtime_cls, case, wait_overhead):
    placement, messages, wild, program = case
    cluster = Cluster(ClusterSpec(n_nodes=max(placement) + 1))
    hub = cluster.fabric.obs = Observability()
    config = BaselineConfig(init_cost=0, eager_threshold=EAGER, wait_overhead=wait_overhead)
    runtime = runtime_cls(cluster, config)
    requests = {}
    params = dict(program=program, messages=messages, wild=wild, requests=requests)
    job = runtime.run_job(
        JobSpec(app=_interpret, n_ranks=len(program), params=params),
        placement,
        max_time=seconds(10),
    )
    assert job.complete
    return {
        "makespan": cluster.env.now,
        "requests": {
            key: (r.completed_at, r.payload, r.source, r.tag, r.size)
            for key, r in requests.items()
        },
        "log": hub.events,
        "stats": dict(runtime.stats),
    }


def _assert_same_path(case, wait_overhead):
    ref = _run(ProcessPath, case, wait_overhead)
    new = _run(BaselineRuntime, case, wait_overhead)
    assert new["makespan"] == ref["makespan"]
    assert new["requests"] == ref["requests"]
    assert new["log"] == ref["log"]
    assert new["stats"] == ref["stats"]


#: Rank 0's eager send to rank 2 and rank 1's RTS to rank 0 land in the
#: same instant.  Rank 0 must still be inside its waitall when the
#: rendezvous match looks for it, so the CTS leaves at once rather than
#: after rank 0's next compute.
_SAME_INSTANT = (
    [0, 1, 2],
    [(0, 2, 96, 0), (1, 0, 20_000, 0)],
    {(2, 0): False, (0, 0): False},
    [
        [
            ("recv", 1),
            ("send", 0),
            ("waitall", (("send", 0),)),
            ("compute", us(10)),
            ("waitall", (("recv", 1),)),
        ],
        [("send", 1), ("waitall", (("send", 1),))],
        [("recv", 0), ("waitall", (("recv", 0),))],
    ],
)


@settings(max_examples=150, deadline=None)
@given(case=programs(), wait_overhead=st.sampled_from([0, us(0.9)]))
@example(case=_SAME_INSTANT, wait_overhead=us(0.9))
def test_callback_path_matches_process_path(case, wait_overhead):
    _assert_same_path(case, wait_overhead)


def test_many_to_one_rendezvous_contention():
    """Four senders, eager and rendezvous, into one receiver's rx link,
    which computes while the rendezvous wait for it to enter the library."""
    messages = [(s, 0, size, 0) for s in (1, 2, 3, 4) for size in (EAGER, EAGER + 1)]
    program = [
        [("recv", i) for i in range(len(messages))]
        + [("compute", us(40)), ("waitall", tuple(("recv", i) for i in range(len(messages))))]
    ]
    for s in (1, 2, 3, 4):
        sends = tuple(("send", i) for i, m in enumerate(messages) if m[0] == s)
        program.append([*sends, ("waitall", sends + sends[:1])])
    case = ([0, 1, 2, 3, 4], messages, {(0, 0): True}, program)
    _assert_same_path(case, us(0.9))
