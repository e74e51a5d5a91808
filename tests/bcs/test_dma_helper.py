"""The DMA Helper's chunk chains against the process-per-chunk helper.

:meth:`DmaHelper.p2p_phase` reserves every chunk's NIC hold at the
Strobe Receiver's turn of the microstrobe fan-out, moves the first chunk
in the Strobe Receiver's process and every later one as a chain of
callbacks counted by one latch; a loopback chunk's copy rides in its
hold's entry (:meth:`Fabric.local_copy`).  These tests run the helper
next to a test-local copy of the helper it replaced, which started one
child process per later chunk and gathered them with an ``AllOf``, and
require every chunk to land at the same instant.
"""

import types
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bcs import BcsConfig
from repro.bcs.descriptors import Match
from repro.bcs.threads import DmaHelper
from repro.network import Cluster, ClusterSpec
from repro.units import KiB

COST = BcsConfig().nic_descriptor_cost


def process_per_chunk_p2p(helper, mine):
    """The helper before the chains: a child process per later chunk."""
    env = helper.nrt.env
    rest = [env.process(_move_chunk(helper, m)) for m in mine[1:]]
    yield from _move_chunk(helper, mine[0])
    if rest:
        yield env.all_of(rest)


def _move_chunk(helper, match):
    nrt = helper.nrt
    t0 = nrt.env.now
    yield from nrt.nic.compute(nrt.config.nic_descriptor_cost)
    yield nrt.runtime.cluster.fabric.transfer(
        match.src_node, match.dst_node, match.scheduled_now, label="p2p"
    )
    helper._chunk_done(match, t0)


def _helper(cluster, node, obs):
    """A DMA Helper on ``node`` whose runtime logs into ``obs.events``:
    each chunk's landing instant is its ``chunk`` entry."""
    runtime = types.SimpleNamespace(cluster=cluster, stats=Counter(), obs=obs)
    nrt = types.SimpleNamespace(
        node_id=node,
        env=cluster.env,
        config=BcsConfig(),
        runtime=runtime,
        nic=cluster.fabric.nics[node],
    )
    return DmaHelper(nrt)


def run_phase(phase, chunks, nic_busy=(), background=(), at=10_000):
    """Run one P2P microphase of ``chunks`` (``(src, dst, size)``, in
    grant order) through ``phase`` on a 6-node machine.

    ``nic_busy`` books ``(node, ns)`` of NIC work right before the
    microstrobe; ``background`` starts ``(t, src, dst, size)`` transfers
    that contend for the chunks' links.  Returns every chunk's
    ``(t0, landed)``, each Strobe Receiver's end instant and the heap
    entries processed.  Each helper is handed its own node's chunks, in
    grant order, as the Strobe Sender hands them out.
    """
    cluster = Cluster(ClusterSpec(n_nodes=6))
    env = cluster.env
    obs = types.SimpleNamespace(events=[])
    granted = [
        Match(
            types.SimpleNamespace(desc_id=i),
            None,
            src,
            dst,
            total_bytes=1 << 40,
            scheduled_now=size,
        )
        for i, (src, dst, size) in enumerate(chunks)
    ]
    mine = {}
    for m in granted:
        mine.setdefault(m.dst_node, []).append(m)
    dsts = sorted(mine)
    helpers = {node: _helper(cluster, node, obs) for node in dsts}
    wakes = {node: env.event() for node in dsts}
    ends = {}

    def strobe_receiver(node):
        payload = yield wakes[node]
        yield from phase(helpers[node], payload[node])
        ends[node] = env.now

    def background_transfer(t, src, dst, size):
        yield env.timeout(t)
        yield cluster.fabric.transfer(src, dst, size)

    def strobe_sender():
        yield env.timeout(at)
        for node, ns in nic_busy:
            cluster.fabric.nics[node].reserve(ns)
        env.trigger_all([wakes[n] for n in dsts], mine)

    for node in dsts:
        env.process(strobe_receiver(node))
    for spec in background:
        env.process(background_transfer(*spec))
    env.process(strobe_sender())
    env.run()
    logged = {e[2]: (e[3], e[0]) for e in obs.events if e[1] == "chunk"}
    landed = [logged[i] for i in range(len(granted))]
    assert all(m.scheduled_now == 0 and m.bytes_done == c[2] for m, c in zip(granted, chunks))
    return landed, ends, env._seq - len(env._queue)


def assert_same_instants(chunks, **kw):
    chained, chained_ends, _ = run_phase(DmaHelper.p2p_phase, chunks, **kw)
    reference, reference_ends, _ = run_phase(process_per_chunk_p2p, chunks, **kw)
    assert chained == reference
    assert chained_ends == reference_ends


def test_mixed_loopback_and_remote_chunks_land_as_with_child_processes():
    """Two destinations, each with several chunks from loopback and
    remote sources; sources shared between destinations contend for
    their tx halves, and the loopbacks finish among the remote chunks."""
    chunks = [
        (3, 3, 8 * KiB),
        (0, 3, 16 * KiB),
        (3, 3, 1 * KiB),
        (1, 3, 4 * KiB),
        (0, 4, 16 * KiB),
        (4, 4, 2 * KiB),
        (0, 3, 2 * KiB),
        (1, 4, 8 * KiB),
        (3, 3, 32 * KiB),
    ]
    assert_same_instants(chunks)


def test_chunks_contending_with_background_transfers():
    """A transfer already on a chunk's rx half, and one arriving while
    the holds run, make the chunks take the claimed path."""
    chunks = [(0, 3, 8 * KiB), (1, 3, 8 * KiB), (3, 3, 4 * KiB), (2, 3, 8 * KiB)]
    background = [(9_000, 5, 3, 32 * KiB), (10_500, 1, 2, 16 * KiB)]
    assert_same_instants(chunks, background=background)


def test_later_chunks_finishing_before_chunk_zero_settle_the_latch():
    """Chunk 0 is a long remote get; the later chunks are short loopback
    copies that all land first.  The Strobe Receiver then never waits on
    the chunks' latch, and the latch takes no heap entry: each later
    chunk costs exactly one entry (its hold-plus-copy timeout)."""
    first = (0, 3, 256 * KiB)
    later = [(3, 3, 1 * KiB), (3, 3, 2 * KiB)]
    landed, ends, entries = run_phase(DmaHelper.p2p_phase, [first, *later])
    assert max(t for _, t in landed[1:]) < landed[0][1] == ends[3]
    _, _, alone = run_phase(DmaHelper.p2p_phase, [first])
    assert entries - alone == len(later)
    assert_same_instants([first, *later])


def test_latch_waits_for_chunks_landing_after_chunk_zero():
    first = (3, 3, 1 * KiB)
    later = [(0, 3, 64 * KiB), (1, 3, 8 * KiB)]
    landed, ends, _ = run_phase(DmaHelper.p2p_phase, [first, *later])
    assert ends[3] == max(t for _, t in landed) > landed[0][1]
    assert_same_instants([first, *later])


def test_nic_still_busy_when_p2p_starts():
    """Holds queue behind NIC work booked before the microstrobe, so the
    two nodes' chunk holds end at instants that no longer pair up by
    chunk index."""
    chunks = [
        (0, 3, 4 * KiB),
        (3, 3, 4 * KiB),
        (1, 3, 4 * KiB),
        (4, 4, 4 * KiB),
        (0, 4, 4 * KiB),
        (2, 4, 4 * KiB),
    ]
    assert_same_instants(chunks, nic_busy=[(3, COST // 2), (4, 3 * COST)])


# -- hold plus loopback -------------------------------------------------------------


def _one_node_ops(fold, ops):
    """Run ``ops`` (``(arrival, kind, cost, size)``) on node 0's NIC.

    ``kind`` is "copy" (a hold then a loopback transfer) or "hold" (NIC
    work alone).  With ``fold`` a copy is one :meth:`Fabric.local_copy`
    timeout, otherwise the hold and the loopback are two steps.  Returns
    each op's completion instant, the NIC's occupancy spans and the
    logged transfers.
    """
    cluster = Cluster(ClusterSpec(n_nodes=2))
    env = cluster.env
    fabric = cluster.fabric
    nic = fabric.nics[0]
    nic.obs = fabric.obs = types.SimpleNamespace(events=[])
    ends = {}

    def op(i, arrival, kind, cost, size):
        yield env.timeout(arrival)
        if kind == "copy" and fold:
            yield fabric.local_copy(nic, cost, size, "p2p")
        else:
            yield from nic.compute(cost)
            if kind == "copy":
                yield fabric.transfer(0, 0, size, "p2p")
        ends[i] = env.now

    for i, spec in enumerate(ops):
        env.process(op(i, *spec))
    env.run()
    events = nic.obs.events
    busy = sorted(
        (node, t0, t1, t1 - t0) for t1, kind, node, t0 in
        (e for e in events if e[1] != "unicast")
    )
    unicasts = sorted(e for e in events if e[1] == "unicast")
    return ends, busy, unicasts


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 4_000),
            st.sampled_from(["copy", "hold"]),
            st.sampled_from([0, 500, 1_000, 1_700]),
            st.integers(0, 64 * KiB),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_hold_plus_loopback_matches_hold_then_loopback(ops):
    assert _one_node_ops(True, ops) == _one_node_ops(False, ops)
