"""Unit and behaviour tests for the fabric (contention, timing, multicast)."""

import pytest

from repro.network import Cluster, ClusterSpec, qsnet
from repro.obs import Observability
from repro.sim import Interrupt
from repro.units import KiB, MiB, bw_time, us


def make_cluster(n=4, **kw):
    return Cluster(ClusterSpec(n_nodes=n, **kw))


def test_unicast_completes_and_accumulates_bytes():
    cl = make_cluster()
    hub = cl.fabric.obs = Observability()
    done = []

    def body():
        yield cl.fabric.transfer(0, 1, 4 * KiB)
        done.append(cl.env.now)

    cl.env.process(body())
    cl.run()
    assert len(done) == 1
    assert done[0] > 0
    assert hub.events == [(done[0], "unicast", 0, 1, 4 * KiB, "")]


def test_unicast_time_has_latency_and_serialization():
    cl = make_cluster()
    model = cl.spec.model
    size = 1 * MiB

    def body():
        yield cl.fabric.transfer(0, 1, size)
        return cl.env.now

    t = cl.run(until=cl.env.process(body()))
    expected_min = bw_time(size, model.link_bandwidth)
    assert t >= expected_min
    # But not wildly more than serialization + latency + startup.
    assert t <= expected_min + model.latency(6) + model.dma_startup + us(50)


def test_larger_messages_take_longer():
    def time_for(size):
        cl = make_cluster()

        def body():
            yield cl.fabric.transfer(0, 1, size)
            return cl.env.now

        return cl.run(until=cl.env.process(body()))

    assert time_for(1 * MiB) > time_for(64 * KiB) > time_for(1 * KiB)


def test_farther_nodes_pay_more_latency():
    def time_for(dst):
        cl = make_cluster(n=16)

        def body():
            yield cl.fabric.transfer(0, dst, 0)
            return cl.env.now

        return cl.run(until=cl.env.process(body()))

    # Node 1 is a sibling (2 hops); node 15 crosses the root (4 hops).
    assert time_for(15) > time_for(1)


def test_loopback_skips_network():
    def time_for(src, dst):
        cl = make_cluster()

        def body():
            yield cl.fabric.transfer(src, dst, 1 * KiB)
            return cl.env.now

        return cl.run(until=cl.env.process(body()))

    # Local DMA avoids headers and wire latency entirely.
    assert time_for(2, 2) < time_for(0, 1)


def test_tx_contention_serializes_senders():
    """Two transfers from the same source share the tx link."""
    cl = make_cluster()
    size = 1 * MiB
    ends = []

    def one(dst):
        yield cl.fabric.transfer(0, dst, size)
        ends.append(cl.env.now)

    cl.env.process(one(1))
    cl.env.process(one(2))
    cl.run()
    single = bw_time(size, cl.spec.model.link_bandwidth)
    # The second transfer cannot finish before ~2x the serialization time.
    assert max(ends) >= 2 * single


def test_disjoint_transfers_run_concurrently():
    cl = make_cluster()
    size = 1 * MiB
    ends = []

    def one(src, dst):
        yield cl.fabric.transfer(src, dst, size)
        ends.append(cl.env.now)

    cl.env.process(one(0, 1))
    cl.env.process(one(2, 3))
    cl.run()
    single = bw_time(size, cl.spec.model.link_bandwidth)
    # Both finish in about one serialization time: full overlap.
    assert max(ends) < 2 * single


def test_rx_contention_serializes_receivers():
    cl = make_cluster()
    size = 1 * MiB
    ends = []

    def one(src):
        yield cl.fabric.transfer(src, 3, size)
        ends.append(cl.env.now)

    cl.env.process(one(0))
    cl.env.process(one(1))
    cl.run()
    single = bw_time(size, cl.spec.model.link_bandwidth)
    assert max(ends) >= 2 * single


def test_multicast_reaches_all_and_counts_bytes():
    cl = make_cluster(n=8)
    hub = cl.fabric.obs = Observability()

    def body():
        yield cl.fabric.multicast(0, range(1, 8), 4 * KiB)
        return cl.env.now

    t = cl.run(until=cl.env.process(body()))
    assert t > 0
    assert hub.events == [(t, "multicast", 0, tuple(range(1, 8)), 4 * KiB)]


def test_multicast_excludes_self_delivery_cost():
    cl = make_cluster(n=4)

    def body():
        # Destination set includes the source; should not deadlock.
        yield cl.fabric.multicast(0, [0, 1, 2], 1 * KiB)
        return cl.env.now

    assert cl.run(until=cl.env.process(body())) > 0


def test_empty_multicast_is_rejected():
    cl = make_cluster()
    with pytest.raises(ValueError):
        cl.fabric.multicast(0, [], 1 * KiB)


def test_concurrent_multicasts_do_not_deadlock():
    cl = make_cluster(n=8)
    done = []

    def caster(src):
        yield cl.fabric.multicast(src, range(8), 64 * KiB)
        done.append(src)

    for src in range(8):
        cl.env.process(caster(src))
    cl.run()
    assert sorted(done) == list(range(8))


def test_crossing_unicasts_do_not_deadlock():
    cl = make_cluster()
    done = []

    def one(src, dst):
        yield cl.fabric.transfer(src, dst, 1 * MiB)
        done.append((src, dst))

    cl.env.process(one(0, 1))
    cl.env.process(one(1, 0))
    cl.env.process(one(2, 3))
    cl.env.process(one(3, 2))
    cl.run()
    assert len(done) == 4


@pytest.mark.parametrize("tx_busy", [False, True])
def test_unicast_interrupted_waiting_for_rx_releases_tx(tx_busy):
    """A transfer interrupted while queued for the receiver's rx half must
    hand back the tx half it already holds, or the link leaks for ever."""
    cl = make_cluster()
    env = cl.env
    nics = cl.fabric.nics
    outcome = []

    def other(src, dst):
        yield cl.fabric.transfer(src, dst, 1 * MiB)

    def victim_body():
        try:
            yield cl.fabric.transfer(0, 1, 1 * MiB)
            outcome.append("done")  # pragma: no cover - interrupted first
        except Interrupt:
            outcome.append("interrupted")

    # Node 1's rx half is busy; with tx_busy, node 0's tx half is too
    # (a short transfer), so the victim takes the fully ordered path.
    env.process(other(2, 1))
    if tx_busy:
        cl.fabric.transfer(0, 3, 1 * KiB)
    victim = env.process(victim_body())

    def killer():
        yield env.timeout(us(50))
        assert nics[0].tx.in_use == 1 and nics[1].rx.queue_length == 1
        victim.interrupt()

    env.process(killer())
    cl.run()
    assert outcome == ["interrupted"]
    assert nics[0].tx.in_use == 0
    assert nics[1].rx.in_use == 0
    assert nics[1].rx.queue_length == 0


@pytest.mark.parametrize("tx_busy", [False, True])
def test_multicast_interrupted_waiting_for_rx_releases_its_halves(tx_busy):
    """A multicast interrupted while queued for its second rx half hands
    back the tx half and the first rx half it already holds, and leaves
    no claimant queued."""
    cl = make_cluster()
    env = cl.env
    nics = cl.fabric.nics
    outcome = []

    def victim_body():
        try:
            yield cl.fabric.multicast(0, [2, 1], 1 * MiB)
            outcome.append("done")  # pragma: no cover - interrupted first
        except Interrupt:
            outcome.append("interrupted")

    # Node 2's rx half is busy; with tx_busy, node 0's tx half is too
    # (a short transfer), so the victim claims every half in order.
    cl.fabric.transfer(3, 2, 1 * MiB)
    if tx_busy:
        cl.fabric.transfer(0, 3, 1 * KiB)
    victim = env.process(victim_body())

    def killer():
        yield env.timeout(us(50))
        assert nics[0].tx.in_use == 1 and nics[1].rx.in_use == 1
        assert nics[2].rx.queue_length == 1
        victim.interrupt()

    env.process(killer())
    cl.run()
    assert outcome == ["interrupted"]
    for nic in nics:
        for half in (nic.tx, nic.rx):
            assert half.in_use == 0 and half.queue_length == 0


def test_contended_multicast_claims_tx_then_rx_in_ascending_order():
    """A contended multicast is granted the tx half first, then each rx
    half in ascending node id: it does not claim a free rx half while an
    earlier one is still queued for."""
    cl = make_cluster(n=8)
    env = cl.env
    nics = cl.fabric.nics
    model = cl.spec.model
    tx_free, _ = _transfer_ns(cl, 0, 7, 1 * KiB)
    rx2_free, _ = _transfer_ns(cl, 5, 2, 64 * KiB)
    rx1_free, _ = _transfer_ns(cl, 4, 1, 1 * MiB)
    assert tx_free < rx2_free < rx1_free
    cl.fabric.transfer(0, 7, 1 * KiB)
    cl.fabric.transfer(4, 1, 1 * MiB)
    cl.fabric.transfer(5, 2, 64 * KiB)
    ends = []
    cl.fabric.multicast(0, [3, 1, 2], 4 * KiB).callbacks.append(
        lambda _done: ends.append(env.now)
    )
    halves = (nics[0].tx, nics[1].rx, nics[2].rx, nics[3].rx)
    seen = []

    def probe():
        for t in (tx_free // 2, (tx_free + rx2_free) // 2, (rx2_free + rx1_free) // 2):
            yield env.timeout(t - env.now)
            seen.append(tuple((half.in_use, half.queue_length) for half in halves))

    env.process(probe())
    cl.run()
    # (in_use, queue_length) of tx 0, rx 1, rx 2, rx 3 at each probe.
    assert seen == [
        ((1, 1), (1, 0), (1, 0), (0, 0)),  # queued for tx only
        ((1, 0), (1, 1), (1, 0), (0, 0)),  # tx held, queued for rx 1
        ((1, 0), (1, 1), (0, 0), (0, 0)),  # rx 2 free but not claimed yet
    ]
    hold = model.dma_startup + bw_time(4 * KiB + model.header_bytes, model.mcast_bandwidth)
    assert ends == [rx1_free + hold + model.multicast_latency(3)]


def _transfer_ns(cl, src, dst, size):
    """Hold plus switch latency of one uncontended unicast."""
    model = cl.spec.model
    hold = model.dma_startup + bw_time(size + model.header_bytes, model.link_bandwidth)
    return hold, model.latency(cl.fabric.tree.hops(src, dst))


@pytest.mark.parametrize("queued_on", ["tx", "rx"])
def test_interrupted_transfer_hands_its_links_to_later_claimants(queued_on):
    """A contended transfer interrupted while queued hands every link
    half back: a claimant queued behind it on the same half is granted
    when the half frees, and one queued on a half the victim already
    held is granted at the interrupt instant."""
    cl = make_cluster()
    env = cl.env
    nics = cl.fabric.nics
    size = 64 * KiB
    kill_at = us(20)
    ends = {}
    outcome = []

    def transfer(name, src, dst):
        yield cl.fabric.transfer(src, dst, size)
        ends[name] = env.now

    def victim_body(src, dst):
        try:
            yield cl.fabric.transfer(src, dst, size)
            outcome.append("done")  # pragma: no cover - interrupted first
        except Interrupt:
            outcome.append("interrupted")

    hold, _ = _transfer_ns(cl, 0, 1, size)
    if queued_on == "tx":
        # Node 0's tx half is busy until ``hold``: the victim queues on
        # it, and a later claimant queues behind the victim.
        env.process(transfer("first", 0, 1))
        victim = env.process(victim_body(0, 2))
        env.process(transfer("later", 0, 3))
        later_start = hold
    else:
        # Node 1's rx half is busy until ``hold``: the victim holds node
        # 0's tx half and queues on that rx half, a claimant on node 0's
        # tx queues behind the victim's tx grant, and one on node 1's rx
        # queues behind the victim.
        env.process(transfer("first", 2, 1))
        victim = env.process(victim_body(0, 1))
        env.process(transfer("later", 0, 2))
        env.process(transfer("rx_later", 3, 1))
        later_start = kill_at

    def killer():
        yield env.timeout(kill_at)
        if queued_on == "tx":
            assert nics[0].tx.queue_length == 2
        else:
            assert nics[0].tx.in_use == 1 and nics[1].rx.queue_length == 2
        victim.interrupt()

    env.process(killer())
    cl.run()
    assert outcome == ["interrupted"]
    src, dst = (0, 3) if queued_on == "tx" else (0, 2)
    later_hold, later_latency = _transfer_ns(cl, src, dst, size)
    assert ends["later"] == later_start + later_hold + later_latency
    if queued_on == "rx":
        rx_hold, rx_latency = _transfer_ns(cl, 3, 1, size)
        assert ends["rx_later"] == hold + rx_hold + rx_latency
    for nic in nics:
        for half in (nic.tx, nic.rx):
            assert half.in_use == 0 and half.queue_length == 0


def test_negative_size_rejected():
    cl = make_cluster()
    with pytest.raises(ValueError):
        cl.fabric.transfer(0, 1, -1)


def test_conditional_costs_cw_latency():
    cl = make_cluster(n=16)

    def body():
        yield cl.fabric.conditional(cl.fabric.n_nodes)
        return cl.env.now

    t = cl.run(until=cl.env.process(body()))
    assert t == cl.spec.model.cw_latency(cl.fabric.n_nodes)


def test_fabric_builds_model_topology():
    from repro.network import Torus3D, by_name

    cl = Cluster(ClusterSpec(n_nodes=8, model=by_name("bluegene_l_torus")))
    assert isinstance(cl.fabric.tree, Torus3D)
    done = []

    def body():
        yield cl.fabric.transfer(0, 5, 4 * KiB)
        done.append(cl.env.now)

    cl.env.process(body())
    cl.run()
    assert done and done[0] > 0
