"""Tests for the NIC model: events, FIFOs, thread processor."""

import pytest

from repro.network import Cluster, ClusterSpec
from repro.network.nic import Nic, NicEvent
from repro.sim import Engine


def test_nic_event_signal_then_poll():
    env = Engine()
    ev = NicEvent(env)
    assert not ev.poll()
    ev.signal()
    assert ev.peek()
    assert ev.poll()
    assert not ev.poll()  # consumed


def test_nic_event_counts_accumulate():
    env = Engine()
    ev = NicEvent(env)
    ev.signal(3)
    assert ev.count == 3
    assert ev.poll() and ev.poll() and ev.poll()
    assert not ev.poll()


def test_nic_event_invalid_signal():
    env = Engine()
    ev = NicEvent(env)
    with pytest.raises(ValueError):
        ev.signal(0)


def test_nic_event_wait_blocks_until_signal():
    env = Engine()
    ev = NicEvent(env)

    def waiter():
        yield from ev.wait()
        return env.now

    def signaler():
        yield env.timeout(25)
        ev.signal()

    proc = env.process(waiter())
    env.process(signaler())
    assert env.run(until=proc) == 25


def test_nic_event_wait_immediate_when_pending():
    env = Engine()
    ev = NicEvent(env)
    ev.signal()

    def waiter():
        yield from ev.wait()
        return env.now

    assert env.run(until=env.process(waiter())) == 0
    assert ev.count == 0


def test_nic_event_waiters_fifo():
    env = Engine()
    ev = NicEvent(env)
    order = []

    def waiter(tag):
        yield from ev.wait()
        order.append(tag)

    env.process(waiter("a"))
    env.process(waiter("b"))

    def signaler():
        yield env.timeout(1)
        ev.signal(2)

    env.process(signaler())
    env.run()
    assert order == ["a", "b"]


def test_nic_named_events_and_fifos_are_cached():
    env = Engine()
    nic = Nic(env, 0)
    assert nic.event("x") is nic.event("x")
    assert nic.event("x") is not nic.event("y")


def test_thread_processor_serializes_nic_compute():
    env = Engine()
    nic = Nic(env, 0, thread_op_cost=100)
    spans = []

    def worker(tag):
        start = env.now
        yield from nic.compute()
        spans.append((tag, start, env.now))

    env.process(worker("a"))
    env.process(worker("b"))
    env.run()
    # Second op waits for the first: total 200 ns, not 100.
    assert spans[1][2] == 200


class _NicSpans:
    """Stands in for the telemetry hub: keeps the NIC's log entries."""

    def __init__(self):
        self.events = []

    @property
    def spans(self):
        """The logged occupancy spans, ``(t0, t1, busy_ns)``, in log order."""
        return [(t0, t1, t1 - t0) for t1, _kind, _node, t0 in self.events]


def test_contended_nic_holds_report_disjoint_spans():
    """A hold that queued reports the interval it occupied the thread
    processor, not its wait: two spans on one track never overlap."""
    env = Engine()
    nic = Nic(env, 0, thread_op_cost=100)
    nic.obs = _NicSpans()

    def worker():
        yield from nic.compute()

    env.process(worker())
    env.process(worker())
    env.run()
    assert nic.obs.spans == [(0, 100, 100), (100, 200, 100)]


def test_batched_nic_compute_queues_fifo_and_reports_each_operation():
    env = Engine()
    nic = Nic(env, 0, thread_op_cost=100)
    nic.obs = _NicSpans()
    ends = []

    def worker(duration, n, at=0):
        yield env.timeout(at)
        yield from nic.compute(duration, n)
        ends.append(env.now)

    env.process(worker(100, 1))
    env.process(worker(30, 3, at=50))
    env.process(worker(-1, 1, at=60))
    env.run()
    assert ends == [100, 190, 290]
    assert nic.obs.spans == [
        (0, 100, 100),
        (100, 130, 30),
        (130, 160, 30),
        (160, 190, 30),
        (190, 290, 100),
    ]


def test_reserve_then_fires_after_the_hold_and_frees_the_processor_at_its_end():
    """``then`` delays the completion, not the thread processor: the next
    booking starts where the hold ends, and the spans are the holds."""
    env = Engine()
    nic = Nic(env, 0, thread_op_cost=100)
    nic.obs = _NicSpans()
    first = nic.reserve(then=1_000)
    second = nic.reserve(30, n=2)
    ends = []
    for done in (first, second):
        done.callbacks.append(lambda _e: ends.append(env.now))
    env.run()
    assert sorted(ends) == [160, 1_100]
    assert nic.obs.spans == [(100, 130, 30), (130, 160, 30), (0, 100, 100)]


def test_zero_cost_nic_compute_is_free():
    env = Engine()
    nic = Nic(env, 0, thread_op_cost=0)

    def worker():
        yield from nic.compute()
        yield from nic.compute(0)
        return env.now

    # Generators with no ops complete at t=0 (need an engine-run shim).
    def shim():
        yield env.timeout(0)
        yield from nic.compute()
        return env.now

    assert env.run(until=env.process(shim())) == 0


def test_cluster_wires_nics_to_nodes():
    cluster = Cluster(ClusterSpec(n_nodes=3))
    assert len(cluster.nodes) == 4  # 3 compute + 1 management
    assert cluster.management_node.id == 3
    for node in cluster.compute_nodes:
        assert node.nic.node_id == node.id
        assert node.cpu.capacity == 2


def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec(n_nodes=0)
    with pytest.raises(ValueError):
        ClusterSpec(n_nodes=2, cpus_per_node=0)
