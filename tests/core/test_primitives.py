"""Tests for the BCS core primitives against the paper's §2 semantics."""

import pytest

from repro.core import BcsCore
from repro.network import Cluster, ClusterSpec
from repro.units import KiB, bw_time


def make_core(n=4):
    cluster = Cluster(ClusterSpec(n_nodes=n))
    return cluster, BcsCore(cluster)


# --- Xfer-And-Signal -----------------------------------------------------------


def test_xfer_writes_global_data_on_single_node():
    cluster, core = make_core()

    def body():
        core.xfer_and_signal(0, 2, size=1 * KiB, addr="x", value=42, remote_event="done")
        yield from core.test_event(2, "done")
        return core.gas.read(2, "x")

    assert cluster.run(until=cluster.env.process(body())) == 42


def test_xfer_multicast_writes_all_destinations():
    cluster, core = make_core(n=8)

    def body():
        core.xfer_and_signal(
            0, range(1, 8), size=256, addr="flag", value="set", remote_event="e"
        )
        for node in range(1, 8):
            yield from core.test_event(node, "e")
        return core.gas.gather(range(1, 8), "flag")

    assert cluster.run(until=cluster.env.process(body())) == ["set"] * 7


def test_xfer_is_nonblocking_and_signals_local_event():
    cluster, core = make_core()
    t_posted = []

    def body():
        core.xfer_and_signal(0, 1, size=64 * KiB, local_event="sent")
        t_posted.append(cluster.env.now)  # must be immediate
        yield from core.test_event(0, "sent")
        return cluster.env.now

    t_done = cluster.run(until=cluster.env.process(body()))
    assert t_posted == [0]
    assert t_done > 0


def test_xfer_atomicity_no_partial_state_before_completion():
    """Global data must not appear at any destination before commit."""
    cluster, core = make_core(n=4)
    observed = []

    def observer():
        # Sample all destinations halfway through the transfer.
        yield cluster.env.timeout(1)
        observed.append(core.gas.gather([1, 2, 3], "v"))

    def body():
        core.xfer_and_signal(0, [1, 2, 3], size=1 * KiB, addr="v", value=7, remote_event="e")
        for node in (1, 2, 3):
            yield from core.test_event(node, "e")
        observed.append(core.gas.gather([1, 2, 3], "v"))

    cluster.env.process(observer())
    cluster.run(until=cluster.env.process(body()))
    assert observed[0] == [None, None, None]  # nothing mid-flight
    assert observed[1] == [7, 7, 7]  # everything after commit


def test_xfer_payload_writer_called_per_destination():
    cluster, core = make_core(n=4)
    deposited = []

    def body():
        core.xfer_and_signal(
            0,
            [1, 3],
            size=128,
            remote_event="e",
            payload_writer=lambda node: deposited.append(node),
        )
        yield from core.test_event(1, "e")
        yield from core.test_event(3, "e")

    cluster.run(until=cluster.env.process(body()))
    assert deposited == [1, 3]


def test_xfer_starts_its_transfer_in_its_own_entry():
    """A put starts its transfer from a zero-delay entry queued at the
    call: a same-instant entry queued before the put wins the source's
    tx half, and the put's transfer waits for it."""
    cluster, core = make_core()
    env, fabric, model = cluster.env, cluster.fabric, cluster.spec.model
    size = 64 * KiB
    hold = model.dma_startup + bw_time(size + model.header_bytes, model.link_bandwidth)
    ends = {}

    def claim_tx(_entry):
        done = fabric.transfer(0, 2, size)
        done.callbacks.append(lambda _done: ends.setdefault("other", env.now))

    def body():
        env.timeout(0).callbacks.append(claim_tx)
        core.xfer_and_signal(0, 1, size=size, local_event="sent")
        yield from core.test_event(0, "sent")
        ends["put"] = env.now

    env.process(body())
    cluster.run()
    latency = model.latency(fabric.tree.hops(0, 1))
    assert ends == {
        "other": hold + model.latency(fabric.tree.hops(0, 2)),
        "put": 2 * hold + latency,
    }


def test_xfer_starts_no_process(process_starts):
    cluster, core = make_core()
    core.xfer_and_signal(0, 1, size=1 * KiB, addr="x", value=1, local_event="a")
    core.xfer_and_signal(0, [1, 2, 3], size=1 * KiB, remote_event="b")
    cluster.run()
    assert process_starts == []
    assert core.gas.read(1, "x") == 1
    assert core.test_event_poll(0, "a") and core.test_event_poll(3, "b")


def test_xfer_requires_destinations():
    cluster, core = make_core()
    with pytest.raises(ValueError):
        core.xfer_and_signal(0, [], size=1)


# --- Test-Event ------------------------------------------------------------------


def test_test_event_poll_nonblocking():
    cluster, core = make_core()
    assert core.test_event_poll(1, "never") is False
    cluster.node(1).nic.event("never").signal()
    assert core.test_event_poll(1, "never") is True
    assert core.test_event_poll(1, "never") is False  # consumed


def test_test_event_blocking_waits_for_signal():
    cluster, core = make_core()

    def waiter():
        yield from core.test_event(0, "sig")
        return cluster.env.now

    def signaler():
        yield cluster.env.timeout(500)
        cluster.node(0).nic.event("sig").signal()

    proc = cluster.env.process(waiter())
    cluster.env.process(signaler())
    assert cluster.run(until=proc) == 500


def test_event_counts_accumulate():
    cluster, core = make_core()
    ev = cluster.node(0).nic.event("acc")
    ev.signal(3)

    def body():
        yield from core.test_event(0, "acc")
        yield from core.test_event(0, "acc")
        yield from core.test_event(0, "acc")
        return cluster.env.now

    assert cluster.run(until=cluster.env.process(body())) == 0


# --- Compare-And-Write ----------------------------------------------------------------


def test_caw_true_on_all_nodes():
    cluster, core = make_core(n=4)
    for n in range(4):
        core.gas.write(n, "ready", 1)

    def body():
        ok = yield from core.compare_and_write(0, range(4), "ready", ">=", 1)
        return ok

    assert cluster.run(until=cluster.env.process(body())) is True


def test_caw_false_if_any_node_fails():
    cluster, core = make_core(n=4)
    for n in range(3):
        core.gas.write(n, "ready", 1)
    core.gas.write(3, "ready", 0)

    def body():
        ok = yield from core.compare_and_write(0, range(4), "ready", ">=", 1)
        return ok

    assert cluster.run(until=cluster.env.process(body())) is False


def test_caw_conditional_write_applied_only_when_true():
    cluster, core = make_core(n=4)
    for n in range(4):
        core.gas.write(n, "phase", 2)

    def body():
        ok = yield from core.compare_and_write(
            0, range(4), "phase", "==", 2, write_addr="go", write_value="now"
        )
        assert ok
        # Now a failing one: write must not happen.
        ok2 = yield from core.compare_and_write(
            0, range(4), "phase", "==", 99, write_addr="go2", write_value="x"
        )
        assert not ok2
        return core.gas.gather(range(4), "go"), core.gas.gather(range(4), "go2")

    go, go2 = cluster.run(until=cluster.env.process(body()))
    assert go == ["now"] * 4
    assert go2 == [None] * 4


def test_caw_all_operators():
    cluster, core = make_core(n=2)
    core.gas.write(0, "v", 5)
    core.gas.write(1, "v", 5)

    def body():
        results = {}
        for op, ref, expect in [
            (">=", 5, True),
            (">=", 6, False),
            ("<", 6, True),
            ("<", 5, False),
            ("==", 5, True),
            ("!=", 4, True),
            ("!=", 5, False),
        ]:
            got = yield from core.compare_and_write(0, [0, 1], "v", op, ref)
            results[(op, ref)] = got
        return [results[k] == e for (k), e in []] or results

    results = cluster.run(until=cluster.env.process(body()))
    assert results[(">=", 5)] and not results[(">=", 6)]
    assert results[("<", 6)] and not results[("<", 5)]
    assert results[("==", 5)]
    assert results[("!=", 4)] and not results[("!=", 5)]


def test_caw_rejects_unknown_operator():
    cluster, core = make_core()

    def body():
        yield from core.compare_and_write(0, [0], "v", "<=", 1)

    proc = cluster.env.process(body())
    with pytest.raises(ValueError):
        cluster.run(until=proc)


def test_caw_takes_table1_latency():
    cluster, core = make_core(n=16)

    def body():
        yield from core.compare_and_write(0, range(16), "v", "==", None)
        return cluster.env.now

    assert cluster.run(until=cluster.env.process(body())) == cluster.spec.model.cw_latency(16)


def test_caw_default_for_unwritten_variables():
    cluster, core = make_core(n=2)

    def body():
        ok = yield from core.compare_and_write(0, [0, 1], "nope", "==", 0, default=0)
        return ok

    assert cluster.run(until=cluster.env.process(body())) is True


def test_concurrent_caw_sequential_consistency():
    """Overlapping conditional writes leave one final value everywhere."""
    cluster, core = make_core(n=4)
    for n in range(4):
        core.gas.write(n, "token", 0)

    def writer(val):
        ok = yield from core.compare_and_write(
            0, range(4), "token", ">=", 0, write_addr="winner", write_value=val
        )
        assert ok

    cluster.env.process(writer("a"))
    cluster.env.process(writer("b"))
    cluster.run()
    values = set(core.gas.gather(range(4), "winner"))
    assert len(values) == 1  # all nodes agree on the same final value
