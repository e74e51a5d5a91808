"""Kernel primitives that fold relay entries away.

- the microstrobe fan-out: one timeout, a strobe latency ahead, whose
  callback starts each participant's Strobe Receiver;
- the :class:`Latch` completion delay: ``max(t_last + delay, not_before)``;
- :meth:`Event.settle`: an event nobody watches (a process that returns
  unwaited, a request nobody yields, a latch that completes unwatched)
  is processed without a heap entry;
- :class:`Link`: a fabric transfer is one timeout, its link halves
  release lazily, and every grant happens where an eager release would
  have made it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bcs import BcsRuntime
from repro.bcs.strobe import BBM
from repro.network import Cluster, ClusterSpec
from repro.sim import Engine, Event, EventAlreadyTriggered, Latch, Resource
from repro.units import KiB, bw_time

# -- microstrobe fan-out ------------------------------------------------------------


def microstrobe_runtime(nodes):
    """A 4-node runtime whose ``nodes`` run a BBM body that logs when
    its Strobe Receiver starts it, and the log."""
    runtime = BcsRuntime(Cluster(ClusterSpec(n_nodes=4)))
    runtime.active_node_ids = [0, 1, 2, 3]
    env = runtime.env
    log = []
    for node in nodes:

        def body(node=node):
            log.append((env.now, node))
            yield from ()

        runtime.node_runtimes[node].ch.bbm_phase = body
    return runtime, log


def test_microstrobe_fan_out_starts_receivers_at_now_plus_latency_in_node_order():
    """One entry, one strobe latency ahead, keyed where it is created,
    starts every participant's receiver in ``nodes`` order."""
    runtime, log = microstrobe_runtime([1, 2, 3])
    env = runtime.env
    latency = runtime.ss.strobe_latency()
    cw = runtime.cluster.fabric.model.cw_latency(3)
    assert latency > 0
    env.timeout(latency).callbacks.append(lambda _: log.append((env.now, "queued-before")))

    def sender():
        yield from runtime.ss._microphase(BBM, [1, 2, 3], 0)
        log.append((env.now, "latch"))

    def later():
        # Created after the fan-out, at the same instant.
        yield env.timeout(latency)
        log.append((env.now, "queued-after"))

    env.process(sender())
    env.process(later())
    env.run()
    assert log == [
        (latency, "queued-before"),
        (latency, 1),
        (latency, 2),
        (latency, 3),
        (latency, "queued-after"),
        (latency + cw, "latch"),
    ]


def test_due_microstrobe_starts_receivers_in_the_running_entry():
    """A microstrobe whose sender slept in its place runs the receivers
    inline, ahead of an entry already queued at that instant."""
    runtime, log = microstrobe_runtime([1, 3])
    env = runtime.env
    latency = runtime.ss.strobe_latency()

    def sender():
        yield env.timeout(latency)
        env.timeout(0).callbacks.append(lambda _: log.append((env.now, "queued")))
        yield from runtime.ss._microphase(BBM, [1, 3], 0, began=0)
        log.append((env.now, "latch"))

    env.process(sender())
    env.run()
    assert log[:3] == [(latency, 1), (latency, 3), (latency, "queued")]
    assert log[3] == (latency + runtime.cluster.fabric.model.cw_latency(2), "latch")


# -- latch completion delay -------------------------------------------------------


def _fire_time(env, latch):
    fired = []
    latch.callbacks.append(lambda e: fired.append(env.now))
    return fired


@pytest.mark.parametrize(
    "delay,not_before,expected",
    [
        (5, 0, 13),  # t_last + delay
        (5, 20, 20),  # not_before wins
        (5, 13, 13),  # tie
        (0, 0, 8),  # plain latch: fires at the last count-down
    ],
)
def test_latch_fires_at_max_of_delay_and_not_before(delay, not_before, expected):
    env = Engine()
    latch = Latch(env, 2, delay=delay, not_before=not_before)
    fired = _fire_time(env, latch)

    def party(at):
        yield env.timeout(at)
        latch.count_down()

    env.process(party(3))
    env.process(party(8))
    env.run()
    assert fired == [expected]


@pytest.mark.parametrize("not_before,expected", [(0, 4), (2, 4), (9, 9)])
def test_latch_with_count_zero_fires_after_its_delay(not_before, expected):
    env = Engine()
    latch = Latch(env, 0, delay=4, not_before=not_before)
    assert latch.triggered
    fired = _fire_time(env, latch)
    env.run()
    assert fired == [expected]


def test_latch_rejects_negative_delay():
    env = Engine()
    with pytest.raises(ValueError):
        Latch(env, 1, delay=-1)


# -- unwatched events ----------------------------------------------------------------


def _child(env, value="r"):
    yield env.timeout(5)
    return value


def test_process_finishing_unwatched_leaves_no_heap_entry():
    env = Engine()
    proc = env.process(_child(env))
    env.run()
    # Init and the timeout; no finish entry.
    assert env._seq == 2
    assert proc.processed and proc.value == "r"
    assert not proc.is_alive


def test_watched_process_finish_keeps_its_entry():
    env = Engine()
    proc = env.process(_child(env))
    assert env.run(until=proc) == "r"
    assert env.now == 5
    assert env._seq == 3


def test_later_yield_of_unwatched_process_resumes_at_the_same_instant():
    env = Engine()
    proc = env.process(_child(env))
    log = []

    def late():
        # Queued after the child's timeout: the child has already
        # finished, unwatched, when this resumes at t=5.
        yield env.timeout(5)
        assert proc.processed
        value = yield proc
        log.append((env.now, value))
        value = yield env.all_of([proc])
        log.append((env.now, value[proc]))

    env.process(late())
    env.run()
    assert log == [(5, "r"), (5, "r")]


def test_run_until_an_unwatched_finished_process_returns_at_once():
    env = Engine()
    proc = env.process(_child(env))
    env.timeout(50)
    env.run(until=5)
    assert proc.processed
    assert env.run(until=proc) == "r"
    assert env.now == 5
    env.run()
    assert env.now == 50


def test_failed_process_keeps_its_entry_and_crashes_the_run():
    env = Engine()

    def bad():
        yield env.timeout(1)
        raise KeyError("boom")

    env.process(bad())
    with pytest.raises(KeyError):
        env.run()
    assert env._seq == 3


def test_settle_without_callbacks_is_processed_at_once():
    env = Engine()
    ev = env.event()
    assert ev.settle(4) is ev
    assert ev.processed and ev.value == 4
    assert env._seq == 0
    with pytest.raises(EventAlreadyTriggered):
        ev.settle(5)

    watched = env.event()
    seen = []
    watched.callbacks.append(lambda e: seen.append(e.value))
    watched.settle(6)
    assert not watched.processed
    env.run()
    assert seen == [6]


def test_unwatched_latch_settles_without_an_entry():
    """A latch that completes now with nobody watching is processed at
    once; one with a watcher or a completion delay keeps its entry."""
    env = Engine()
    latch = Latch(env, 2)
    latch.count_down().count_down()
    assert latch.processed and env._seq == 0

    watched = Latch(env, 1)
    seen = []
    watched.callbacks.append(lambda e: seen.append(env.now))
    watched.count_down()
    delayed = Latch(env, 1, delay=3)
    delayed.count_down()
    assert not watched.processed and not delayed.processed
    env.run()
    assert seen == [0] and delayed.processed and env.now == 3

    def late():
        # Yielding a settled latch resumes at the same instant.
        yield latch
        return env.now

    assert env.run(until=env.process(late())) == 3


# -- lazy link release ------------------------------------------------------------


def _fabric(n=4):
    return Cluster(ClusterSpec(n_nodes=n)).fabric


def _hold(fabric, size):
    model = fabric.model
    return model.dma_startup + bw_time(size + model.header_bytes, model.link_bandwidth)


def _latency(fabric, src, dst):
    return fabric.model.latency(fabric.tree.hops(src, dst))


def _transfer(fabric, log, tag, at, src, dst, size):
    env = fabric.env
    yield env.timeout(at)
    yield fabric.transfer(src, dst, size)
    log[tag] = env.now


def test_uncontended_unicast_is_one_timeout():
    fabric = _fabric()
    env = fabric.env
    log = {}
    env.process(_transfer(fabric, log, "a", 0, 0, 1, 4 * KiB))
    env.run()
    assert log == {"a": _hold(fabric, 4 * KiB) + _latency(fabric, 0, 1)}
    # Process start, the arrival timeout and the transfer's one timeout:
    # no release, no grant, no separate latency entry.
    assert env._seq == 3
    assert fabric.nics[0].tx.in_use == 0 and fabric.nics[1].rx.in_use == 0


@pytest.mark.parametrize("arrival", ["mid-hold", "before-release", "after-release"])
def test_contender_starts_when_the_hold_ends(arrival):
    """A contender for the same rx half starts at the first holder's end:
    arriving mid-hold, at the end instant ahead of the release's place
    in the heap order, or at it after the release."""
    fabric = _fabric()
    env = fabric.env
    size = 4 * KiB
    hold = _hold(fabric, size)
    log = {}
    if arrival == "before-release":
        # Queued at t=0 ahead of the holder's claim: runs at t=hold
        # before the release entry would have.
        env.process(_transfer(fabric, log, "b", hold, 2, 1, size))
    env.process(_transfer(fabric, log, "a", 0, 0, 1, size))
    if arrival != "before-release":
        at = hold // 2 if arrival == "mid-hold" else hold
        env.process(_transfer(fabric, log, "b", at, 2, 1, size))
    env.run()
    assert log["a"] == hold + _latency(fabric, 0, 1)
    assert log["b"] == 2 * hold + _latency(fabric, 2, 1)


def test_three_contenders_are_served_in_arrival_order():
    fabric = _fabric(n=5)
    env = fabric.env
    size = 4 * KiB
    hold = _hold(fabric, size)
    log = {}
    env.process(_transfer(fabric, log, 0, 0, 0, 4, size))
    for k, src in enumerate((3, 1, 2), start=1):
        env.process(_transfer(fabric, log, k, k * 10, src, 4, size))
    env.run()
    for k, src in enumerate((0, 3, 1, 2)):
        assert log[k] == (k + 1) * hold + _latency(fabric, src, 4)


def test_tx_free_rx_busy_holds_tx_while_queued_for_rx():
    """The ordered fallback: a transfer whose rx half is busy takes its
    free tx half first and holds it while it queues, so a later transfer
    from the same node waits even though its own rx half is free."""
    fabric = _fabric()
    env = fabric.env
    size = 4 * KiB
    hold = _hold(fabric, size)
    nics = fabric.nics
    log = {}
    env.process(_transfer(fabric, log, "busy", 0, 2, 1, size))
    env.process(_transfer(fabric, log, "queued", 10, 0, 1, size))
    env.process(_transfer(fabric, log, "behind", 20, 0, 3, size))

    def probe():
        yield env.timeout(30)
        assert nics[0].tx.in_use == 1 and nics[1].rx.queue_length == 1
        assert nics[0].tx.queue_length == 1 and nics[3].rx.in_use == 0

    env.process(probe())
    env.run()
    assert log["queued"] == 2 * hold + _latency(fabric, 0, 1)
    assert log["behind"] == 3 * hold + _latency(fabric, 0, 3)


def _eager_unicast(env, links, fabric, src, dst, size):
    """The two-phase transfer the lazy links replace: hold both halves
    for the wire time through a timeout, release them, then a second
    timeout for the switch latency."""
    model = fabric.model
    if src == dst:
        yield env.timeout(model.dma_startup + bw_time(size, model.link_bandwidth))
        return
    tx, rx = links[src, "tx"], links[dst, "rx"]
    claimed = tx.try_acquire()
    if claimed and not rx.try_acquire():
        tx.release()
        claimed = False
    if not claimed:
        yield tx.request()
        yield rx.request()
    try:
        yield env.timeout(_hold(fabric, size))
    finally:
        tx.release()
        rx.release()
    yield env.timeout(_latency(fabric, src, dst))


def _eager_multicast(env, links, fabric, src, dests, size):
    """The eager multicast: every half held through a wire timeout, then
    released, then a timeout for the multicast latency."""
    model = fabric.model
    remote = [d for d in dests if d != src]
    wire = model.dma_startup + bw_time(size + model.header_bytes, model.mcast_bandwidth)
    tx = links[src, "tx"]
    held = []
    if tx.try_acquire():
        for d in remote:
            if not links[d, "rx"].try_acquire():
                tx.release()
                for h in held:
                    links[h, "rx"].release()
                break
            held.append(d)
        else:
            yield env.timeout(wire)
            tx.release()
            for d in held:
                links[d, "rx"].release()
            yield env.timeout(model.multicast_latency(len(dests)))
            return
    yield tx.request()
    for d in remote:
        yield links[d, "rx"].request()
    yield env.timeout(wire)
    tx.release()
    for d in remote:
        links[d, "rx"].release()
    yield env.timeout(model.multicast_latency(len(dests)))


def _run_chains(chains, unicast, multicast, env):
    """Run each chain's legs back to back; ``unicast`` and ``multicast``
    return the leg's completion event or a generator that waits for it."""
    log = {}

    def chain(k, at, legs):
        yield env.timeout(at)
        for i, (src, dests, size) in enumerate(legs):
            if len(dests) == 1:
                leg = unicast(src, dests[0], size)
            else:
                leg = multicast(src, dests, size)
            if isinstance(leg, Event):
                yield leg
            else:
                yield from leg
            log[k, i] = env.now

    for k, (at, legs) in enumerate(chains):
        env.process(chain(k, at, legs))
    env.run()
    return log


N_NODES = 4
SIZES = (0, 64, 4 * KiB)
# A leg is a unicast (one destination) or a multicast (sorted dests).
_leg = st.tuples(
    st.integers(0, N_NODES - 1),
    st.lists(st.integers(0, N_NODES - 1), min_size=1, max_size=3, unique=True).map(
        sorted
    ),
    st.sampled_from(SIZES),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
            st.lists(_leg, min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_lazy_links_match_the_eager_two_phase_transfer(chains):
    """Random chains of unicasts and multicasts (arrivals on multiples
    of the hold times, so arrivals land on release instants) complete at
    the same instants with lazy links as with eagerly released ones."""
    fabric = _fabric(N_NODES)
    holds = [_hold(fabric, size) for size in SIZES[1:]]
    timed = [
        (a * holds[0] + b * holds[1] + c, legs) for (a, b, c), legs in chains
    ]
    lazy = _run_chains(timed, fabric.transfer, fabric.multicast, fabric.env)

    env = Engine()
    links = {
        (n, half): Resource(env, name=f"{n}.{half}")
        for n in range(N_NODES)
        for half in ("tx", "rx")
    }
    eager = _run_chains(
        timed,
        lambda src, dst, size: _eager_unicast(env, links, fabric, src, dst, size),
        lambda src, dests, size: _eager_multicast(env, links, fabric, src, dests, size),
        env,
    )
    assert lazy == eager
