"""Unit tests for Resource, Signal, Gate."""

import pytest

from repro.sim import Engine, Gate, Resource, Signal


# --- Resource ---------------------------------------------------------------


def test_resource_serializes_fifo():
    env = Engine()
    res = Resource(env, capacity=1, name="link")
    order = []

    def user(tag, hold):
        yield res.request()
        order.append((env.now, tag, "in"))
        yield env.timeout(hold)
        res.release()
        order.append((env.now, tag, "out"))

    env.process(user("a", 10))
    env.process(user("b", 5))
    env.process(user("c", 1))
    env.run()
    assert order == [
        (0, "a", "in"),
        (10, "a", "out"),
        (10, "b", "in"),
        (15, "b", "out"),
        (15, "c", "in"),
        (16, "c", "out"),
    ]


def test_resource_capacity_allows_concurrency():
    env = Engine()
    res = Resource(env, capacity=2, name="duo")
    active = []
    peak = []

    def user(hold):
        yield res.request()
        active.append(1)
        peak.append(len(active))
        yield env.timeout(hold)
        active.pop()
        res.release()

    for _ in range(4):
        env.process(user(10))
    env.run()
    assert max(peak) == 2


def test_resource_multi_unit_request_blocks_smaller_later_ones():
    env = Engine()
    res = Resource(env, capacity=4, name="bw")
    order = []

    def user(tag, amount, hold):
        yield res.request(amount)
        order.append((env.now, tag))
        yield env.timeout(hold)
        res.release(amount)

    def staged():
        env.process(user("big", 4, 10))
        yield env.timeout(1)
        env.process(user("later-small", 1, 1))

    env.process(staged())
    env.run()
    assert order == [(0, "big"), (10, "later-small")]


def test_resource_request_validation():
    env = Engine()
    res = Resource(env, capacity=2)
    with pytest.raises(ValueError):
        res.request(0)
    with pytest.raises(ValueError):
        res.request(3)
    with pytest.raises(RuntimeError):
        res.release(1)


def test_resource_held_helper_releases_on_completion():
    env = Engine()
    res = Resource(env, capacity=1)

    def user():
        yield from res.held(5)
        return (env.now, res.in_use)

    assert env.run(until=env.process(user())) == (5, 0)


def test_resource_counters():
    env = Engine()
    res = Resource(env, capacity=3)

    def user():
        yield res.request(2)
        assert res.in_use == 2
        assert res.available == 1
        res.release(2)

    env.run(until=env.process(user()))
    assert res.in_use == 0


# --- Signal --------------------------------------------------------------------


def test_signal_wakes_all_waiters():
    env = Engine()
    sig = Signal(env)
    woken = []

    def waiter(tag):
        val = yield sig.wait()
        woken.append((tag, val, env.now))

    for tag in range(3):
        env.process(waiter(tag))

    def pulser():
        yield env.timeout(5)
        n = sig.pulse("edge")
        assert n == 3

    env.process(pulser())
    env.run()
    assert woken == [(0, "edge", 5), (1, "edge", 5), (2, "edge", 5)]


def test_signal_is_rearmable():
    env = Engine()
    sig = Signal(env)
    times = []

    def waiter():
        for _ in range(3):
            yield sig.wait()
            times.append(env.now)

    def pulser():
        for _ in range(3):
            yield env.timeout(10)
            sig.pulse()

    env.process(waiter())
    env.process(pulser())
    env.run()
    assert times == [10, 20, 30]


def test_signal_wait_after_pulse_sees_next_pulse_only():
    env = Engine()
    sig = Signal(env)

    def late_waiter():
        yield env.timeout(15)
        yield sig.wait()
        return env.now

    def pulser():
        yield env.timeout(10)
        sig.pulse()
        yield env.timeout(10)
        sig.pulse()

    proc = env.process(late_waiter())
    env.process(pulser())
    assert env.run(until=proc) == 20


# --- Gate -----------------------------------------------------------------------


def test_gate_open_passes_immediately():
    env = Engine()
    gate = Gate(env, is_open=True)

    def walker():
        yield gate.wait()
        return env.now

    assert env.run(until=env.process(walker())) == 0


def test_gate_closed_blocks_until_open():
    env = Engine()
    gate = Gate(env)

    def walker():
        yield gate.wait()
        return env.now

    def opener():
        yield env.timeout(12)
        gate.open()

    proc = env.process(walker())
    env.process(opener())
    assert env.run(until=proc) == 12
    assert gate.is_open


def test_gate_reclose_blocks_again():
    env = Engine()
    gate = Gate(env, is_open=True)
    times = []

    def walker():
        yield gate.wait()
        times.append(env.now)
        gate.close()
        yield gate.wait()
        times.append(env.now)

    def opener():
        yield env.timeout(7)
        gate.open()

    env.process(walker())
    env.process(opener())
    env.run()
    assert times == [0, 7]
