"""Unit tests for the hot-path primitives: Latch and Resource.try_acquire."""

import pytest

from repro.sim import Engine, EventAlreadyTriggered, Latch
from repro.sim.resources import Resource


# -- Latch --------------------------------------------------------------------


def test_latch_triggers_at_zero():
    env = Engine()
    latch = Latch(env, 3)
    latch.count_down()
    latch.count_down()
    assert not latch.triggered
    latch.count_down()
    assert latch.triggered


def test_latch_zero_count_is_immediate():
    env = Engine()
    assert Latch(env, 0).triggered


def test_latch_negative_count_rejected():
    env = Engine()
    with pytest.raises(ValueError):
        Latch(env, -1)


def test_latch_overdrain_rejected():
    env = Engine()
    latch = Latch(env, 1)
    latch.count_down()
    with pytest.raises(EventAlreadyTriggered):
        latch.count_down()


def test_latch_bulk_count_down():
    env = Engine()
    latch = Latch(env, 5)
    latch.count_down(4)
    assert not latch.triggered
    latch.count_down()
    assert latch.triggered
    with pytest.raises(ValueError):
        Latch(env, 2).count_down(0)


def test_latch_wakes_waiting_process():
    env = Engine()
    latch = Latch(env, 2)
    woken_at = []

    def waiter():
        yield latch
        woken_at.append(env.now)

    def worker(delay):
        yield env.timeout(delay)
        latch.count_down()

    env.process(waiter())
    env.process(worker(10))
    env.process(worker(25))
    env.run()
    assert woken_at == [25]


# -- Resource.try_acquire -----------------------------------------------------


def test_try_acquire_claims_free_units():
    env = Engine()
    res = Resource(env, capacity=2)
    assert res.try_acquire()
    assert res.try_acquire()
    assert not res.try_acquire()
    assert res.in_use == 2
    res.release()
    assert res.try_acquire()


def test_try_acquire_refuses_while_waiters_queued():
    """The fast path must never overtake a queued FIFO claimant."""
    env = Engine()
    res = Resource(env, capacity=1)
    first = res.request()
    assert first.triggered
    second = res.request()  # queued behind first
    assert not second.triggered
    res.release()  # grants second
    assert second.triggered
    # Units are taken and the queue is empty again.
    assert not res.try_acquire()
    res.release()
    assert res.try_acquire()
    res.release()


def test_try_acquire_validates_amount():
    env = Engine()
    res = Resource(env, capacity=2)
    with pytest.raises(ValueError):
        res.try_acquire(0)
    with pytest.raises(ValueError):
        res.try_acquire(3)


def test_try_acquire_matches_request_grant_instant():
    """At any instant, try_acquire succeeds iff request() would be
    granted synchronously."""
    env = Engine()
    res = Resource(env, capacity=3)
    for amount in (1, 2, 3):
        probe = res.try_acquire(amount)
        req = res.request(amount)
        if probe:
            res.release(amount)  # undo the probe before comparing
        # With the probe undone, the request is granted iff the probe
        # succeeded (both see identical availability).
        assert req.triggered == probe
        if req.triggered:
            res.release(amount)
        else:
            req.cancel()
