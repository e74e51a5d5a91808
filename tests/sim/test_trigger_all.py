"""Tests for the one-entry fan-out (Engine.trigger_all, Signal.take_waiters)
and the synchronous fast path of Resource.held."""

import pytest

from repro.sim import Engine, Interrupt, Resource, Signal


def _fan_out_scenario(wake):
    """Three members with waiters, plus same-instant neighbours.

    ``wake(env, members)`` triggers the members; the log records every
    resumption in processing order.
    """
    env = Engine()
    log = []
    members = [env.event(name=n) for n in "ABC"]

    def waiter(tag, ev, then=None):
        value = yield ev
        log.append((env.now, tag, value))
        if then is not None:
            # A zero-delay event scheduled from a member's callback runs
            # after every member, as it would after back-to-back succeeds.
            yield env.timeout(0)
            log.append((env.now, then))

    def wake_at_t():
        yield env.timeout(5)
        before = env.event()
        before.callbacks.append(lambda e: log.append((env.now, "before")))
        before.succeed()
        wake(env, members)
        after = env.event()
        after.callbacks.append(lambda e: log.append((env.now, "after")))
        after.succeed()

    env.process(waiter("a1", members[0], then="a1-next"))
    env.process(waiter("b1", members[1]))
    env.process(waiter("a2", members[0]))
    env.process(waiter("c1", members[2]))
    env.process(wake_at_t())
    env.run()
    return log, env._seq


def test_trigger_all_matches_sequential_succeed():
    def sequential(env, members):
        for ev in members:
            ev.succeed(7)

    def fanned(env, members):
        assert env.trigger_all(members, 7) == 3

    seq_log, seq_entries = _fan_out_scenario(sequential)
    fan_log, fan_entries = _fan_out_scenario(fanned)
    assert fan_log == seq_log
    assert [entry[1] for entry in fan_log] == [
        "before", "a1", "a2", "b1", "c1", "after", "a1-next",
    ]
    # Three member entries collapse into one carrier.
    assert fan_entries == seq_entries - 2


def test_trigger_all_later_member_resumes_at_its_turn():
    """A waiter that yields a later member from an earlier member's
    callback resumes at that member's turn, not via a carry event."""
    env = Engine()
    a, b, c = env.event(), env.event(), env.event()
    log = []

    def hopper():
        yield a
        log.append("hopper@a")
        yield b
        log.append("hopper@b")

    def on(tag, ev):
        yield ev
        log.append(tag)

    env.process(hopper())
    env.process(on("b", b))
    env.process(on("c", c))

    def wake_at_t():
        yield env.timeout(1)
        env.trigger_all([a, b, c])

    env.process(wake_at_t())
    env.run()
    assert log == ["hopper@a", "b", "hopper@b", "c"]


def test_trigger_all_skips_triggered_and_empty_schedules_nothing():
    env = Engine()
    done = env.event()
    done.succeed("old")
    fresh = env.event()
    assert env.trigger_all([done, fresh], "new") == 1
    assert done.value == "old"
    assert fresh.value == "new"
    env.run()
    assert fresh.processed

    seq = env._seq
    assert env.trigger_all([], "x") == 0
    assert env.trigger_all([done, fresh], "x") == 0
    assert env._seq == seq
    assert env.peek() is None


def test_trigger_all_run_until_member_keeps_the_rest_queued():
    """Stopping the engine on a member leaves the later members where
    their own entries would have been."""
    env = Engine()
    members = [env.event() for _ in range(3)]
    log = []
    for i, ev in enumerate(members):
        ev.callbacks.append(lambda e, i=i: log.append(i))
    env.trigger_all(members, "v")
    assert env.run(until=members[0]) == "v"
    assert log == [0]
    assert not members[1].processed
    env.run()
    assert log == [0, 1, 2]


def test_signal_take_waiters_then_trigger_all_is_pulse():
    env = Engine()
    sig = Signal(env)
    waits = [sig.wait(), sig.wait()]
    waiters = sig.take_waiters()
    assert waiters == waits
    assert sig.pulse_count == 1
    assert sig.take_waiters() == []
    assert env.trigger_all(waiters, 3) == 2
    env.run()
    assert [w.value for w in waits] == [3, 3]
    assert sig.pulse(0) == 0


# -- Resource.held fast path ---------------------------------------------------


def test_held_uncontended_claims_without_a_grant_event():
    env = Engine()
    res = Resource(env, capacity=1)

    def worker():
        yield from res.held(10)

    proc = env.process(worker())
    # The claim is synchronous: init, hold timeout, process finish.
    env.run(until=proc)
    assert env.now == 10
    assert env._seq == 3
    assert res.in_use == 0


def test_held_fast_path_never_overtakes_a_queued_claimant():
    env = Engine()
    res = Resource(env, capacity=2)
    starts = {}

    def hold(tag, amount, delay):
        yield env.timeout(delay)
        yield from res.held(10, amount)
        starts[tag] = env.now - 10

    env.process(hold("first", 1, 0))
    # "big" queues for both units; "small" then finds one unit free but
    # must queue behind "big" instead of claiming it synchronously.
    env.process(hold("big", 2, 1))
    env.process(hold("small", 1, 2))
    env.run()
    assert starts == {"first": 0, "big": 10, "small": 20}
    assert res.in_use == 0


def test_held_interrupt_while_queued_dequeues():
    env = Engine()
    res = Resource(env, capacity=1)
    outcome = []

    def holder():
        yield from res.held(100)

    def waiter():
        try:
            yield from res.held(10)
        except Interrupt:
            outcome.append(env.now)

    env.process(holder())
    victim = env.process(waiter())

    def killer():
        yield env.timeout(5)
        victim.interrupt()

    env.process(killer())
    env.run()
    assert outcome == [5]
    assert res.in_use == 0
    assert res.queue_length == 0


@pytest.mark.parametrize("contended", [False, True])
def test_held_interrupt_while_holding_releases(contended):
    env = Engine()
    res = Resource(env, capacity=1)

    def holder():
        yield from res.held(3)

    def worker():
        try:
            yield from res.held(1000)
        except Interrupt:
            pass

    if contended:
        env.process(holder())
    victim = env.process(worker())

    def killer():
        yield env.timeout(50)
        assert res.in_use == 1
        victim.interrupt()

    env.process(killer())
    env.run()
    assert res.in_use == 0
