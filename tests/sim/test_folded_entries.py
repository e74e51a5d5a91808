"""Kernel primitives that fold relay entries away.

- ``Engine.trigger_all(..., delay=)``: one fan-out carrier that fires a
  fixed latency after the call;
- the :class:`Latch` completion delay: ``max(t_last + delay, not_before)``;
- :meth:`Event.settle`: an event nobody watches (a process that returns
  unwaited, a request nobody yields) is processed without a heap entry.
"""

import pytest

from repro.sim import Engine, EventAlreadyTriggered, Latch, ReusableLatch

# -- delayed fan-out ------------------------------------------------------------


def test_delayed_fan_out_wakes_members_at_now_plus_delay_in_list_order():
    env = Engine()
    log = []
    members = [env.event(name=n) for n in "ABC"]

    def waiter(tag, ev):
        value = yield ev
        log.append((env.now, tag, value))

    def tick(tag, at):
        yield env.timeout(at)
        log.append((env.now, tag))

    # Same instant as the carrier: queued before the call, and after it.
    env.process(tick("queued-before", 7))

    def waker():
        yield env.timeout(3)
        assert env.trigger_all(members, "s", delay=4) == 3
        # Members hold their value from the call on, processed at t=7.
        assert all(ev.triggered and not ev.processed for ev in members)
        yield env.timeout(2)
        yield env.timeout(2)
        log.append((env.now, "queued-after"))

    for tag, ev in zip("cab", [members[2], members[0], members[1]]):
        env.process(waiter(tag, ev))
    env.process(waker())
    env.run()
    assert log == [
        (7, "queued-before"),
        (7, "a", "s"),
        (7, "b", "s"),
        (7, "c", "s"),
        (7, "queued-after"),
    ]


def test_delayed_fan_out_skips_already_triggered_members():
    env = Engine()
    old = env.event()
    old.succeed("old")
    fresh = env.event()
    seen = []
    fresh.callbacks.append(lambda e: seen.append((env.now, e.value)))
    assert env.trigger_all([old, fresh], "new", delay=5) == 1
    assert old.value == "old"
    env.run()
    assert seen == [(5, "new")]

    seq = env._seq
    assert env.trigger_all([old, fresh], "x", delay=3) == 0
    assert env._seq == seq
    assert env.peek() is None


def test_delayed_fan_out_requeues_the_rest_under_the_delayed_key():
    """A member callback that raises (``run(until=member)``) leaves the
    later members queued at the carrier's delayed (time, seq) slot."""
    env = Engine()
    members = [env.event() for _ in range(3)]
    log = []
    for i, ev in enumerate(members):
        ev.callbacks.append(lambda e, i=i: log.append((env.now, i)))
    env.trigger_all(members, "v", delay=6)
    later = env.timeout(6)
    later.callbacks.append(lambda e: log.append((env.now, "later")))

    assert env.run(until=members[0]) == "v"
    assert env.now == 6
    assert log == [(6, 0)]
    assert not members[1].processed
    # The rest keep the carrier's slot: ahead of the timeout queued after it.
    env.run()
    assert log == [(6, 0), (6, 1), (6, 2), (6, "later")]


def test_trigger_all_rejects_negative_delay():
    env = Engine()
    with pytest.raises(ValueError):
        env.trigger_all([env.event()], delay=-1)


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


def test_reusable_latch_completion_delay_after_rearm():
    env = Engine()
    latch = ReusableLatch(env)
    log = []

    def owner():
        yield env.timeout(10)
        done = latch.rearm(1, delay=3)
        env.process(party(done, 2))
        yield done
        log.append(env.now)  # 12 + 3
        yield latch.rearm(0, delay=2, not_before=30)
        log.append(env.now)  # not_before wins
        done = latch.rearm(2, delay=1, not_before=31)
        env.process(party(done, 5))
        env.process(party(done, 7))
        yield done
        log.append(env.now)  # 37 + 1
        # A plain re-arm keeps no delay from the previous cycle.
        done = latch.rearm(1)
        env.process(party(done, 1))
        yield done
        log.append(env.now)

    def party(done, after):
        yield env.timeout(after)
        done.count_down()

    env.process(owner())
    env.run()
    assert log == [15, 30, 38, 39]


def test_latch_rejects_negative_delay():
    env = Engine()
    with pytest.raises(ValueError):
        Latch(env, 1, delay=-1)
    with pytest.raises(ValueError):
        ReusableLatch(env).rearm(1, delay=-1)


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
