"""Edge-case tests for the DES kernel (interrupt/cancel interactions,
foreign events, scheduling validation)."""

import pytest

from repro.sim import Engine, Interrupt, Resource


def test_schedule_negative_delay_rejected():
    env = Engine()
    ev = env.event()
    ev._ok = True
    ev._value = None
    with pytest.raises(ValueError):
        env.schedule(ev, delay=-1)


def test_yield_event_from_other_engine_fails():
    env1 = Engine()
    env2 = Engine()
    foreign = env2.timeout(5)

    def body():
        yield foreign

    proc = env1.process(body())
    with pytest.raises(ValueError, match="different engine"):
        env1.run(until=proc)


def test_run_until_bad_type():
    env = Engine()
    with pytest.raises(TypeError):
        env.run(until="soon")


def test_interrupt_cancels_pending_resource_request():
    """An interrupted waiter must not leak capacity (the FT bug)."""
    env = Engine()
    res = Resource(env, capacity=1)

    def holder():
        yield res.request()
        yield env.timeout(100)
        res.release()

    def waiter():
        try:
            yield res.request()
            res.release()  # pragma: no cover - should not be granted
        except Interrupt:
            return "interrupted"

    env.process(holder())
    victim = env.process(waiter())

    def killer():
        yield env.timeout(10)
        victim.interrupt()

    env.process(killer())
    env.run()
    # After the holder releases, capacity is fully back.
    assert res.in_use == 0
    assert res.queue_length == 0


def test_interrupt_of_granted_but_unprocessed_request_releases():
    env = Engine()
    res = Resource(env, capacity=1)
    outcome = {}

    def waiter():
        try:
            yield res.request()
            outcome["granted"] = True
        except Interrupt:
            outcome["interrupted"] = True

    victim = env.process(waiter())

    def killer():
        # Same timestep as the grant: the request triggers, then the
        # interrupt lands before the process resumes.
        victim.interrupt()
        yield env.timeout(0)

    # Request is granted immediately at creation (capacity free), so
    # interrupting now exercises the triggered-but-unprocessed path.
    env.process(killer())
    env.run()
    assert outcome == {"interrupted": True}
    assert res.in_use == 0


def test_interrupt_during_held_releases_resource():
    env = Engine()
    res = Resource(env, capacity=1)

    def worker():
        try:
            yield from res.held(1000)
        except Interrupt:
            pass

    victim = env.process(worker())

    def killer():
        yield env.timeout(5)
        victim.interrupt()

    env.process(killer())
    env.run()
    assert res.in_use == 0


def test_process_return_none_by_default():
    env = Engine()

    def body():
        yield env.timeout(1)

    assert env.run(until=env.process(body())) is None


def test_condition_with_preprocessed_events():
    env = Engine()
    t = env.timeout(1)
    env.run(until=5)

    def body():
        result = yield env.all_of([t])
        return list(result.values())

    assert env.run(until=env.process(body())) == [None]
