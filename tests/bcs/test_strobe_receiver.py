"""The Strobe Receiver is an event handler, not a process.

The microstrobe's callback calls :meth:`StrobeReceiver.on_strobe`, which
starts the phase's NIC-thread body and steps it from the callbacks of
the events the body yields, by the rules of ``Process._resume``: an
already-processed event resumes it through a fresh ``carry`` entry, and
a failed event's exception is thrown into it.  Building a node creates
no event, and a receiver keeps its strobe and body only while the phase
runs.
"""

import pytest

from repro.apps import sweep3d_blocking
from repro.bcs import BcsConfig, BcsRuntime
from repro.bcs.strobe import BBM, Strobe
from repro.network import Cluster, ClusterSpec
from repro.sim import Latch
from repro.storm import JobSpec


def node_runtime(engine="fast", node=1):
    runtime = BcsRuntime(Cluster(ClusterSpec(n_nodes=4)), BcsConfig(engine=engine))
    return runtime.env, runtime.node_runtimes[node]


def start(nrt, body):
    """Run ``body`` as this node's BBM part of a one-participant
    microstrobe delivered now; returns the microphase latch."""
    nrt.ch.bbm_phase = body
    done = Latch(nrt.env, 1)
    nrt.sr.on_strobe(Strobe(BBM, 1, None, done, nrt.env.now))
    return done


def processed(env):
    return env._seq - len(env._queue)


def test_body_yielding_a_processed_event_resumes_through_a_carry_entry():
    env, nrt = node_runtime()
    seen = []
    early = env.event()
    early.succeed("early")

    def body():
        yield env.timeout(5)
        assert early.processed
        seen.append((env.now, (yield early)))

    done = start(nrt, body)
    assert processed(env) == 0
    env.run()
    assert seen == [(5, "early")] and done.processed
    # ``early``'s own entry, the timeout and the carry, as a process
    # stepping the same body would take them.
    assert processed(env) == 3


def test_failed_event_is_thrown_into_the_body_and_defused():
    env, nrt = node_runtime()
    seen = []
    failing = env.event()
    env.timeout(3).callbacks.append(lambda _: failing.fail(KeyError("lost")))

    def body():
        try:
            yield failing
        except KeyError as exc:
            seen.append((env.now, exc.args))
        yield env.timeout(2)

    done = start(nrt, body)
    env.run()  # defused: the handled failure does not crash the run
    assert seen == [(3, ("lost",))] and done.processed and env.now == 5


def test_failure_the_body_does_not_handle_crashes_the_run():
    env, nrt = node_runtime()
    failing = env.event()
    env.timeout(3).callbacks.append(lambda _: failing.fail(KeyError("lost")))

    def body():
        yield failing

    done = start(nrt, body)
    with pytest.raises(KeyError):
        env.run()
    assert not done.triggered


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_building_a_node_runtime_schedules_no_entry(engine):
    runtime = BcsRuntime(Cluster(ClusterSpec(n_nodes=8)), BcsConfig(engine=engine))
    env = runtime.env
    # The reference engine builds every node up front, the fast one on
    # first touch; neither takes a sequence number.
    assert (env._seq, env._queue) == (0, [])
    for node in range(8):
        runtime.node_runtimes[node]
    assert (env._seq, env._queue) == (0, [])


def test_receiver_holds_its_strobe_and_body_only_while_the_phase_runs():
    env, nrt = node_runtime()
    sr = nrt.sr
    during = []

    def body():
        during.append((sr._strobe is not None, sr._body is not None))
        yield env.timeout(4)

    start(nrt, body)
    env.run()
    assert during == [(True, True)]
    assert sr._strobe is None and sr._body is None


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_no_receiver_holds_a_strobe_after_a_run(engine):
    runtime = BcsRuntime(Cluster(ClusterSpec(n_nodes=8)), BcsConfig(init_cost=0, engine=engine))
    runtime.run_job(
        JobSpec(app=sweep3d_blocking, n_ranks=16, params=dict(octants=1, kblocks=2))
    )
    assert runtime.stats["active_slices"] > 0
    for nrt in runtime.node_runtimes.materialized():
        assert nrt.sr._strobe is None and nrt.sr._body is None
