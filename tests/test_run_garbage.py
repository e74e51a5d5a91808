"""A run frees itself: the cyclic garbage it leaves does not grow with
its message count.

A request is the event its waiters yield (``BcsRequest`` is a
``sim.Event`` settled with no value), so a message leaves no reference
cycle behind, and neither does a microstrobe's fan-out.  Collective
state is kept per communicator (one ``go`` counter, reused NIC event
words), so a collective epoch leaves nothing behind either.  What the
cyclic collector still frees after a run is its set-up (links, nodes,
rank handles, the fabric's route cache), which grows with the machine
and the routes used, not with the messages sent or the collectives run.
The collector is off during the run, so ``gc.collect()`` afterwards
counts everything the run left.
"""

import gc

import pytest

from perfbench.workloads import DEFAULT_SEED, TOY_WORKLOADS, WORKLOADS, run


def cyclic_garbage(workload, backend):
    """Objects only the cyclic collector frees after one run of
    ``workload``, and the messages the run delivered."""
    gc.collect()
    gc.disable()
    try:
        _, outcome = run(workload, backend, DEFAULT_SEED)
        return gc.collect(), outcome.count("messages_delivered")
    finally:
        gc.enable()


@pytest.mark.parametrize("backend", ["bcs", "baseline"])
@pytest.mark.parametrize("name", ["sweep3d_wavefront", "halo_64k", "sage_idle"])
def test_cyclic_garbage_does_not_grow_with_messages(name, backend):
    toy, toy_messages = cyclic_garbage(TOY_WORKLOADS[name], backend)
    full, full_messages = cyclic_garbage(WORKLOADS[name], backend)
    assert full_messages > 10 * toy_messages
    # Under one object per ten extra messages: a cycle per message (a
    # request and its completion event referring to each other) left
    # about four.
    assert full - toy < (full_messages - toy_messages) // 10
