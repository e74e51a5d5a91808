"""Collective state is kept per communicator, not per epoch, and goes
with its job.

Each node holds one ``cflag`` and one ``go`` counter per communicator in
global memory, and the Collective and Reduce Helpers reuse one NIC event
word per communicator (and per reduce round), since only one epoch of a
communicator is in flight in BBM and RM.  So what a run leaves in global
memory and in the NICs does not grow with its collective count.  When
the job completes (or is purged), its counters and event words are
freed, so a runtime that runs job after job does not grow either.
"""

import pytest

from perfbench.workloads import DEFAULT_SEED, MAX_TIME, TOY_WORKLOADS, WORKLOADS
from repro.bcs import BcsConfig, BcsRuntime
from repro.network import Cluster, ClusterSpec


def state_counts(runtime):
    """``(global variables, NIC event words)`` held by ``runtime``."""
    variables = sum(len(r._mem) for r in runtime.core.gas._regions.values())
    words = sum(len(node.nic._events) for node in runtime.cluster.nodes)
    return variables, words


def build(workload, engine):
    return BcsRuntime(
        Cluster(ClusterSpec(n_nodes=workload.n_nodes)),
        BcsConfig(init_cost=workload.bcs_init_ns, engine=engine),
    )


def run_spied(runtime, workload):
    """Run ``workload`` to completion on ``runtime``; returns the state
    counts and global memory at the job's end, just before the job's
    collective state is freed."""
    seen = []
    free = runtime.free_collective_state

    def spy(job_id):
        gas = runtime.core.gas
        memory = {node: set(region._mem) for node, region in gas._regions.items()}
        seen.append((state_counts(runtime), memory))
        free(job_id)

    runtime.free_collective_state = spy
    try:
        job = runtime.run_job(
            workload.job_spec(), placement=workload.placement(DEFAULT_SEED), max_time=MAX_TIME
        )
    finally:
        del runtime.free_collective_state
    assert job.complete
    [(counts, memory)] = seen
    return counts, memory


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_collective_state_does_not_grow_with_epochs(engine):
    toy_runtime = build(TOY_WORKLOADS["sage_idle"], engine)
    (toy_vars, toy_words), _ = run_spied(toy_runtime, TOY_WORKLOADS["sage_idle"])
    runtime = build(WORKLOADS["sage_idle"], engine)
    (full_vars, full_words), memory = run_spied(runtime, WORKLOADS["sage_idle"])
    toy_colls = toy_runtime.stats["collectives_completed"]
    assert runtime.stats["collectives_completed"] > 10 * toy_colls
    assert (full_vars, full_words) == (toy_vars, toy_words)
    # One cflag and one go counter per (job, comm) on each node, and no
    # epoch left in flight.
    comms = [(job, comm) for job in runtime.comms for comm in runtime.comms[job]]
    nodes = {node for job, comm in comms for node in runtime.comm_info(job, comm).nodes}
    assert full_vars == 2 * len(nodes)
    for node in nodes:
        assert memory[node] == {
            (flag, job, comm) for flag in ("cflag", "go") for job, comm in comms
        }
    assert all(not nrt.coll_state for nrt in runtime.node_runtimes.materialized())


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_collective_state_goes_with_its_job(engine):
    """Three toy SAGE jobs in a row on one runtime: each job's end holds
    the same state, and after each job none of it is left."""
    workload = TOY_WORKLOADS["sage_idle"]
    runtime = build(workload, engine)
    at_end, after = [], []
    for _ in range(3):
        counts, _memory = run_spied(runtime, workload)
        at_end.append(counts)
        after.append(state_counts(runtime))
    assert runtime.stats["collectives_completed"] > 0
    assert at_end[0][0] > 0 and at_end[0][1] > 0
    assert at_end == [at_end[0]] * 3
    assert after == [(0, 0)] * 3


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_purge_job_frees_its_collective_state(engine):
    """A purged job's counters and event words go with its queues."""
    workload = TOY_WORKLOADS["sage_idle"]
    runtime = build(workload, engine)
    runtime.free_collective_state = lambda job_id: None
    job = runtime.run_job(
        workload.job_spec(), placement=workload.placement(DEFAULT_SEED), max_time=MAX_TIME
    )
    del runtime.free_collective_state
    assert state_counts(runtime) != (0, 0)
    runtime.purge_job(job.id)
    assert state_counts(runtime) == (0, 0)
