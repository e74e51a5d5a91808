"""Collective state is kept per communicator, not per epoch.

Each node holds one ``cflag`` and one ``go`` counter per communicator in
global memory, and the Collective and Reduce Helpers reuse one NIC event
word per communicator (and per reduce round), since only one epoch of a
communicator is in flight in BBM and RM.  So what a run leaves in global
memory and in the NICs does not grow with its collective count.
"""

import pytest

from perfbench.workloads import DEFAULT_SEED, MAX_TIME, TOY_WORKLOADS, WORKLOADS
from repro.bcs import BcsConfig, BcsRuntime
from repro.network import Cluster, ClusterSpec


def collective_state(workload, engine):
    """``(global variables, NIC event words, collectives)`` after one
    BCS run of ``workload``, and the runtime."""
    runtime = BcsRuntime(
        Cluster(ClusterSpec(n_nodes=workload.n_nodes)),
        BcsConfig(init_cost=workload.bcs_init_ns, engine=engine),
    )
    job = runtime.run_job(
        workload.job_spec(), placement=workload.placement(DEFAULT_SEED), max_time=MAX_TIME
    )
    assert job.complete
    variables = sum(len(r._mem) for r in runtime.core.gas._regions.values())
    words = sum(len(node.nic._events) for node in runtime.cluster.nodes)
    counts = (variables, words, runtime.stats["collectives_completed"])
    return counts, runtime


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_collective_state_does_not_grow_with_epochs(engine):
    (toy_vars, toy_words, toy_colls), _ = collective_state(
        TOY_WORKLOADS["sage_idle"], engine
    )
    (full_vars, full_words, full_colls), runtime = collective_state(
        WORKLOADS["sage_idle"], engine
    )
    assert full_colls > 10 * toy_colls
    assert (full_vars, full_words) == (toy_vars, toy_words)
    # One cflag and one go counter per (job, comm) on each node, and no
    # epoch left in flight.
    comms = [(job, comm) for job in runtime.comms for comm in runtime.comms[job]]
    nodes = {node for job, comm in comms for node in runtime.comm_info(job, comm).nodes}
    assert full_vars == 2 * len(nodes)
    gas = runtime.core.gas
    for node in nodes:
        assert set(gas.region(node)._mem) == {
            (flag, job, comm) for flag in ("cflag", "go") for job, comm in comms
        }
    assert all(not nrt.coll_state for nrt in runtime.node_runtimes.materialized())
