"""Slice-machine invariants on real workloads, under both slice engines.

:class:`ProtocolValidator` re-derives the microphase order, slice
alignment, the DEM+MSM budget, every participant's report of each
microphase and the containment of descriptor and payload transfers from
the telemetry hub's protocol log.  Here it runs
with every check on small halo, SWEEP3D and SAGE runs, under the fast
and the reference engine, and must find nothing.  The instrumented run's
makespan and results must equal the bare run's.
"""

import pytest

from repro.apps import nearest_neighbor_benchmark, sage, sweep3d_blocking
from repro.bcs import BcsConfig, BcsRuntime
from repro.bcs.validator import ProtocolValidator
from repro.network import Cluster, ClusterSpec
from repro.obs import Observability
from repro.storm import JobSpec
from repro.units import kib, ms, seconds

WORKLOADS = {
    "halo": (
        nearest_neighbor_benchmark,
        16,
        32,
        dict(granularity=ms(1), iterations=4, n_neighbors=4, message_bytes=kib(4)),
    ),
    "sweep3d": (sweep3d_blocking, 31, 62, dict(octants=1, kblocks=4)),
    "sage": (sage, 8, 16, dict(steps=2, step_compute=ms(5))),
}


def _run(name, engine, obs=None):
    app, n_nodes, n_ranks, params = WORKLOADS[name]
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes))
    config = BcsConfig(init_cost=0, engine=engine)
    runtime = BcsRuntime(cluster, config)
    if obs is not None:
        runtime.attach_observability(obs)
    job = runtime.run_job(
        JobSpec(app=app, n_ranks=n_ranks, name=name, params=params),
        max_time=seconds(60),
    )
    assert job.complete
    return runtime, job


# The ids predate the engine field: "aggregated" is the fast engine,
# "oracle" the reference.
@pytest.mark.parametrize("engine", ["fast", "reference"], ids=["aggregated", "oracle"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_protocol_validator_finds_no_violation(name, engine):
    obs = Observability()
    runtime, job = _run(name, engine, obs)
    config = runtime.config
    validator = ProtocolValidator(
        obs.events, config.timeslice, scheduling_min=config.scheduling_duration
    )
    assert validator.validate() == []
    # The validator saw the slice machine work, descriptors and payload.
    assert len(validator.phases) == runtime.stats["active_slices"] > 0
    labels = {e[5] for e in obs.events if e[1] == "unicast"}
    assert {"desc", "p2p"} <= labels

    _, bare = _run(name, engine)
    assert job.runtime == bare.runtime
    assert job.results == bare.results
