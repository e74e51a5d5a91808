"""Tests of the microstrobe and of the flyweight node containers.

The Strobe Sender wakes every participant of a microphase with one
multicast and resumes on one latch that each Strobe Receiver counts
down.  The fast engine must not move a single event against the
reference engine (``BcsConfig(engine="reference")``): virtual time,
slice counts and results must be identical.  Under the fast engine the
lazy flyweight node directory must stay unmaterialized for nodes a job
never touches.
"""

import pytest

from repro.apps.synthetic import barrier_benchmark, nearest_neighbor_benchmark
from repro.bcs import ANY_SOURCE, ANY_TAG, BcsConfig, BcsRuntime
from repro.bcs.threads import NodeRuntime
from repro.harness.runner import run_workload
from repro.network import Cluster, ClusterSpec
from repro.storm import JobSpec
from repro.units import ms, seconds, us

from .test_active_sets import _stats


def _wildcard_app(ctx, iterations=4):
    """Wildcard-heavy ping chain: stresses DEM/MSM under both matchers."""
    for it in range(iterations):
        if ctx.rank == 0:
            for peer in range(1, ctx.size):
                yield from ctx.comm.send(None, dest=peer, tag=it, size=256)
            for _ in range(1, ctx.size):
                yield from ctx.comm.recv(
                    source=ANY_SOURCE, tag=ANY_TAG, size=256
                )
        else:
            yield from ctx.comm.recv(source=0, tag=it, size=256)
            yield from ctx.comm.send(None, dest=0, tag=it, size=256)


# -- end-to-end virtual-time identity ------------------------------------------


@pytest.mark.parametrize(
    "app", [barrier_benchmark, nearest_neighbor_benchmark, _wildcard_app]
)
def test_virtual_time_identity_aggregated_vs_oracle(app):
    results = {}
    for engine in ("fast", "reference"):
        cfg = BcsConfig(init_cost=0, engine=engine)
        r = run_workload(app, 8, "bcs", bcs_config=cfg)
        results[engine] = (r.runtime_ns, _stats(r), r.results)
    assert results["fast"] == results["reference"]


def test_lazy_nodes_stay_unmaterialized_on_a_big_cluster():
    """A 2-rank job on 2048 nodes must touch O(active), not O(cluster)."""
    cluster = Cluster(ClusterSpec(n_nodes=2048))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0))
    spec = JobSpec(
        app=barrier_benchmark,
        n_ranks=2,
        name="tiny",
        params=dict(granularity=us(300), iterations=4),
    )
    job = runtime.run_job(spec, max_time=seconds(60))
    active = len(job.nodes)
    # Management node + the job's nodes, nothing else.
    assert active < 8
    assert runtime.node_runtimes.materialized_count <= active
    assert cluster.nodes.materialized_count <= active + 1
    # Global memory spans every cluster node, the management node included.
    gas = runtime.core.gas
    assert len(gas) == len(cluster.nodes)
    with pytest.raises(IndexError):
        gas.write(len(cluster.nodes), "x", 1)


# -- the cached microstrobe latency --------------------------------------------


@pytest.mark.parametrize("fast", [True, False])
def test_receivers_wake_one_strobe_latency_after_phase_begin(fast):
    """Every participant's SR starts its microphase exactly
    ``Fabric.strobe_latency`` after the Strobe Sender begins it, under
    both engines."""
    from repro.obs import Observability

    cluster = Cluster(ClusterSpec(n_nodes=16))
    engine = "fast" if fast else "reference"
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, engine=engine))
    obs = Observability()
    runtime.attach_observability(obs)
    runtime.run_job(
        JobSpec(
            app=nearest_neighbor_benchmark,
            n_ranks=24,
            params=dict(granularity=ms(1), iterations=2),
        ),
        max_time=seconds(5),
    )
    latency = cluster.fabric.strobe_latency(
        runtime.config.strobe_bytes, len(runtime.active_node_ids)
    )
    begins = {
        (slice_no, phase): t
        for t, _kind, slice_no, phase, _n in (
            e for e in obs.events if e[1] == "phase_begin"
        )
    }
    starts = [
        (slice_no, phase, t0)
        for _t1, _kind, _node, slice_no, phase, t0 in (
            e for e in obs.events if e[1] == "node_phase"
        )
    ]
    assert starts
    for slice_no, phase, t0 in starts:
        assert t0 == begins[(slice_no, phase)] + latency


# -- the node containers -------------------------------------------------------


def test_reference_engine_builds_every_node_up_front():
    # The engine, not the cluster, decides when nodes come into being.
    with pytest.raises(TypeError):
        ClusterSpec(lazy_nodes=False)
    cluster = Cluster(ClusterSpec(n_nodes=16))
    runtime = BcsRuntime(cluster, BcsConfig(engine="reference"))
    assert cluster.nodes.materialized_count == 17  # + management node
    assert runtime.node_runtimes.materialized_count == 16
    built = list(runtime.node_runtimes.materialized())
    assert [nrt.node_id for nrt in built] == list(range(16))
    assert all(nrt.sr.nrt is nrt for nrt in built)


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_each_node_is_one_object_built_once(engine, monkeypatch):
    """One NodeRuntime per node owns its NIC threads, Node Manager and
    Strobe Receiver, and is built once; on a big cluster the fast engine
    builds only the job's nodes."""
    built_ids = []
    init = NodeRuntime.__init__

    def counting_init(self, runtime, node_id):
        built_ids.append(node_id)
        init(self, runtime, node_id)

    monkeypatch.setattr(NodeRuntime, "__init__", counting_init)
    n_nodes = 2048 if engine == "fast" else 16
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, engine=engine))
    spec = JobSpec(
        app=nearest_neighbor_benchmark,
        n_ranks=4,
        name="nn",
        params=dict(granularity=us(300), iterations=2, message_bytes=4096),
    )
    job = runtime.run_job(spec, max_time=seconds(60))
    built = list(runtime.node_runtimes.materialized())
    ids = [nrt.node_id for nrt in built]
    assert sorted(built_ids) == ids
    assert ids == (sorted(job.nodes) if engine == "fast" else list(range(n_nodes)))
    for nrt in built:
        assert nrt.sr.nrt is nrt
        for part in (nrt.bs, nrt.br, nrt.dh, nrt.ch, nrt.rh, nrt.nm):
            assert part.nrt is nrt
    for handle in runtime.rank_handles[job.id]:
        assert handle.nrt is runtime.node_runtimes[handle.node_id]
        assert handle.nm is handle.nrt.nm


def test_node_containers_index_like_lists():
    """Negative indices count from the end; out-of-range ones raise
    instead of materializing a node with a bogus id."""
    n = 4
    cluster = Cluster(ClusterSpec(n_nodes=n))
    runtime = BcsRuntime(cluster, BcsConfig())
    eager = list(range(n + 1))
    for i in (-1, -(n + 1), 0, n):
        assert cluster.nodes[i].id == eager[i]
    for i in (-(n + 2), n + 1):
        with pytest.raises(IndexError):
            cluster.nodes[i]
    assert runtime.node_runtimes[-1].node_id == n - 1
    assert runtime.node_runtimes[n - 1].node_id == n - 1
    assert runtime.node_runtimes[-n].node_id == 0
    for i in (-(n + 1), n):
        with pytest.raises(IndexError):
            runtime.node_runtimes[i]
    assert runtime.node_runtimes.materialized_count == 2
