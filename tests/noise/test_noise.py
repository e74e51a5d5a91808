"""Tests for the OS-noise injector and its effect on both backends."""

import pytest

from repro.bcs import BcsConfig, BcsRuntime
from repro.mpi.baseline import BaselineConfig, BaselineRuntime
from repro.network import Cluster, ClusterSpec
from repro.noise import NoiseConfig, NoiseInjector
from repro.storm import JobSpec
from repro.units import ms, seconds, us


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(period=0)
    with pytest.raises(ValueError):
        NoiseConfig(period=ms(1), duration=ms(2))


def test_noise_steals_cpu_time():
    cluster = Cluster(ClusterSpec(n_nodes=2))
    injector = NoiseInjector(cluster, NoiseConfig(period=ms(10), duration=ms(1)))
    injector.start()
    cluster.run(until=int(seconds(1)))
    # ~10% duty cycle over 1 s on 2 nodes ≈ 200 ms, very loosely bounded.
    assert ms(40) < injector.total_stolen < ms(600)
    assert set(injector.stolen) == {0, 1}


def test_double_start_rejected():
    cluster = Cluster(ClusterSpec(n_nodes=1))
    injector = NoiseInjector(cluster)
    injector.start()
    with pytest.raises(RuntimeError):
        injector.start()


def test_noise_is_deterministic_per_seed():
    def run(seed):
        cluster = Cluster(ClusterSpec(n_nodes=2, seed=seed))
        injector = NoiseInjector(cluster, NoiseConfig(period=ms(5), duration=ms(1)))
        injector.start()
        cluster.run(until=int(seconds(0.5)))
        return dict(injector.stolen)

    assert run(1) == run(1)
    assert run(1) != run(2)


def test_noise_slows_computation():
    def elapsed(with_noise):
        cluster = Cluster(ClusterSpec(n_nodes=1))
        runtime = BaselineRuntime(cluster, BaselineConfig(init_cost=0))
        if with_noise:
            NoiseInjector(
                cluster, NoiseConfig(period=ms(5), duration=ms(1))
            ).start()

        def app(ctx):
            yield from ctx.compute(ms(100))

        # 2 ranks on the node's 2 CPUs: daemons must queue behind/ahead.
        job = runtime.run_job(JobSpec(app=app, n_ranks=2), max_time=seconds(10))
        return job.runtime

    assert elapsed(True) > elapsed(False)


def _barrier_app(ctx, iters=20, grain=ms(1)):
    for _ in range(iters):
        yield from ctx.compute(grain)
        yield from ctx.comm.barrier()


def test_uncoordinated_noise_hurts_more_than_coordinated():
    """The paper's coscheduling argument: synchronized daemons cost a
    bulk-synchronous app far less than independently-phased ones."""

    def run(coordinated):
        cluster = Cluster(ClusterSpec(n_nodes=8, seed=3))
        runtime = BaselineRuntime(cluster, BaselineConfig(init_cost=0))
        NoiseInjector(
            cluster,
            NoiseConfig(period=ms(8), duration=ms(2), coordinated=coordinated),
        ).start()
        job = runtime.run_job(
            JobSpec(app=_barrier_app, n_ranks=8, params={}), max_time=seconds(60)
        )
        return job.runtime

    assert run(coordinated=False) > run(coordinated=True)


def test_bcs_slice_quantization_absorbs_subslice_noise():
    """The coscheduling robustness claim (§1): perturbations smaller
    than the remaining slice budget do not change the communication
    timeline at all — BCS re-quantizes everything to slice boundaries.
    The same noise visibly shifts the baseline's timings."""
    from repro.bcs import BcsConfig, BcsRuntime
    from repro.debug import FlightRecorder, diff_logs
    from repro.network import Cluster, ClusterSpec

    def app(ctx):
        peer = ctx.rank ^ 1
        for i in range(4):
            yield from ctx.compute(ms(1))
            got = yield from ctx.comm.sendrecv(
                None, dest=peer, source=peer, sendtag=i, recvtag=i, size=64
            )

    light = NoiseConfig(period=ms(4), duration=ms(0.2))

    def bcs_log(noise):
        recorder = FlightRecorder()
        cluster = Cluster(ClusterSpec(n_nodes=2, seed=9))
        if noise:
            NoiseInjector(cluster, light).start()
        runtime = BcsRuntime(cluster, BcsConfig(init_cost=0))
        runtime.attach_observability(recorder.obs)
        runtime.run_job(JobSpec(app=app, n_ranks=4), max_time=seconds(30))
        return recorder.log()

    # The noise stretches computes, so a rank posts later and starts its
    # wait later; those host-side instants (``post``, ``wait``) move.
    # Every entry of the slice machine, NICs and fabric stays put.
    quiet, noisy = bcs_log(False), bcs_log(True)
    assert quiet != noisy
    host_side = ("post", "wait")
    assert diff_logs(
        [e for e in quiet if e[1] not in host_side],
        [e for e in noisy if e[1] not in host_side],
    ) == []

    def baseline_runtime(noise):
        cluster = Cluster(ClusterSpec(n_nodes=2, seed=9))
        if noise:
            NoiseInjector(cluster, light).start()
        runtime = BaselineRuntime(cluster, BaselineConfig(init_cost=0))
        job = runtime.run_job(JobSpec(app=app, n_ranks=4), max_time=seconds(30))
        return job.runtime

    assert baseline_runtime(True) != baseline_runtime(False)
