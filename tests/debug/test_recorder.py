"""Tests for the deterministic-replay flight recorder."""

import numpy as np
import pytest

from repro.bcs import BcsConfig, BcsRuntime
from repro.debug import FlightRecorder, assert_replayable, diff_logs
from repro.network import Cluster, ClusterSpec
from repro.noise import NoiseConfig, NoiseInjector
from repro.storm import JobSpec
from repro.units import kib, ms, seconds


def _app(ctx):
    peer = ctx.rank ^ 1
    for i in range(3):
        # Real compute so CPU-level perturbations (noise) shift the
        # communication timeline.
        yield from ctx.compute(ms(1))
        got = yield from ctx.comm.sendrecv(
            np.array([float(ctx.rank + i)]), dest=peer, source=peer, sendtag=i, recvtag=i
        )
        _ = yield from ctx.comm.allreduce(np.float64(got[0]), "sum")


def run_once(obs, seed=0, noise=False):
    cluster = Cluster(ClusterSpec(n_nodes=2, seed=seed))
    if noise:
        # Bursts must span multiple slices to be visible: BCS's slice
        # quantization *absorbs* sub-slice perturbations (the
        # coscheduling robustness the paper argues for).  The one daemon
        # per node takes one of the node's two CPUs, so it delays a rank
        # only while both ranks want to compute: 2 ms mean bursts every
        # 3 ms outlast the communication between the computations.
        NoiseInjector(cluster, NoiseConfig(period=ms(3), duration=ms(2))).start()
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0)).attach_observability(obs)
    runtime.run_job(JobSpec(app=_app, n_ranks=4), max_time=seconds(30))


def test_log_captures_all_event_kinds():
    recorder = FlightRecorder()
    run_once(recorder.obs)
    log = recorder.log()
    # The whole protocol log: every entry of the hub, of every kind.
    assert sorted(log, key=repr) == sorted(recorder.obs.events, key=repr)
    assert {e[1] for e in log} == {
        "node", "rank_start", "rank_finish",
        "slice_begin", "slice_end", "phase_begin", "phase", "node_phase",
        "post", "wait", "exchange", "match", "grant", "chunk", "deliver",
        "coll_sched", "collective", "nic", "unicast", "multicast",
    }
    # Events come out in time order.
    times = [e[0] for e in log]
    assert times == sorted(times)


def test_identical_runs_produce_identical_logs():
    log = assert_replayable(run_once)
    assert log  # something was recorded


def test_diff_reports_first_divergence():
    a = [(1, "unicast", 0, 1, 64, "p2p"), (2, "phase", 1, "DEM", 10)]
    b = [(1, "unicast", 0, 1, 64, "p2p"), (2, "phase", 1, "MSM", 10)]
    divergences = diff_logs(a, b)
    assert len(divergences) == 1
    assert divergences[0].index == 1
    assert "DEM" in str(divergences[0])


def test_diff_detects_truncated_log():
    a = [(1, "unicast", 0, 1, 64, "p2p")]
    divergences = diff_logs(a, [])
    assert divergences[0].index == 0
    assert divergences[0].right is None


def test_identical_logs_diff_empty():
    a = [(1, "unicast", 0, 1, 64, "p2p")]
    assert diff_logs(a, list(a)) == []


def test_noise_perturbs_the_log():
    """A genuinely different execution (noise on) shows up in the diff."""
    quiet = FlightRecorder()
    run_once(quiet.obs, noise=False)
    noisy = FlightRecorder()
    run_once(noisy.obs, noise=True)
    assert diff_logs(quiet.log(), noisy.log())


def test_assert_replayable_raises_on_nondeterminism():
    calls = {"n": 0}

    def flaky(obs):
        calls["n"] += 1
        # Second run uses a different seed: logs must differ.
        run_once(obs, noise=True, seed=calls["n"])

    with pytest.raises(AssertionError, match="not replayable"):
        assert_replayable(flaky)
