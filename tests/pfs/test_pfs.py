"""Tests for the parallel file system substrate and its QoS behaviour."""

from collections import Counter

import pytest

from repro.apps import nearest_neighbor_benchmark
from repro.bcs import BcsConfig, BcsRuntime
from repro.network import Cluster, ClusterSpec
from repro.obs import Observability
from repro.pfs import PfsService, UncoordinatedPfs
from repro.storm import JobSpec
from repro.units import KiB, MiB, kib, mib, ms, seconds


def make_runtime(n_nodes=4):
    cluster = Cluster(ClusterSpec(n_nodes=n_nodes))
    return cluster, BcsRuntime(cluster, BcsConfig(init_cost=0))


def test_striping_round_robin():
    cluster, runtime = make_runtime()
    pfs = PfsService(runtime, io_nodes=[2, 3], stripe_bytes=kib(256))
    reqs = pfs.write(0, "data.bin", mib(1))
    assert len(reqs) == 4  # 1 MiB / 256 KiB
    assert pfs.files["data.bin"].placement == [2, 3, 2, 3]


def test_partial_last_stripe():
    cluster, runtime = make_runtime()
    pfs = PfsService(runtime, io_nodes=[2], stripe_bytes=kib(256))
    reqs = pfs.write(0, "odd.bin", kib(300))
    assert len(reqs) == 2
    assert pfs.files["odd.bin"].size == kib(300)


def test_write_completes_through_slice_machine():
    cluster, runtime = make_runtime()
    pfs = PfsService(runtime, io_nodes=[2, 3])
    reqs = pfs.write(0, "x", mib(2))

    runtime.ss.start()
    cluster.env.run(until=cluster.env.all_of(reqs))
    assert all(r.complete for r in reqs)
    assert runtime.stats["pfs_stripes_written"] == len(reqs)
    assert runtime.stats["bytes_transferred"] >= mib(2)


def test_read_back_uses_recorded_placement():
    cluster, runtime = make_runtime()
    pfs = PfsService(runtime, io_nodes=[1, 2, 3])
    pfs.write(0, "f", mib(1))
    reqs = pfs.read(0, "f")
    assert len(reqs) == 4
    runtime.ss.start()
    cluster.env.run(until=cluster.env.all_of(reqs))
    assert all(r.complete for r in reqs)
    assert sum(r.size for r in reqs) == mib(1)


def test_read_unknown_file_raises():
    cluster, runtime = make_runtime()
    pfs = PfsService(runtime, io_nodes=[1])
    with pytest.raises(FileNotFoundError):
        pfs.read(0, "nope")


def test_needs_io_nodes():
    cluster, runtime = make_runtime()
    with pytest.raises(ValueError):
        PfsService(runtime, io_nodes=[])
    with pytest.raises(ValueError):
        UncoordinatedPfs(cluster, io_nodes=[])


def test_uncoordinated_stripes_start_no_process(process_starts):
    """Each stripe of an uncoordinated write goes onto the fabric from a
    zero-delay entry of its own, with no process behind it."""
    cluster = Cluster(ClusterSpec(n_nodes=4))
    obs = cluster.fabric.obs = Observability()
    pfs = UncoordinatedPfs(cluster, io_nodes=[1, 2], stripe_bytes=kib(256))
    pfs.write(0, "f", kib(600))
    assert obs.events == []
    cluster.run()
    assert process_starts == []
    assert pfs.files["f"].placement == [1, 2, 1]
    assert [entry[1:] for entry in obs.events] == [
        ("unicast", 0, 1, kib(256), "pfs"),
        ("unicast", 0, 2, kib(256), "pfs"),
        ("unicast", 0, 1, kib(88), "pfs"),
    ]


def test_system_traffic_yields_to_user_traffic():
    """The QoS claim: PFS stripes get only leftover budget."""
    from repro.bcs.descriptors import Match
    from repro.bcs.scheduler import SliceScheduler

    cluster, runtime = make_runtime()
    pfs = PfsService(runtime, io_nodes=[1])
    sched = runtime.scheduler
    # Fill the rx budget of node 1 with user traffic, then add PFS load.
    user_reqs = pfs._make_match(0, 1, sched.budget_bytes)
    user_reqs.system = False
    sched.add_matches([user_reqs])
    pfs.write(0, "bulk", sched.budget_bytes)  # system-class, same link

    granted = sched.schedule_slice()
    grants = {(m.system): m.scheduled_now for m in granted}
    assert grants.get(False) == sched.budget_bytes  # user got everything
    assert True not in grants or grants[True] == 0


def run_qos(with_pfs, engine="fast", obs=None):
    """The §1 scenario: background PFS writes beside a latency-sensitive
    nearest-neighbour job.  Returns the job, the runtime and the matches
    the PFS built."""
    cluster = Cluster(ClusterSpec(n_nodes=4))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, engine=engine))
    if obs is not None:
        runtime.attach_observability(obs)
    matches = []
    if with_pfs:
        pfs = PfsService(runtime, io_nodes=[0, 1, 2, 3])
        make_match = pfs._make_match

        def recording_make_match(*args):
            matches.append(make_match(*args))
            return matches[-1]

        pfs._make_match = recording_make_match

        def writer():
            for i in range(20):
                pfs.write(i % 4, f"bg{i}", mib(4))
                yield cluster.env.timeout(ms(5))

        cluster.env.process(writer(), name="pfs.bg")
    job = runtime.run_job(
        JobSpec(
            app=nearest_neighbor_benchmark,
            n_ranks=8,
            params=dict(granularity=ms(3), iterations=10, message_bytes=kib(4)),
        ),
        max_time=seconds(60),
    )
    return job, runtime, matches


def test_qos_app_unperturbed_by_pfs_under_bcs():
    """End-to-end §1 scenario: background PFS writes do not slow a
    latency-sensitive application under global scheduling."""
    clean = run_qos(False)[0].runtime
    loaded = run_qos(True)[0].runtime
    # Under BCS the app sees (almost) no interference.
    assert loaded <= clean * 1.10


def test_pfs_descriptor_ids_share_the_runtime_counter_under_both_engines():
    """PFS stripes number their descriptors from the runtime's counter,
    the one application posts draw from: no PFS id names a posted
    descriptor, and both engines end the QoS run alike and exchange the
    same message ids."""
    runs = {}
    for engine in ("fast", "reference"):
        obs = Observability()
        job, runtime, matches = run_qos(True, engine=engine, obs=obs)
        assert matches
        pfs_ids = {m.send.desc_id for m in matches}
        posted = {e[2][1] for e in obs.events if e[1] == "post" and e[2][0] != "coll"}
        assert posted and pfs_ids.isdisjoint(posted), engine
        exchanged = Counter(e[2] for e in obs.events if e[1] == "exchange")
        stats = dict(runtime.stats)
        stats.pop("idle_slices_skipped", None)
        runs[engine] = (job.runtime, stats, exchanged)
    assert runs["fast"] == runs["reference"]
