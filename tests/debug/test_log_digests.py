"""Pinned digests of the whole protocol log.

The golden timings pin makespans, and BCS makespans are slice-quantized,
so an instant can move inside a slice and leave every makespan green.
These digests pin the whole protocol log instead: every entry of
``obs.events``, of every kind (slices, microphases and each node's part
in them, grants, NIC holds, posts, waits, descriptor exchanges, matches,
chunks, deliveries, collectives, fabric transfers, rank starts and
finishes, nodes coming into service), with all its fields.  Both slice
engines must produce the same log.

The log is hashed as a multiset per instant: :meth:`FlightRecorder.log`
sorts it by ``(t, repr(entry))``.  Entries of one nanosecond may be
written in any host order (the two engines already differ there), so a
change that only reorders same-instant work keeps the digest; a change
that moves, adds, drops or reshapes any entry does not.  If a change is
meant to move an instant, update the digest here and say so in
CHANGES.md.  To locate the change, record the case's log at both commits
and compare them with :func:`repro.debug.diff_logs`.
"""

import hashlib

import pytest

from repro.apps import (
    barrier_benchmark,
    nearest_neighbor_benchmark,
    sage,
    sweep3d_blocking,
)
from repro.bcs import BcsConfig, BcsRuntime
from repro.debug import FlightRecorder, diff_logs
from repro.harness import run_workload
from repro.network import Cluster, ClusterSpec
from repro.storm import JobSpec
from repro.units import kib, ms

from perfbench.workloads import DEFAULT_SEED, MAX_TIME, WORKLOADS

from .test_recorder import run_once

# (app, params, log length, digest) — the golden BCS runs of
# tests/test_golden_timings.py, 8 ranks.
GOLDEN_LOGS = [
    (
        sage,
        dict(steps=3, step_compute=ms(5)),
        1_880,
        "99acff641e0463897bee76c020040d667b3fec423be50ba6438ea7557c63b8f1",
    ),
    (
        sweep3d_blocking,
        dict(octants=2, kblocks=2),
        1_157,
        "efcf6d20482fcce777ad2f785abef79c28317287c15a13d9b8873b40460a6391",
    ),
    (
        barrier_benchmark,
        dict(granularity=ms(2), iterations=3),
        242,
        "beab3bb76e476a64fbe99d8cf8124af3bfd79c889274c4655e7b8eee9bd0ffd3",
    ),
]

# (name, log length, digest) — the benchmark workloads at their default
# seed, as the benchmark runs them.  The 65,536-node machine runs under
# the fast engine only; the reference engine builds every node up front.
BENCH_LOGS = [
    ("halo_64k", 99_825, "d5fd92e863ebfa30d0e7edbfa55bc1a549947ccc3bf3e34c6e5b2e3f9a404b9a"),
    (
        "sweep3d_wavefront",
        128_984,
        "cdbc19cc6711b37afafd7263e0c190082fdfefad6e52e91e7ba7ced8644d486d",
    ),
    ("sage_idle", 129_396, "d5994466229175b8c717044cd742c91bb2328b14d36d73efac3921032b8ba50f"),
]
BENCH_REFERENCE = {"sweep3d_wavefront", "sage_idle"}

# (app, nodes, ranks, params, log length, digest) — the two BCS runs of
# tests/bcs/test_event_counts.py.
EVENT_COUNT_LOGS = [
    (
        sweep3d_blocking,
        31,
        62,
        dict(octants=1, kblocks=4),
        9_027,
        "ce98e531d8aab92e25b2db9ec7b29828de28272badd7cde604af0f529cea272f",
    ),
    (
        nearest_neighbor_benchmark,
        16,
        32,
        dict(granularity=ms(1), iterations=4, n_neighbors=4, message_bytes=kib(4)),
        6_816,
        "d1c577629b8e0805dcd3908c1d6d3dc72dc4233cdb694b9ae30a80cbb9f47f18",
    ),
]

RECORDER_APP_LOG = (
    364,
    "86faed41968fb59871ee2ff42208a841d6d370a601677d42bf6298d108bab808",
)


def digest(log):
    return hashlib.sha256(repr(log).encode()).hexdigest()


def check(log, length, expected, other=None):
    """Assert the pin; on a mismatch, name the first entry at which the
    log departs from ``other`` (the same case under the other engine)
    when that differs too."""
    got = (len(log), digest(log))
    if got == (length, expected):
        return
    message = f"log (length, digest) {got} != pinned {(length, expected)}"
    if other is not None:
        divergence = diff_logs(log, other)
        message += (
            f"\nagainst the other engine: {divergence[0]}"
            if divergence
            else "\nboth engines agree: the change moved the timeline itself"
        )
    raise AssertionError(message)


def recorded(run):
    recorder = FlightRecorder()
    run(recorder.obs)
    return recorder.log()


def golden_log(app, params, engine):
    config = BcsConfig(init_cost=0, engine=engine)
    return recorded(
        lambda obs: run_workload(app, 8, "bcs", params=params, bcs_config=config, obs=obs)
    )


def bench_log(name, engine):
    workload = WORKLOADS[name]

    def run(obs):
        cluster = Cluster(ClusterSpec(n_nodes=workload.n_nodes))
        config = BcsConfig(init_cost=workload.bcs_init_ns, engine=engine)
        runtime = BcsRuntime(cluster, config).attach_observability(obs)
        runtime.run_job(
            workload.job_spec(),
            placement=workload.placement(DEFAULT_SEED),
            max_time=MAX_TIME,
        )

    return recorded(run)


def event_count_log(app, n_nodes, n_ranks, params, engine):
    def run(obs):
        cluster = Cluster(ClusterSpec(n_nodes=n_nodes))
        runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, engine=engine))
        runtime.attach_observability(obs)
        runtime.run_job(JobSpec(app=app, n_ranks=n_ranks, name=app.__name__, params=params))

    return recorded(run)


def other_engine(engine):
    return "reference" if engine == "fast" else "fast"


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize(
    "app,params,length,expected",
    GOLDEN_LOGS,
    ids=[a.__name__ for a, _, _, _ in GOLDEN_LOGS],
)
def test_golden_protocol_log_digest(app, params, length, expected, engine):
    log = golden_log(app, params, engine)
    if (len(log), digest(log)) != (length, expected):
        check(log, length, expected, golden_log(app, params, other_engine(engine)))


@pytest.mark.parametrize(
    "engine,name,length,expected",
    [("fast", *case) for case in BENCH_LOGS]
    + [("reference", *case) for case in BENCH_LOGS if case[0] in BENCH_REFERENCE],
    ids=[f"fast-{c[0]}" for c in BENCH_LOGS]
    + [f"reference-{c[0]}" for c in BENCH_LOGS if c[0] in BENCH_REFERENCE],
)
def test_benchmark_workload_log_digest(engine, name, length, expected):
    log = bench_log(name, engine)
    if (len(log), digest(log)) != (length, expected):
        other = bench_log(name, other_engine(engine)) if name in BENCH_REFERENCE else None
        check(log, length, expected, other)


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize(
    "app,n_nodes,n_ranks,params,length,expected",
    EVENT_COUNT_LOGS,
    ids=[c[0].__name__ for c in EVENT_COUNT_LOGS],
)
def test_event_count_case_log_digest(app, n_nodes, n_ranks, params, length, expected, engine):
    log = event_count_log(app, n_nodes, n_ranks, params, engine)
    if (len(log), digest(log)) != (length, expected):
        other = event_count_log(app, n_nodes, n_ranks, params, other_engine(engine))
        check(log, length, expected, other)


def test_recorder_app_log_digest():
    recorder = FlightRecorder()
    run_once(recorder.obs)
    check(recorder.log(), *RECORDER_APP_LOG)
    assert recorder.summary().splitlines() == [
        "replay.bytes{kind=multicast} 48",
        "replay.bytes{kind=unicast} 1656",
        "replay.events{kind=chunk} 12",
        "replay.events{kind=coll_sched} 3",
        "replay.events{kind=collective} 6",
        "replay.events{kind=deliver} 12",
        "replay.events{kind=exchange} 12",
        "replay.events{kind=grant} 6",
        "replay.events{kind=match} 12",
        "replay.events{kind=multicast} 3",
        "replay.events{kind=nic} 69",
        "replay.events{kind=node} 2",
        "replay.events{kind=node_phase} 33",
        "replay.events{kind=phase} 30",
        "replay.events{kind=phase_begin} 30",
        "replay.events{kind=post} 36",
        "replay.events{kind=rank_finish} 4",
        "replay.events{kind=rank_start} 4",
        "replay.events{kind=slice_begin} 20",
        "replay.events{kind=slice_end} 19",
        "replay.events{kind=unicast} 27",
        "replay.events{kind=wait} 24",
    ]


def canonical_digest(events):
    """The digest of ``events`` appended in this order to a recorder's hub."""
    recorder = FlightRecorder()
    recorder.obs.events.extend(events)
    return digest(recorder.log())


def test_digest_is_blind_to_same_instant_order_only():
    a = [(5, "phase", 1, "DEM", 10), (5, "unicast", 0, 1, 64, "p2p"), (9, "phase", 1, "MSM", 4)]
    swapped = [a[1], a[0], a[2]]
    moved = [a[0], (6, "unicast", 0, 1, 64, "p2p"), a[2]]
    assert canonical_digest(swapped) == canonical_digest(a)
    assert canonical_digest(moved) != canonical_digest(a)
