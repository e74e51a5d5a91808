"""Pinned digests of the flight recorder's protocol log.

The golden timings pin makespans, and BCS makespans are slice-quantized,
so an instant can move inside a slice and leave every makespan green.
These digests pin the whole log instead: every microphase (instant,
slice, phase, duration) and every fabric transfer (instant, endpoints,
size, label).  Both slice engines must produce the same log.

The log is hashed as a multiset per instant: it is sorted by ``(t,
repr(entry))`` before hashing.  Entries of one nanosecond may be written
in any host order (the two engines already differ there), so a change
that only reorders same-instant work keeps the digest; a change that
moves, adds or drops any entry does not.  If a change is meant to move
an instant, update the digest here and say so in CHANGES.md.  To locate
the change, record the case's log at both commits and compare their
:func:`canonical` forms with :func:`repro.debug.diff_logs`.
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
        318,
        "0a120acb820ed99e80aedd80a74ba5c897d4bddd48ab2ff7864af4ddceef18b8",
    ),
    (
        sweep3d_blocking,
        dict(octants=2, kblocks=2),
        178,
        "aa073c15d86973eb87a8432b283a28836a0fb8a70bb90d6d771b18de658f4713",
    ),
    (
        barrier_benchmark,
        dict(granularity=ms(2), iterations=3),
        33,
        "5591e35aad51da8356b4c7a63fbd28aabdf731d68bc9f2146ce1956a4c816432",
    ),
]

# (name, log length, digest) — the benchmark workloads at their default
# seed, as the benchmark runs them.  The 65,536-node machine runs under
# the fast engine only; the reference engine builds every node up front.
BENCH_LOGS = [
    ("halo_64k", 10_460, "9472aa9a3322b776e6aec5f0575318c97facba7123b7194d780de02b76bf68fd"),
    (
        "sweep3d_wavefront",
        19_125,
        "2db50aa7fab424605eb834ca68fae2bcf1d1c516042d51925fdd8ae11a31bcb5",
    ),
    ("sage_idle", 14_700, "0bd6d4e914f33db3e58fe36f7a2d66442ddafaaf8a37a35e25edc56b7fcd4da6"),
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
        1_390,
        "fda198d878639ade7a4ca60cf5d5ffc7fcbdb53ea3f169422853306893c262ea",
    ),
    (
        nearest_neighbor_benchmark,
        16,
        32,
        dict(granularity=ms(1), iterations=4, n_neighbors=4, message_bytes=kib(4)),
        813,
        "32f818d0355e279dad7354071a1556af7096ce34b2e3eef24ff3c4f1896d237e",
    ),
]

RECORDER_APP_LOG = (
    36,
    "26492a73a6ba85a1af86c14413e49e4e839ee5ddd7557568773d5eb0d48873e5",
)


def canonical(log):
    """The log as a per-instant multiset: sorted by ``(t, repr(entry))``."""
    return sorted(log, key=lambda e: (e[0], repr(e)))


def digest(log):
    return hashlib.sha256(repr(canonical(log)).encode()).hexdigest()


def check(log, length, expected, other=None):
    """Assert the pin; on a mismatch, name the first entry at which the
    canonical log departs from ``other`` (the same case under the other
    engine) when that differs too."""
    got = (len(log), digest(log))
    if got == (length, expected):
        return
    message = f"log (length, digest) {got} != pinned {(length, expected)}"
    if other is not None:
        divergence = diff_logs(canonical(log), canonical(other))
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
    log = recorder.log()
    check(log, *RECORDER_APP_LOG)
    assert recorder.summary().splitlines() == [
        "replay.bytes{kind=multicast} 48",
        "replay.bytes{kind=unicast} 24",
        "replay.events{kind=multicast} 3",
        "replay.events{kind=phase} 30",
        "replay.events{kind=unicast} 3",
    ]


def test_digest_is_blind_to_same_instant_order_only():
    a = [(5, "phase", 1, "DEM", 10), (5, "unicast", 0, 1, 64, "p2p"), (9, "phase", 1, "MSM", 4)]
    swapped = [a[1], a[0], a[2]]
    moved = [a[0], (6, "unicast", 0, 1, 64, "p2p"), a[2]]
    assert digest(swapped) == digest(a)
    assert digest(moved) != digest(a)
