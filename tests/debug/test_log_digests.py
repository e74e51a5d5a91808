"""Pinned digests of the flight recorder's protocol log.

The golden timings pin makespans, and BCS makespans are slice-quantized,
so an instant can move inside a slice and leave every makespan green.
These digests pin the whole log instead: every microphase (instant,
slice, phase, duration), every fabric transfer, loopbacks included
(instant, endpoints, size, label), every message delivery (instant,
node, ranks, tag, size) and every node's collective completion
(instant, node, communicator, epoch).  Both slice engines must produce
the same log.

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
        486,
        "888602b9c8c0065393b98aa449304069e5c5b22447026b9617ad1e033a78966f",
    ),
    (
        sweep3d_blocking,
        dict(octants=2, kblocks=2),
        250,
        "20588e1f6c7224e6bd8f97d14d8ac8c352001852011ffbeaf302141c4cfa2ef6",
    ),
    (
        barrier_benchmark,
        dict(granularity=ms(2), iterations=3),
        45,
        "a9eee6bed45b8d9adbe0040329b82f6e66b17149d04eadbfcd33c7fd2eb6a875",
    ),
]

# (name, log length, digest) — the benchmark workloads at their default
# seed, as the benchmark runs them.  The 65,536-node machine runs under
# the fast engine only; the reference engine builds every node up front.
BENCH_LOGS = [
    ("halo_64k", 22_860, "ce1c864480a32e3ef098144cd96992634efe8ecb932448b4bf678b29f1b0a4f8"),
    (
        "sweep3d_wavefront",
        28_917,
        "acdcb9e4e4b8f6ebf411b1229ced6af6e6e9b8238bfb2e121836a5832c163a8b",
    ),
    ("sage_idle", 27_930, "e3974dbdbc882ffc28c9d0b41eac4a9824fa48daa1d28e9745a2b5fb40193377"),
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
        2_002,
        "7703b1c79a6dfb0a4206d1dd048cbb2fcad0d64dca22d355c9a97fdad469fc0d",
    ),
    (
        nearest_neighbor_benchmark,
        16,
        32,
        dict(granularity=ms(1), iterations=4, n_neighbors=4, message_bytes=kib(4)),
        1_581,
        "35bf9f3d4a3ad62171cec1621268d0bcd8f09d99ed523b26261721a9ca8162ff",
    ),
]

RECORDER_APP_LOG = (
    78,
    "e5cb8aeeba226cde88f7c99e1d8a81190d4275647462306d66c0470c7c43f122",
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
        "replay.bytes{kind=unicast} 1656",
        "replay.events{kind=collective} 6",
        "replay.events{kind=deliver} 12",
        "replay.events{kind=multicast} 3",
        "replay.events{kind=phase} 30",
        "replay.events{kind=unicast} 27",
    ]


def test_digest_is_blind_to_same_instant_order_only():
    a = [(5, "phase", 1, "DEM", 10), (5, "unicast", 0, 1, 64, "p2p"), (9, "phase", 1, "MSM", 4)]
    swapped = [a[1], a[0], a[2]]
    moved = [a[0], (6, "unicast", 0, 1, 64, "p2p"), a[2]]
    assert digest(swapped) == digest(a)
    assert digest(moved) != digest(a)
