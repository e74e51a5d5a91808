"""Engine-event budget of the slice machine.

Virtual time is pinned elsewhere (tests/test_golden_timings.py); this
pins *host work*: the exact number of heap entries the engine processes
for two small BCS runs and for the baseline MPI on the same two
programs.  The slice machine delivers each microstrobe and each
slice-boundary restart as one heap entry for all woken nodes, charges a
microphase's strobe, Compare-And-Write and minimum duration through two
entries, runs an active slice's empty BBM/RM tail and its sleep as one
entry, restarts a blocked rank straight from its last request's
completion, blocks a rank at its post when no Strobe Receiver can run
during its host overhead, moves an uncontended transfer in one timeout
(its link halves release lazily), serializes NIC thread work on a clock
instead of a resource, takes uncontended CPU holds without a grant
event, moves DMA chunks as callback chains without child processes,
folds a loopback's NIC hold into its copy, and settles events nobody
waits on (buffered-send completions, unwaited processes, a DMA latch
that completes before its Strobe Receiver looks) without an entry, plans
an uncontended active slice in closed form at its DEM microstrobe, so
that only each landing instant, the slice-end sleep and the boundary
wake take entries, plans it at the boundary itself when no entry is left
at that instant (no DEM-strobe wake), blocks a rank at its post when
every request it waits on was posted after the slice's DEM cutoff, and
runs each Strobe Receiver from the microstrobe's callback instead of a
process, so building a node takes no process-init entry.  The
baseline moves each message as a chain of callbacks on its own start
entries and the fabric's (no process per message), and a ``waitall``
counts its requests down without an entry per completion.  A change that
brings back a per-node or relay event (or adds any other) moves these
counts: if that is intended, re-pin them together with the
events-per-active-slice figures in docs/PERFORMANCE.md.
"""

import pytest

from repro.apps import nearest_neighbor_benchmark, sweep3d_blocking
from repro.bcs import BcsConfig, BcsRuntime
from repro.mpi.baseline import BaselineConfig, BaselineRuntime
from repro.network import Cluster, ClusterSpec
from repro.storm import JobSpec
from repro.units import kib, ms

CASES = [
    # (app, nodes, ranks, params, processed events, active slices, makespan ns)
    (sweep3d_blocking, 31, 62, dict(octants=1, kblocks=4), 1_565, 182, 190_017_500),
    (
        nearest_neighbor_benchmark,
        16,
        32,
        dict(granularity=ms(1), iterations=4, n_neighbors=4, message_bytes=kib(4)),
        2_650,
        9,
        8_500_000,
    ),
]


@pytest.mark.parametrize(
    "app,n_nodes,n_ranks,params,events,active,makespan",
    CASES,
    ids=[c[0].__name__ for c in CASES],
)
def test_processed_event_count_is_pinned(
    app, n_nodes, n_ranks, params, events, active, makespan
):
    runtime = BcsRuntime(Cluster(ClusterSpec(n_nodes=n_nodes)), BcsConfig(init_cost=0))
    runtime.run_job(JobSpec(app=app, n_ranks=n_ranks, name=app.__name__, params=params))
    env = runtime.env
    processed = env._seq - len(env._queue)
    assert env.now == makespan
    assert runtime.stats["active_slices"] == active
    assert processed == events, (
        f"{app.__name__}: the engine processed {processed} events "
        f"({processed / active:.1f} per active slice), pinned {events} "
        f"({events / active:.1f} per active slice)"
    )


def _baseline_events(app, n_nodes, n_ranks, params):
    runtime = BaselineRuntime(
        Cluster(ClusterSpec(n_nodes=n_nodes)), BaselineConfig(init_cost=0)
    )
    runtime.run_job(
        JobSpec(app=app, n_ranks=n_ranks, name=app.__name__, params=params)
    )
    env = runtime.env
    return env.now, env._seq - len(env._queue)


def test_baseline_processed_event_count_is_pinned():
    """The baseline MPI on the same small SWEEP3D run: its messages are
    callback chains, its buffered-send completions are settled
    unwatched, and its uncontended transfers take one entry."""
    makespan, processed = _baseline_events(
        sweep3d_blocking, 31, 62, dict(octants=1, kblocks=4)
    )
    assert makespan == 123_966_988
    assert processed == 3_238, f"the engine processed {processed} events, pinned 3,238"


def test_baseline_nearest_neighbor_event_count_is_pinned():
    """The baseline MPI on the BCS nearest-neighbor case: nonblocking
    exchanges completed by ``waitall``, whose requests complete without
    an entry each; the last completion's relay wakes the rank."""
    _, n_nodes, n_ranks, params, *_ = CASES[1]
    makespan, processed = _baseline_events(
        nearest_neighbor_benchmark, n_nodes, n_ranks, params
    )
    assert makespan == 4_447_844
    assert processed == 3_557, f"the engine processed {processed} events, pinned 3,557"
