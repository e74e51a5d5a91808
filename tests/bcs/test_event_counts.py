"""Engine-event budget of the slice machine.

Virtual time is pinned elsewhere (tests/test_golden_timings.py); this
pins *host work*: the exact number of heap entries the engine processes
for two small BCS runs.  The slice machine delivers each microstrobe and
each slice-boundary restart as one heap entry for all woken nodes, takes
uncontended NIC/CPU holds without a grant event and moves a node's lone
DMA chunk without a child process.  A change that brings back a
per-node event (or adds any other) moves these counts: if that is
intended, re-pin them together with the events-per-active-slice figures
in docs/PERFORMANCE.md.
"""

import pytest

from repro.apps import nearest_neighbor_benchmark, sweep3d_blocking
from repro.bcs import BcsConfig, BcsRuntime
from repro.network import Cluster, ClusterSpec
from repro.storm import JobSpec
from repro.units import kib, ms

CASES = [
    # (app, nodes, ranks, params, processed events, active slices, makespan ns)
    (sweep3d_blocking, 31, 62, dict(octants=1, kblocks=4), 7_595, 182, 190_017_500),
    (
        nearest_neighbor_benchmark,
        16,
        32,
        dict(granularity=ms(1), iterations=4, n_neighbors=4, message_bytes=kib(4)),
        6_608,
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
