#!/usr/bin/env python
"""System-traffic QoS + slice-timeline observability.

Two things the single global scheduler buys (paper §1 and §6):

1. A latency-sensitive application keeps its performance while the
   parallel file system streams bulk writes underneath it — PFS stripes
   are *system-class* and only consume leftover slice budget.
2. Because every slice has the same globally-synchronized shape, the
   runtime can render exactly what each slice did (microphase timing,
   utilization) from the telemetry hub's protocol log.

Run:  python examples/pfs_qos_and_timeline.py
"""

from repro.apps import nearest_neighbor_benchmark
from repro.bcs import BcsConfig, BcsRuntime
from repro.harness.report import print_table
from repro.harness.timeline import Timeline
from repro.network import Cluster, ClusterSpec
from repro.obs import Observability
from repro.pfs import PfsService
from repro.storm import JobSpec
from repro.units import kib, mib, ms, seconds

APP = dict(granularity=ms(3), iterations=12, message_bytes=kib(4))


def run(with_pfs: bool):
    obs = Observability()
    cluster = Cluster(ClusterSpec(n_nodes=8))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0)).attach_observability(obs)
    if with_pfs:
        pfs = PfsService(runtime, io_nodes=list(range(8)))

        def writer():
            for i in range(24):
                pfs.write(i % 8, f"snapshot{i}", mib(4))
                yield cluster.env.timeout(ms(4))

        cluster.env.process(writer(), name="pfs.bg")
    job = runtime.run_job(
        JobSpec(app=nearest_neighbor_benchmark, n_ranks=16, params=APP),
        max_time=seconds(60),
    )
    return job.runtime, Timeline.from_events(obs.events, runtime.config.timeslice)


def main():
    clean, _ = run(False)
    loaded, timeline = run(True)
    print_table(
        "Latency-sensitive app vs PFS background writes (BCS QoS)",
        ["scenario", "app runtime (s)"],
        [
            ["app alone", f"{clean / 1e9:.3f}"],
            ["app + 96 MiB of PFS writes", f"{loaded / 1e9:.3f}"],
            ["interference", f"+{100 * (loaded / clean - 1):.1f}%"],
        ],
    )
    print("\nslice timeline of the loaded run:")
    print(timeline.report())


if __name__ == "__main__":
    main()
