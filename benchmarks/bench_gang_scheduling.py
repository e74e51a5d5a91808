"""Gang-scheduling bench: the multiprogramming remedy of §5.4.

Not a paper figure.  Two blocking-heavy SWEEP3D jobs share the machine
at multiprogramming level 2; coscheduling lets one job compute while
the other waits on its slice boundaries, so the pair finishes well
before two back-to-back runs would.
"""

from repro.apps import sweep3d_blocking
from repro.bcs import BcsConfig, BcsRuntime
from repro.harness.report import print_table
from repro.network import Cluster, ClusterSpec
from repro.storm import GangScheduler, JobSpec


def _gang_runs():
    params = dict(octants=2, kblocks=4)

    def run(n_jobs, gang):
        cluster = Cluster(ClusterSpec(n_nodes=8))
        runtime = BcsRuntime(cluster, BcsConfig(init_cost=0))
        scheduler = GangScheduler(runtime) if gang else None
        jobs = []
        for i in range(n_jobs):
            job = runtime.launch(
                JobSpec(app=sweep3d_blocking, n_ranks=16, name=f"j{i}", params=params)
            )
            if scheduler:
                scheduler.add_job(job)
            jobs.append(job)
        cluster.env.run(until=cluster.env.all_of([j.done for j in jobs]))
        return cluster.env.now

    one = run(1, False)
    two_gang = run(2, True)
    return one, two_gang


def test_ablation_gang_scheduling(benchmark):
    one, two_gang = benchmark.pedantic(_gang_runs, rounds=1, iterations=1)
    print_table(
        "Ablation: gang scheduling two blocking-heavy jobs (MPL=2)",
        ["configuration", "makespan (s)"],
        [
            ["1 job", f"{one / 1e9:.3f}"],
            ["2 jobs gang-scheduled", f"{two_gang / 1e9:.3f}"],
            ["2 jobs back-to-back", f"{2 * one / 1e9:.3f}"],
        ],
    )
    # Coscheduling reclaims blocked-CPU time: well under 2x one job.
    assert two_gang < 1.85 * one
