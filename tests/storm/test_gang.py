"""Gang scheduling (MPL > 1): the paper's remedy for blocking delays."""

import functools

import pytest

from repro.bcs import BcsConfig, BcsRuntime
from repro.network import Cluster, ClusterSpec
from repro.storm import GangScheduler, JobSpec
from repro.units import seconds, us


def pingpong_app(ctx, iters=10, grain=us(100)):
    """Fine-grained blocking ping-pong: spends most slices blocked."""
    peer = ctx.rank ^ 1
    for _ in range(iters):
        yield from ctx.compute(grain)
        if ctx.rank % 2 == 0:
            yield from ctx.comm.send(None, dest=peer, size=512)
            yield from ctx.comm.recv(source=peer, size=512)
        else:
            yield from ctx.comm.recv(source=peer, size=512)
            yield from ctx.comm.send(None, dest=peer, size=512)


@functools.lru_cache(maxsize=None)
def run_jobs(n_jobs, gang, engine="fast"):
    cluster = Cluster(ClusterSpec(n_nodes=2))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0, engine=engine))
    scheduler = GangScheduler(runtime) if gang else None
    jobs = []
    for _ in range(n_jobs):
        job = runtime.launch(JobSpec(app=pingpong_app, n_ranks=4, name="pp"))
        if scheduler is not None:
            scheduler.add_job(job)
        jobs.append(job)
    cluster.env.run(until=cluster.env.all_of([j.done for j in jobs]))
    return cluster.env.now, scheduler


def test_single_job_unaffected_by_gang_wrapper():
    t_plain, _ = run_jobs(1, False)
    t_gang, _ = run_jobs(1, True)
    # One job under gang control owns every slice: same order of cost.
    assert t_gang <= t_plain * 1.6


def schedule(scheduler):
    """The schedule log with jobs named by admission index (job ids come
    from a process-global counter, so they differ between runs)."""
    index = {job.id: i for i, job in enumerate(scheduler.jobs)}
    return [index.get(j, j) for j in scheduler.schedule_log]


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_two_jobs_overlap_blocked_slices(engine):
    """Two blocking-heavy jobs coscheduled finish in much less than 2x
    a single job: one computes while the other blocks (paper §5.4)."""
    t_one, _ = run_jobs(1, False, engine)
    t_two, _ = run_jobs(2, True, engine)
    assert t_two < 1.8 * t_one
    # The gang scheduler reaches each node's Node Manager the same way
    # under both engines.
    assert (t_one, t_two) == (run_jobs(1, False)[0], run_jobs(2, True)[0])


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_round_robin_alternates_jobs(engine):
    t_two, scheduler = run_jobs(2, True, engine)
    log = [j for j in schedule(scheduler) if j >= 0]
    # Both jobs got slices, and the schedule alternates while both live.
    assert len(set(log)) == 2
    alternations = sum(1 for a, b in zip(log, log[1:]) if a != b)
    assert alternations >= len(log) // 3
    t_fast, fast = run_jobs(2, True)
    assert t_two == t_fast
    assert schedule(scheduler) == schedule(fast)


def test_gates_follow_active_job():
    cluster = Cluster(ClusterSpec(n_nodes=2))
    runtime = BcsRuntime(cluster, BcsConfig(init_cost=0))
    scheduler = GangScheduler(runtime)
    j1 = runtime.launch(JobSpec(app=pingpong_app, n_ranks=4, name="a"))
    scheduler.add_job(j1)
    j2 = runtime.launch(JobSpec(app=pingpong_app, n_ranks=4, name="b"))
    scheduler.add_job(j2)

    states = []

    def snoop(slice_no):
        g1 = scheduler.gates[(j1.id, 0)].is_open
        g2 = scheduler.gates[(j2.id, 0)].is_open
        states.append((g1, g2))

    runtime.on_slice_start.append(snoop)
    cluster.env.run(until=cluster.env.all_of([j1.done, j2.done]))
    # While both jobs were alive, exactly one gate was open at a time.
    both_alive = [s for s in states if s != (True, True)]
    assert both_alive
    assert all(g1 != g2 for g1, g2 in both_alive)
