"""Differential tests for the batched slice engine.

The batch feeds (``add_send_batch`` / ``add_recv_batch``) must be
observationally identical to sequential ``add_send`` / ``add_recv``
calls in batch order — same match sequence, same truncation raise
points, same queue state afterwards.  Only ``HashMatcher.add_send_batch``
is vectorized: it joins a batch of at least ``BATCH_MIN`` sends while no
wildcard receive is posted and takes the object path otherwise; receive
batches always take the object path.  The streams cover exact patterns
(the vectorized send join), wildcard-heavy traffic (the fallback and
the receive path) and truncation.  On top of the matcher, the fast
engine must produce byte-identical virtual time versus the reference
engine's per-descriptor object path.
"""

import random
import types

import pytest

from repro.bcs import (
    ANY_SOURCE,
    ANY_TAG,
    BcsConfig,
    HashMatcher,
    LinearMatcher,
    TruncationError,
)
from repro.bcs.descriptors import RecvDescriptor, SendDescriptor
from repro.bcs.matching import BATCH_MIN
from repro.bcs.threads import NodeRuntime
from repro.harness.runner import run_workload
from repro.units import ms

from .test_active_sets import _stats


class _Req:
    complete = False


def _send(rng, *, jobs=1, ranks=4, tags=3):
    return SendDescriptor(
        job_id=rng.randrange(jobs),
        comm_id=0,
        src_rank=rng.randrange(ranks),
        dst_rank=0,
        tag=rng.randrange(tags),
        size=rng.choice([8, 64, 4096]),
        request=_Req(),
        seq=0,
    )


def _recv(rng, *, jobs=1, ranks=4, tags=3, p_wild=0.0, p_small=0.0):
    return RecvDescriptor(
        job_id=rng.randrange(jobs),
        comm_id=0,
        rank=0,
        src_rank=ANY_SOURCE if rng.random() < p_wild else rng.randrange(ranks),
        tag=ANY_TAG if rng.random() < p_wild else rng.randrange(tags),
        capacity=100 if rng.random() < p_small else 1 << 30,
        request=_Req(),
    )


def _clone(d):
    if isinstance(d, SendDescriptor):
        return SendDescriptor(
            job_id=d.job_id, comm_id=d.comm_id, src_rank=d.src_rank,
            dst_rank=d.dst_rank, tag=d.tag, size=d.size, request=d.request,
            seq=d.seq, desc_id=d.desc_id,
        )
    return RecvDescriptor(
        job_id=d.job_id, comm_id=d.comm_id, rank=d.rank, src_rank=d.src_rank,
        tag=d.tag, capacity=d.capacity, request=d.request, desc_id=d.desc_id,
    )


def _snapshot(matcher):
    return (
        [d.desc_id for d in matcher.unexpected],
        [d.desc_id for d in matcher.posted],
        matcher.pending_counts,
    )


def _match_key(m):
    return (m.send.desc_id, m.recv.desc_id, m.total_bytes, m.matched_via)


def _feed_sequential(matcher, op, batch):
    """Reference: one-at-a-time feed; stops at a truncation raise.

    Returns (matches, raised_at) where ``matches`` is [(index, key)].
    """
    add = matcher.add_send if op == "send" else matcher.add_recv
    out = []
    for i, d in enumerate(batch):
        try:
            m = add(d)
        except TruncationError:
            return out, i
        if m is not None:
            out.append((i, _match_key(m)))
    return out, None


def _feed_batched(matcher, op, batch):
    add = matcher.add_send_batch if op == "send" else matcher.add_recv_batch
    try:
        got = add(batch)
    except TruncationError:
        return None, True
    return [(i, _match_key(m)) for i, m in got], False


def _run_stream(seed, *, p_wild, p_small, n_batches=12):
    """One randomized stream fed as batches to three matchers.

    The batched HashMatcher must produce the same (index, match-key)
    sequence, the same truncation raise point, and the same queue
    snapshot after every batch as the sequential HashMatcher and
    LinearMatcher oracles.
    """
    rng = random.Random(seed)
    batched = HashMatcher(0)
    seq_hash = HashMatcher(1)
    linear = LinearMatcher(2)
    total = 0
    for _ in range(n_batches):
        op = rng.choice(["send", "recv"])
        # Mostly >= BATCH_MIN so the vectorized path runs; a few tiny
        # batches keep the fallback threshold covered too.
        n = rng.choice([2, BATCH_MIN, BATCH_MIN + 4, 24, 40])
        total += n
        if op == "send":
            batch = [_send(rng) for _ in range(n)]
        else:
            batch = [
                _recv(rng, p_wild=p_wild, p_small=p_small) for _ in range(n)
            ]
        got_b, raised_b = _feed_batched(batched, op, batch)
        got_s, raised_at_s = _feed_sequential(
            seq_hash, op, [_clone(d) for d in batch]
        )
        got_l, raised_at_l = _feed_sequential(
            linear, op, [_clone(d) for d in batch]
        )
        assert raised_at_s == raised_at_l, seed
        if raised_b:
            assert raised_at_s is not None, seed
        else:
            assert raised_at_s is None, seed
            assert got_b == got_s == got_l, (seed, op, got_b, got_s)
        assert _snapshot(batched) == _snapshot(seq_hash) == _snapshot(linear), (
            seed,
            op,
        )
        if raised_b:
            return total, True
    return total, False


def test_batched_differential_exact_streams():
    """>= 10^4 exact-pattern messages: vectorized join == object path."""
    total = 0
    seed = 0
    while total < 10_000:
        total += _run_stream(seed, p_wild=0.0, p_small=0.0)[0]
        seed += 1


def test_batched_differential_wildcard_heavy_streams():
    """>= 10^4 messages with 35% wildcard receives: fallback + splits."""
    total = 0
    seed = 10_000
    while total < 10_000:
        total += _run_stream(seed, p_wild=0.35, p_small=0.0)[0]
        seed += 1


def test_batched_differential_truncation_streams():
    """>= 10^4 messages with undersized receive buffers: identical raise
    points and identical post-raise queue state."""
    total = 0
    raises = 0
    seed = 20_000
    while total < 10_000 or raises < 20:
        n, raised = _run_stream(seed, p_wild=0.1, p_small=0.15)
        total += n
        raises += raised
        seed += 1
    assert raises >= 20


def test_batched_multi_job_purge_keeps_wild_count():
    """purge_job must rebuild the wildcard counter: a stale count would
    make add_send_batch take the (wrong) vectorized fast path."""
    m = HashMatcher(0)
    rng = random.Random(3)
    for _ in range(6):
        m.add_recv(_recv(rng, jobs=2, p_wild=1.0))
    assert m._wild_posted == 6
    m.purge_job(0)
    assert m._wild_posted == len(m.posted)
    m.purge_job(1)
    assert m._wild_posted == 0
    # With no wildcards left the vectorized send path is valid again.
    sends = [_send(rng) for _ in range(BATCH_MIN)]
    assert m.add_send_batch(sends) == []
    assert m.pending_counts == (BATCH_MIN, 0)


# -- end-to-end virtual-time identity -----------------------------------------


def _wildcard_app(ctx, iterations=4, payload=64):
    """Rank 0 sinks ANY_SOURCE/ANY_TAG receives; others send to it."""
    for it in range(iterations):
        if ctx.rank == 0:
            for _ in range(ctx.size - 1):
                yield from ctx.comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
        else:
            yield from ctx.comm.send(
                b"x" * payload, dest=0, tag=(ctx.rank + it) % 3
            )
        yield from ctx.comm.barrier()


def _nn_app(ctx, iterations=5):
    from repro.apps.synthetic import nearest_neighbor_benchmark

    yield from nearest_neighbor_benchmark(
        ctx, granularity=ms(1), iterations=iterations
    )


@pytest.mark.parametrize("app", [_wildcard_app, _nn_app])
def test_virtual_time_identity_batched_vs_object_path(app):
    results = {}
    for engine in ("fast", "reference"):
        cfg = BcsConfig(init_cost=0, engine=engine)
        r = run_workload(app, 8, "bcs", bcs_config=cfg)
        results[engine] = (r.runtime_ns, _stats(r), r.results)
    assert results["fast"] == results["reference"]


# -- the posted-FIFO drain fast path -------------------------------------------


class _Stamped:
    def __init__(self, t):
        self.posted_at = t


def _drain(queue, cutoff):
    stub = types.SimpleNamespace(slice_start_time=cutoff)
    return NodeRuntime._drain_posted(stub, queue)


@pytest.mark.parametrize(
    "stamps,cutoff",
    [
        ([], 10),
        ([11, 12, 13], 10),        # nothing ready
        ([1, 2, 3], 10),           # whole queue ready
        ([1, 5, 10, 10, 11, 20], 10),  # split (inclusive boundary)
        ([10], 10),
        ([0] * 40 + [99] * 40, 10),
    ],
)
def test_drain_posted_matches_filter_reference(stamps, cutoff):
    queue = [_Stamped(t) for t in stamps]
    ref_take = [d for d in queue if d.posted_at <= cutoff]
    ref_keep = [d for d in queue if d.posted_at > cutoff]
    take = _drain(queue, cutoff)
    assert take == ref_take
    assert queue == ref_keep
