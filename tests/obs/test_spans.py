"""Causal message-lifecycle spans: ordering, flow events, determinism."""

from repro.debug import diff_logs
from repro.harness.obs_runs import run_instrumented
from repro.obs import Observability


def _traced(name, n_ranks=4, seed=0):
    obs = Observability()
    run = run_instrumented(name, n_ranks=n_ranks, seed=seed, obs=obs)
    return run, obs.spans


def _delivered(tracker):
    return [m for m in tracker.messages if m.delivered_at is not None]


# --- message lifecycle -------------------------------------------------------------


def test_p2p_spans_capture_the_full_lifecycle():
    run, tracker = _traced("fig8-p2p")
    delivered = _delivered(tracker)
    assert delivered, "nearest-neighbour run must deliver messages"
    for m in delivered:
        # Every lifecycle stage present and monotonically ordered.
        assert m.exchanged_at is not None
        assert m.matched_at is not None
        assert m.send_posted_at <= m.exchanged_at <= m.matched_at <= m.delivered_at
        assert m.matched_by in ("send", "recv")
        assert m.dst_key is not None
        assert m.src_node is not None and m.dst_node is not None
        # Chunk windows are ordered, post-match, and account for every byte.
        prev_end = m.matched_at
        for _slice_no, t0, t1, nbytes in m.chunks:
            assert prev_end <= t0 <= t1
            assert nbytes > 0
            prev_end = t1
        if m.size > 0:
            assert sum(c[3] for c in m.chunks) == m.size
            assert m.chunks[-1][2] <= m.delivered_at
    assert tracker.n_delivered == len(delivered)


def test_collective_spans_gather_every_participant():
    run, tracker = _traced("fig8", n_ranks=4)
    assert tracker.collectives, "barrier benchmark must record collectives"
    for c in tracker.collectives:
        assert c.kind == "barrier"
        assert len(c.posts) == 4  # one post per rank
        assert c.scheduled_at is not None
        assert c.completed_at is not None
        assert max(c.posts.values()) <= c.scheduled_at <= c.completed_at


def test_rank_windows_cover_the_run():
    run, tracker = _traced("fig8", n_ranks=4)
    assert len(tracker.rank_finish) == 4
    assert max(tracker.rank_finish.values()) <= run.result.runtime_ns
    for key, (t0, t1) in tracker.rank_start.items():
        assert t0 <= t1
        assert key in tracker.rank_finish
    # Wait blocks never overlap and stay within the run, per rank.
    for key, blocks in tracker.blocks.items():
        prev = None
        for b in sorted(blocks, key=lambda b: b.t0):
            assert b.t0 <= b.t1 <= run.result.runtime_ns
            if prev is not None:
                assert b.t0 >= prev
            prev = b.t1
            assert b.entries  # a wait always awaited something


# --- Perfetto flow events ----------------------------------------------------------


def _ns(us):
    # Perfetto timestamps are microsecond floats; exact containment
    # checks must compare in integer nanoseconds (float us addition
    # loses the last digit).
    return round(us * 1000)


def test_flow_events_form_complete_triples_inside_real_slices():
    obs = Observability()
    run_instrumented("fig8-p2p", n_ranks=4, obs=obs)
    events = obs.perfetto.to_dict()["traceEvents"]
    flows = [e for e in events if e.get("cat") == "msgflow"]
    assert flows, "p2p run must emit message flow events"
    by_id = {}
    for e in flows:
        by_id.setdefault(e["id"], []).append(e["ph"])
    for phases in by_id.values():
        assert sorted(phases) == ["f", "s", "t"]  # start, step, end
    # flow ids are the dense tracker-local message ids
    assert sorted(by_id) == list(range(len(by_id)))
    # Every flow event lands inside a real duration span on its track.
    spans = [e for e in events if e.get("ph") == "X"]
    for e in flows:
        t = _ns(e["ts"])
        assert any(
            x["pid"] == e["pid"]
            and x["tid"] == e["tid"]
            and _ns(x["ts"]) <= t <= _ns(x["ts"]) + _ns(x["dur"])
            for x in spans
        ), f"flow event at {t} ns not inside any span on its track"


# --- determinism -------------------------------------------------------------------

def _lifecycle_fingerprint(tracker):
    return [
        (
            m.msg_id,
            m.src_key,
            m.dst_key,
            m.tag,
            m.size,
            m.send_posted_at,
            m.exchanged_at,
            m.matched_at,
            m.delivered_at,
            tuple(m.chunks),
        )
        for m in tracker.messages
    ]


def test_span_ids_and_timings_are_run_invariant():
    _, t1 = _traced("fig8-p2p")
    _, t2 = _traced("fig8-p2p")
    assert _lifecycle_fingerprint(t1) == _lifecycle_fingerprint(t2)
    assert [c.posts for c in t1.collectives] == [c.posts for c in t2.collectives]


def test_full_stream_is_run_invariant():
    """Two same-seed runs in one process log equal streams: descriptor
    ids and job indices are drawn per run, not per process."""
    a, b = (run_instrumented("fig8-p2p").obs.events for _ in range(2))
    divergences = diff_logs(a, b)
    assert not divergences, str(divergences[0])
