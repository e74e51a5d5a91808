"""Unit tests for the MSM slice scheduler (chunking + budgets)."""

from repro.bcs import BcsConfig, SliceScheduler
from repro.bcs.descriptors import Match, RecvDescriptor, SendDescriptor
from repro.units import KiB


class _Req:
    complete = False


def make_match(src_node, dst_node, size):
    send = SendDescriptor(
        job_id=0, comm_id=0, src_rank=0, dst_rank=1, tag=0, size=size, request=_Req()
    )
    recv = RecvDescriptor(
        job_id=0, comm_id=0, rank=1, src_rank=0, tag=0, capacity=size, request=_Req()
    )
    return Match(send=send, recv=recv, src_node=src_node, dst_node=dst_node, total_bytes=size)


def make_scheduler():
    return SliceScheduler(BcsConfig(), link_bandwidth=300e6)


def test_small_message_granted_fully():
    sched = make_scheduler()
    m = make_match(0, 1, 4 * KiB)
    sched.add_matches([m])
    granted = sched.schedule_slice()
    assert granted == [m]
    assert m.scheduled_now == 4 * KiB


def test_large_message_chunked_over_slices():
    sched = make_scheduler()
    big = 10 * sched.budget_bytes
    m = make_match(0, 1, big)
    sched.add_matches([m])
    slices = 0
    while not m.finished:
        granted = sched.schedule_slice()
        assert granted and granted[0].scheduled_now <= sched.budget_bytes
        m.bytes_done += m.scheduled_now
        sched.retire_finished()
        slices += 1
        assert slices < 50
    assert slices == 10


def test_rx_budget_shared_by_two_senders():
    sched = make_scheduler()
    m1 = make_match(0, 2, sched.budget_bytes)
    m2 = make_match(1, 2, sched.budget_bytes)
    sched.add_matches([m1, m2])
    granted = sched.schedule_slice()
    # m1 eats the whole rx budget of node 2; m2 waits.
    assert granted == [m1]
    assert m2.scheduled_now == 0


def test_tx_budget_shared_by_two_destinations():
    sched = make_scheduler()
    m1 = make_match(0, 1, sched.budget_bytes // 2)
    m2 = make_match(0, 2, sched.budget_bytes)
    sched.add_matches([m1, m2])
    sched.schedule_slice()
    assert m1.scheduled_now == sched.budget_bytes // 2
    assert m2.scheduled_now == sched.budget_bytes - m1.scheduled_now


def test_disjoint_pairs_both_fully_granted():
    sched = make_scheduler()
    m1 = make_match(0, 1, sched.budget_bytes)
    m2 = make_match(2, 3, sched.budget_bytes)
    sched.add_matches([m1, m2])
    assert len(sched.schedule_slice()) == 2


def test_in_flight_priority_over_new_matches():
    """A partially-sent message keeps its budget ahead of newcomers."""
    sched = make_scheduler()
    old = make_match(0, 1, 3 * sched.budget_bytes)
    sched.add_matches([old])
    sched.schedule_slice()
    old.bytes_done += old.scheduled_now

    new = make_match(2, 1, sched.budget_bytes)
    sched.add_matches([new])
    sched.schedule_slice()
    assert old.scheduled_now == sched.budget_bytes
    assert new.scheduled_now == 0  # rx budget of node 1 exhausted by old


def test_retire_finished_removes_done_matches():
    sched = make_scheduler()
    m = make_match(0, 1, 100)
    sched.add_matches([m])
    sched.schedule_slice()
    m.bytes_done = m.total_bytes
    assert sched.retire_finished() == [m]
    assert sched.in_flight == []
    assert sched.backlog_bytes == 0


def test_zero_byte_message_granted_for_delivery_without_budget():
    """Zero-size messages get a delivery pass but consume no budget."""
    sched = make_scheduler()
    zero = make_match(0, 1, 0)
    full = make_match(0, 1, sched.budget_bytes)
    sched.add_matches([zero, full])
    granted = sched.schedule_slice()
    assert zero in granted
    assert zero.scheduled_now == 0
    # The zero-byte message did not eat into the link budget.
    assert full.scheduled_now == sched.budget_bytes


# --- property tests -----------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),          # src node
            st.integers(0, 5),          # dst node
            st.integers(0, 400_000),    # size
            st.booleans(),              # system class
        ),
        min_size=1,
        max_size=20,
    )
)
def test_prop_budgets_never_oversubscribed(specs):
    """No link's per-slice budget is ever exceeded, and system traffic
    never displaces user traffic."""
    sched = make_scheduler()
    matches = []
    for src, dst, size, system in specs:
        m = make_match(src, dst, size)
        m.system = system
        matches.append(m)
    sched.add_matches(matches)

    granted = sched.schedule_slice()
    tx = {}
    rx = {}
    for m in granted:
        assert 0 <= m.scheduled_now <= m.remaining
        tx[m.src_node] = tx.get(m.src_node, 0) + m.scheduled_now
        rx[m.dst_node] = rx.get(m.dst_node, 0) + m.scheduled_now
    assert all(v <= sched.budget_bytes for v in tx.values())
    assert all(v <= sched.budget_bytes for v in rx.values())

    # QoS: rerunning with the system traffic removed must grant every
    # user match at least as much as before.
    sched2 = make_scheduler()
    user_only = []
    for src, dst, size, system in specs:
        if not system:
            user_only.append(make_match(src, dst, size))
    sched2.add_matches(user_only)
    sched2.schedule_slice()
    with_system = [m.scheduled_now for m in matches if not m.system]
    without_system = [m.scheduled_now for m in user_only]
    assert with_system == without_system


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 2_000_000), min_size=1, max_size=8),
    st.integers(1, 40),
)
def test_prop_chunking_conserves_bytes(sizes, max_slices):
    """Driving the scheduler to completion moves exactly every byte."""
    sched = make_scheduler()
    matches = [make_match(i % 3, 3 + i % 3, size) for i, size in enumerate(sizes)]
    sched.add_matches(matches)
    moved = 0
    for _ in range(10_000):
        granted = sched.schedule_slice()
        if not granted:
            break
        for m in granted:
            m.bytes_done += m.scheduled_now
            moved += m.scheduled_now
        sched.retire_finished()
    assert moved == sum(sizes)
    assert sched.backlog_bytes == 0
    assert all(m.finished for m in matches)
