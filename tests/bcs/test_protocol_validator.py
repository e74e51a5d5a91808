"""Protocol-invariant property tests: any workload drives the slice
machine within its structural rules."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bcs import BcsConfig, BcsRuntime
from repro.bcs.validator import ProtocolValidator, Violation
from repro.network import Cluster, ClusterSpec
from repro.obs import Observability
from repro.storm import JobSpec
from repro.units import kib, ms, seconds, us


def run_validated(app, n_ranks=6, params=None):
    obs = Observability()
    cluster = Cluster(ClusterSpec(n_nodes=(n_ranks + 1) // 2))
    config = BcsConfig(init_cost=0)
    runtime = BcsRuntime(cluster, config).attach_observability(obs)
    runtime.run_job(
        JobSpec(app=app, n_ranks=n_ranks, params=params or {}), max_time=seconds(60)
    )
    return ProtocolValidator(
        obs.events, config.timeslice, scheduling_min=config.scheduling_duration
    )


def test_clean_run_has_no_violations():
    def app(ctx):
        peer = ctx.rank ^ 1
        for i in range(3):
            got = yield from ctx.comm.sendrecv(
                np.array([float(i)]), dest=peer, source=peer
            )
            yield from ctx.compute(ms(1))
            _ = yield from ctx.comm.allreduce(np.float64(got[0]), "sum")

    validator = run_validated(app)
    assert validator.validate() == []
    validator.assert_clean()  # does not raise


def test_chunked_large_messages_stay_in_p2p_phase():
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(None, dest=1, size=1024 * 1024)
        elif ctx.rank == 1:
            yield from ctx.comm.recv(source=0)
        else:
            yield from ctx.compute(ms(1))

    validator = run_validated(app)
    validator.assert_clean()
    assert len(validator.phases) >= 2  # multiple active slices (chunks)


def test_validator_detects_seeded_violation():
    """Sanity: the validator is not vacuously green."""
    # A slice whose phases come in the wrong order.
    events = [(50, "phase", 1, "MSM", 50), (150, "phase", 1, "DEM", 50)]
    validator = ProtocolValidator(events, timeslice=us(500))
    kinds = {v.kind for v in validator.validate()}
    assert "phase-order" in kinds
    with pytest.raises(AssertionError):
        validator.assert_clean()


def test_validator_detects_stray_transfer():
    events = [(123, "unicast", 0, 1, 10, "p2p")]
    validator = ProtocolValidator(events, timeslice=us(500))
    kinds = {v.kind for v in validator.validate()}
    assert "p2p-outside-phase" in kinds


# A DEM microphase of slice 1 begun at 100 for two participants, nodes 0
# and 1, each starting at the microstrobe (110) and closed at 200.
_DEM_BEGIN = (100, "phase_begin", 1, "DEM", 2)
_DEM_CLOSE = (200, "phase", 1, "DEM", 100)


def _completion(*reports):
    events = [_DEM_BEGIN, *reports, _DEM_CLOSE]
    return [str(v) for v in ProtocolValidator(events, 1000).check_phase_completion()]


def test_completion_rule_accepts_every_participant_once_inside_the_phase():
    assert _completion(
        (150, "node_phase", 0, 1, "DEM", 110),
        (200, "node_phase", 1, 1, "DEM", 100),  # both edges are inside
    ) == []


def test_completion_rule_flags_a_missing_report():
    assert _completion((150, "node_phase", 0, 1, "DEM", 110)) == [
        "[phase-completion] slice 1 DEM: 1 reports from 1 nodes for 2 participants"
    ]


def test_completion_rule_flags_a_duplicated_report():
    assert _completion(
        (150, "node_phase", 0, 1, "DEM", 110),
        (150, "node_phase", 0, 1, "DEM", 110),
    ) == ["[phase-completion] slice 1 DEM: 2 reports from 1 nodes for 2 participants"]


def test_completion_rule_flags_a_report_after_the_close():
    assert _completion(
        (150, "node_phase", 0, 1, "DEM", 110),
        (201, "node_phase", 1, 1, "DEM", 110),
    ) == ["[phase-report-outside] slice 1 DEM: nodes [1] reported outside [100, 200]"]


def test_completion_rule_flags_a_report_before_the_begin():
    assert _completion(
        (150, "node_phase", 0, 1, "DEM", 99),
        (150, "node_phase", 1, 1, "DEM", 110),
    ) == ["[phase-report-outside] slice 1 DEM: nodes [0] reported outside [100, 200]"]


def test_containment_windows_are_closed_at_both_edges():
    """A transfer completing exactly at a microphase edge is inside it;
    one nanosecond past either edge is outside every window."""
    events = [
        (200, "phase", 1, "DEM", 100),  # DEM window [100, 200]
        (400, "phase", 1, "P2P", 100),  # P2P window [300, 400]
        (1300, "phase", 3, "DEM", 100),  # DEM window [1200, 1300]
        (1500, "phase", 3, "P2P", 100),  # P2P window [1400, 1500]
    ]
    for t in (100, 200, 1200, 1300):
        events.append((t, "unicast", 0, 1, 8, "desc"))
    for t in (300, 400, 1400, 1500):
        events.append((t, "unicast", 0, 1, 8, "p2p"))
    validator = ProtocolValidator(events, timeslice=1000)
    assert validator.check_descriptor_containment() == []
    assert validator.check_p2p_containment() == []

    stray = [
        (99, "unicast", 0, 1, 8, "desc"),
        (201, "unicast", 0, 2, 8, "desc"),
        (299, "unicast", 0, 1, 8, "p2p"),
        (401, "unicast", 0, 3, 8, "p2p"),
        (1600, "unicast", 2, 3, 8, "p2p"),
        (300, "unicast", 0, 1, 8, "desc"),  # inside P2P, not DEM
    ]
    validator = ProtocolValidator(events + stray, timeslice=1000)
    assert [str(v) for v in validator.check_descriptor_containment()] == [
        "[desc-outside-dem] descriptor to node 1 delivered at 99 "
        "outside every DEM microphase",
        "[desc-outside-dem] descriptor to node 2 delivered at 201 "
        "outside every DEM microphase",
        "[desc-outside-dem] descriptor to node 1 delivered at 300 "
        "outside every DEM microphase",
    ]
    assert [str(v) for v in validator.check_p2p_containment()] == [
        "[p2p-outside-phase] transfer 0->1 completed at 299 "
        "outside every P2P microphase",
        "[p2p-outside-phase] transfer 0->3 completed at 401 "
        "outside every P2P microphase",
        "[p2p-outside-phase] transfer 2->3 completed at 1600 "
        "outside every P2P microphase",
    ]


@settings(max_examples=50, deadline=None)
@given(
    windows=st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 60)), max_size=6
    ),
    instants=st.lists(st.integers(0, 300), max_size=12),
)
# A window nested in a longer one: the furthest end, not the last.
@example(windows=[(0, 100), (10, 5)], instants=[50])
def test_containment_matches_linear_scan(windows, instants):
    """Bisected containment flags exactly the transfers a scan over every
    window flags, overlapping windows included."""
    events = [
        (start + length, "phase", i, "P2P", length)
        for i, (start, length) in enumerate(windows)
    ]
    events += [(t, "unicast", 0, 1, 8, "p2p") for t in instants]
    flagged = [
        t
        for t in instants
        if not any(s <= t <= s + length for s, length in windows)
    ]
    violations = ProtocolValidator(events, timeslice=1000).check_p2p_containment()
    assert [v.detail.split(" at ")[1].split()[0] for v in violations] == [
        str(t) for t in flagged
    ]


@settings(max_examples=12, deadline=None)
@given(
    pattern=st.lists(
        st.tuples(
            st.sampled_from(["exchange", "allreduce", "barrier", "bcast", "compute"]),
            st.integers(64, 8192),  # message size
        ),
        min_size=1,
        max_size=5,
    ),
    n_ranks=st.sampled_from([2, 4, 6]),
)
def test_prop_random_workloads_respect_protocol(pattern, n_ranks):
    """Randomly composed (deadlock-free) workloads never violate the
    slice-machine invariants, and both backends produce the payloads."""

    def app(ctx):
        for i, (kind, size) in enumerate(pattern):
            if kind == "exchange":
                peer = (ctx.rank + 1) % ctx.size
                src = (ctx.rank - 1) % ctx.size
                reqs = [
                    ctx.comm.isend(None, dest=peer, tag=i, size=size),
                    ctx.comm.irecv(source=src, tag=i, size=size),
                ]
                yield from ctx.comm.waitall(reqs)
            elif kind == "allreduce":
                _ = yield from ctx.comm.allreduce(np.float64(ctx.rank), "sum")
            elif kind == "barrier":
                yield from ctx.comm.barrier()
            elif kind == "bcast":
                _ = yield from ctx.comm.bcast(
                    b"x" * (size // 64) if ctx.rank == 0 else None, root=0
                )
            else:
                yield from ctx.compute(us(700))

    validator = run_validated(app, n_ranks=n_ranks)
    validator.assert_clean()
