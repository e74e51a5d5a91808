"""Stall diagnosis: explain *why* an application is stuck.

Because the global communication state is explicit (paper §1), a hung
run can be diagnosed mechanically: every blocked rank, every unmatched
descriptor, and every half-posted collective is sitting in a queue
somewhere.  :func:`diagnose` renders that into the report a developer
needs; the runtime watchdog attaches it to the timeout error.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..bcs.descriptors import ANY_SOURCE, ANY_TAG

if TYPE_CHECKING:  # pragma: no cover
    from ..bcs.runtime import BcsRuntime


def _fmt_src(src: int) -> str:
    return "ANY" if src == ANY_SOURCE else str(src)


def _fmt_tag(tag: int) -> str:
    return "ANY" if tag == ANY_TAG else str(tag)


def diagnose(runtime: "BcsRuntime") -> str:
    """Human-readable stall report for a runtime's current state."""
    lines: List[str] = []

    # Which ranks are still alive, and are they blocked?
    from ..sim.events import Timeout

    for (job_id, rank), proc in sorted(runtime.rank_procs.items()):
        if not proc.is_alive:
            continue
        if proc.target is None:
            state = "runnable"
        elif isinstance(proc.target, Timeout):
            state = "computing"
        else:
            name = proc.target.name or type(proc.target).__name__
            state = f"blocked on {name}"
        lines.append(f"job {job_id} rank {rank}: {state}")

    # Unmatched traffic per node.  Only materialized nodes can hold
    # state worth reporting; never-touched flyweight slots have no
    # matcher and therefore nothing unmatched.
    for nrt in runtime.node_runtimes.materialized():
        for send in nrt.matcher.unexpected:
            lines.append(
                f"node {nrt.node_id}: send {send.src_rank}->{send.dst_rank} "
                f"tag={send.tag} size={send.size} has NO matching receive "
                f"(job {send.job_id})"
            )
        for recv in nrt.matcher.posted:
            lines.append(
                f"node {nrt.node_id}: recv rank={recv.rank} "
                f"from={_fmt_src(recv.src_rank)} tag={_fmt_tag(recv.tag)} "
                f"has NO matching send (job {recv.job_id})"
            )

        # Collectives waiting for stragglers.
        for (job_id, comm_id), epochs in nrt.coll_state.items():
            info = runtime.comm_info(job_id, comm_id)
            for epoch, ep in sorted(epochs.items()):
                posted = {d.rank for d in ep.descs}
                missing = [
                    r for r in info.node_ranks.get(nrt.node_id, ()) if r not in posted
                ]
                if missing:
                    lines.append(
                        f"node {nrt.node_id}: collective {ep.kind or '?'} epoch "
                        f"{epoch} (job {job_id}, comm {comm_id}) waiting for "
                        f"local ranks {missing}"
                    )

    backlog = runtime.scheduler.backlog_bytes
    if backlog:
        lines.append(f"scheduler backlog: {backlog} bytes still in flight")

    lines.extend(_telemetry_lines(runtime))

    if not lines:
        return "no pending communication state (pure-compute stall?)"
    return "\n".join(lines)


def _telemetry_lines(runtime: "BcsRuntime") -> List[str]:
    """Slice-telemetry footer for the stall report.

    When the run is instrumented (``runtime.obs``), the metrics registry
    already aggregates slice counts, queue depths, and microphase
    durations — render the ``bcs.*`` series instead of re-counting
    queues here.
    """
    obs = getattr(runtime, "obs", None)
    if obs is None:
        return []
    rendered = [
        line
        for line in obs.registry.render().splitlines()
        if line.startswith("bcs.")
    ]
    if not rendered:
        return []
    return ["", "telemetry at stall time:"] + [f"  {line}" for line in rendered]
