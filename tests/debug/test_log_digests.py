"""Pinned digests of the flight recorder's protocol log.

The golden timings pin makespans, and BCS makespans are slice-quantized,
so an instant can move inside a slice and leave every makespan green.
These digests pin the whole ordered log instead: every microphase
(instant, slice, phase, duration) and every fabric transfer (instant,
endpoints, size, label).  Both slice engines must produce the same log.
If a change is meant to move an instant, update the digest here and say
so in CHANGES.md.
"""

import hashlib

import pytest

from repro.apps import barrier_benchmark, sage, sweep3d_blocking
from repro.bcs import BcsConfig
from repro.debug import FlightRecorder
from repro.harness import run_workload
from repro.units import ms

from .test_recorder import run_once

# (app, params, log length, sha256 of repr(log)) — the golden BCS runs
# of tests/test_golden_timings.py, 8 ranks.
GOLDEN_LOGS = [
    (
        sage,
        dict(steps=3, step_compute=ms(5)),
        318,
        "326becf7fb1a267feb26b736a44ef467487dc041f832e31ce134d8251a663cac",
    ),
    (
        sweep3d_blocking,
        dict(octants=2, kblocks=2),
        178,
        "aa073c15d86973eb87a8432b283a28836a0fb8a70bb90d6d771b18de658f4713",
    ),
    (
        barrier_benchmark,
        dict(granularity=ms(2), iterations=3),
        33,
        "5591e35aad51da8356b4c7a63fbd28aabdf731d68bc9f2146ce1956a4c816432",
    ),
]

RECORDER_APP_LOG = (
    36,
    "26492a73a6ba85a1af86c14413e49e4e839ee5ddd7557568773d5eb0d48873e5",
)


def digest(log):
    return hashlib.sha256(repr(log).encode()).hexdigest()


def golden_log(app, params, engine):
    recorder = FlightRecorder()
    config = BcsConfig(init_cost=0, engine=engine)
    run_workload(app, 8, "bcs", params=params, bcs_config=config, obs=recorder.obs)
    return recorder.log()


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize(
    "app,params,length,expected",
    GOLDEN_LOGS,
    ids=[a.__name__ for a, _, _, _ in GOLDEN_LOGS],
)
def test_golden_protocol_log_digest(app, params, length, expected, engine):
    log = golden_log(app, params, engine)
    assert (len(log), digest(log)) == (length, expected)


def test_recorder_app_log_digest():
    recorder = FlightRecorder()
    run_once(recorder.obs)
    log = recorder.log()
    assert (len(log), digest(log)) == RECORDER_APP_LOG
    assert recorder.summary().splitlines() == [
        "replay.bytes{kind=multicast} 48",
        "replay.bytes{kind=unicast} 24",
        "replay.events{kind=multicast} 3",
        "replay.events{kind=phase} 30",
        "replay.events{kind=unicast} 3",
    ]
