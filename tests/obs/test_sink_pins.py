"""Pinned digests of every sink's output.

The golden timings pin makespans and the protocol-log digests pin the
recorder's view of a run.  These pin what the other views print: the
metrics registry's text rendering, the Perfetto trace's JSON bytes, the
MPI profiler's report and the ``repro explain`` blame JSON, for the four
instrumented experiments at 8 ranks under both slice engines, with every
sink on.  Output is deterministic, so a change that alters any view of
any of these runs shows up here.  If a change is meant to alter a view,
update its digest here and say so in CHANGES.md.
"""

import functools
import hashlib

import pytest

from repro.bcs import BcsConfig
from repro.harness.obs_runs import INSTRUMENTED
from repro.harness.runner import run_workload
from repro.obs import Observability
from repro.obs.critpath import blame_payload, critical_path, to_json_bytes

RANKS = 8

# (experiment, engine) -> sink -> sha256 of its output.
PINS = {
    ('fig8', 'fast'): {
        'registry': "8355fe86c56210cc02bf08bb2e4dba3eae6a33b2fe0301379d0b77c24d1f7f88",
        'perfetto': "6ee979f27f3beadc90c383ef156dfa9b184c35d98158b53be65380de51c6824d",
        'profiler': "f45e952f1a4c2efd84956e7a9b55243958dec5f548dac35d86520c2dffc77184",
        'blame': "d8d28b6406c8ff3394c41765dab820c1c1445196058d3fb516ad539f9e95dc66",
    },
    ('fig8', 'reference'): {
        'registry': "8355fe86c56210cc02bf08bb2e4dba3eae6a33b2fe0301379d0b77c24d1f7f88",
        'perfetto': "ce886a56da652007283be01b272a1a179655ce71ba123ef9dc3da2cc8466e389",
        'profiler': "f45e952f1a4c2efd84956e7a9b55243958dec5f548dac35d86520c2dffc77184",
        'blame': "d8d28b6406c8ff3394c41765dab820c1c1445196058d3fb516ad539f9e95dc66",
    },
    ('fig8-p2p', 'fast'): {
        'registry': "7db061ff86afd9e2e2eb0561f61493f5bf0fe5cb9117019b7b9e9a48a1e222d2",
        'perfetto': "c0dde15cef20fc4d342b33d2d51893829a14a76697facaac55bf6e4d5cf6a42f",
        'profiler': "84d3eb43cbacfa8a2024fd0144073d1a4215aba1f3c9b938c1050665e94b085c",
        'blame': "8fbb93927f4b897061430fd06969254e967d48301700de5e084eef6e4998c5d1",
    },
    ('fig8-p2p', 'reference'): {
        'registry': "7db061ff86afd9e2e2eb0561f61493f5bf0fe5cb9117019b7b9e9a48a1e222d2",
        'perfetto': "1204e936b99db622c6b6617b12b3699d92ea6bffa55f0b4cb7f20201869e83d8",
        'profiler': "84d3eb43cbacfa8a2024fd0144073d1a4215aba1f3c9b938c1050665e94b085c",
        'blame': "8fbb93927f4b897061430fd06969254e967d48301700de5e084eef6e4998c5d1",
    },
    ('sage', 'fast'): {
        'registry': "794f10c48ca08b268752b060a396e70a535cc7535505a9c3eb2b5ade75a55b92",
        'perfetto': "4fcf50badd19f48fac12d1f9b36cc28df556cb9decee5e3f2b18876e5b5e4a40",
        'profiler': "35cd15be43255893c268d5017c2b64aa3ecbe516c411a8c3bf65b0e32ab50270",
        'blame': "a0da31cf11dbf9228bcd2c8d030a6da2aaa77b597b38137de409fb19b6648470",
    },
    ('sage', 'reference'): {
        'registry': "794f10c48ca08b268752b060a396e70a535cc7535505a9c3eb2b5ade75a55b92",
        'perfetto': "782a0c3a4bdc6cde33c952e44e759f7c560c89066f9add1923a21035a67e1157",
        'profiler': "35cd15be43255893c268d5017c2b64aa3ecbe516c411a8c3bf65b0e32ab50270",
        'blame': "a0da31cf11dbf9228bcd2c8d030a6da2aaa77b597b38137de409fb19b6648470",
    },
    ('sweep3d', 'fast'): {
        'registry': "f91fb76d46f78c313559149d840531109d44c13e5fb18fe3160fb30f318146a4",
        'perfetto': "b16abcdb7f488d21c41e883a1c3eae4454237e4c2e6ff30f204912296159d2ef",
        'profiler': "94e2cba5a7abfe9c907b20f68f3c59a381ed384391192b8b5979e2680da238eb",
        'blame': "b6d4f21f476e1a84adaa50478dd9f3803f24f6b6c5b90bce30fd1244b68bb4b6",
    },
    ('sweep3d', 'reference'): {
        'registry': "f91fb76d46f78c313559149d840531109d44c13e5fb18fe3160fb30f318146a4",
        'perfetto': "89b7d823d3acf9a87508c5d983e6e548d252e0d1aa93edf1a63ee529b6425a9f",
        'profiler': "94e2cba5a7abfe9c907b20f68f3c59a381ed384391192b8b5979e2680da238eb",
        'blame': "b6d4f21f476e1a84adaa50478dd9f3803f24f6b6c5b90bce30fd1244b68bb4b6",
    },
}

SINKS = ("registry", "perfetto", "profiler", "blame")


def hub() -> Observability:
    """The telemetry hub every pinned run attaches, every sink on."""
    return Observability()


@functools.lru_cache(maxsize=None)
def outputs(name: str, engine: str) -> dict:
    """Every sink's output bytes for one instrumented run."""
    app, params = INSTRUMENTED[name]
    obs = hub()
    result = run_workload(
        app,
        RANKS,
        "bcs",
        params=dict(params),
        bcs_config=BcsConfig(init_cost=0, engine=engine),
        seed=0,
        obs=obs,
    )
    report = critical_path(obs.spans, makespan_ns=result.runtime_ns, top=8)
    return {
        "registry": obs.registry.render().encode(),
        "perfetto": obs.perfetto.to_json_bytes(),
        "profiler": obs.profiler.report().encode(),
        "blame": to_json_bytes(
            blame_payload(report, experiment=name, ranks=RANKS, seed=0)
        ),
    }


@pytest.mark.parametrize("sink", SINKS)
@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("name", sorted(INSTRUMENTED))
def test_sink_output_digest(name, engine, sink):
    got = hashlib.sha256(outputs(name, engine)[sink]).hexdigest()
    assert got == PINS[(name, engine)][sink], (
        f"{sink} output of {name} ({engine} engine) changed"
    )
