"""Point registry: expansion order, hashing, JSON-safety, execution."""

import json

import pytest

from repro.farm.points import (
    EXTENSION_FAMILIES,
    FAMILIES,
    FIGURE_FAMILIES,
    SCALING_FAMILIES,
    PointSpec,
    check_family,
    execute_point,
    expand_family,
    family_specs,
)

#: Expected paper-preset point counts (the paper's sweeps).
EXPECTED_COUNTS = {
    "table1": 25,  # 5 networks x 5 node counts
    "fig8a": 6,
    "fig8b": 6,
    "fig8c": 6,
    "fig8d": 6,
    "table2": 7,  # SAGE SWEEP3D IS EP MG CG LU
    "fig10": 5,
    "fig11": 10,  # 5 proc counts x 2 variants
    "ablation_timeslice": 5,
    "ablation_buffered": 2,
    "ablation_kernel": 2,
}


#: Expected paper-preset counts of the extension studies (kept apart
#: from EXPECTED_COUNTS, which must stay == the paper's figure set).
EXTENSION_COUNTS = {
    "ext_ft": 1,
    "ext_pfs_qos": 4,  # 2 schedulers x (alone, with PFS)
    "ext_noise": 3,  # quiet / uncoordinated / coordinated
}


def test_every_figure_family_registered():
    assert set(EXPECTED_COUNTS) == set(FIGURE_FAMILIES)
    for name in FIGURE_FAMILIES:
        assert name in FAMILIES


def test_extension_families_registered_but_not_in_figure_set():
    assert set(EXTENSION_COUNTS) == set(EXTENSION_FAMILIES)
    for name in EXTENSION_FAMILIES:
        assert name in FAMILIES
        assert name not in FIGURE_FAMILIES
        assert FAMILIES[name].title.startswith("Extension:")


def test_scaling_families_registered_but_not_in_figure_set():
    assert SCALING_FAMILIES == ("scaling",)
    for name in SCALING_FAMILIES:
        assert name in FAMILIES
        assert name not in FIGURE_FAMILIES
        assert name not in EXTENSION_FAMILIES


def test_scaling_expansion():
    specs = expand_family("scaling", "paper")
    # 2 networks x 4 power-of-four node counts up to 64k, network-major.
    assert len(specs) == 8
    params = [s.params_dict for s in specs]
    assert [p["n_nodes"] for p in params] == [1024, 4096, 16384, 65536] * 2
    assert {p["network"] for p in params} == {"qsnet", "bluegene_l_torus"}
    assert all(p["app"] == "neighbor" for p in params)
    assert all(p["message_kib"] == 4 for p in params)
    assert [s.index for s in specs] == list(range(8))
    # The memory/GC trend columns ride on the row itself.
    assert "peak_rss_mib" in FAMILIES["scaling"].trend_columns
    assert "gc_collections" in FAMILIES["scaling"].trend_columns
    # smoke keeps a small and a mid-size machine on both networks.
    smoke = [p.params_dict for p in expand_family("scaling", "smoke")]
    assert [p["n_nodes"] for p in smoke] == [128, 4096, 128, 4096]
    assert all(p["iterations"] == 12 for p in smoke)


#: The sweeps of the former ``scaling1024``/``scaling16k``/``scaling64k``
#: families, now run as ``overrides`` of the one ``scaling`` family.
SCALING_SWEEPS = {
    "scaling1024": dict(
        node_counts=(128, 256, 512, 1024), active_ranks=8, iterations=60
    ),
    "scaling16k": dict(node_counts=(2048, 4096, 8192, 16384)),
    "scaling64k": dict(node_counts=(2048, 8192, 16384, 65536)),
}


def _sweep_nodes(name):
    specs = expand_family("scaling", "paper", SCALING_SWEEPS[name])
    # 2 networks x 4 power-of-two node counts, network-major order.
    assert len(specs) == 8
    assert [s.index for s in specs] == list(range(8))
    params = [s.params_dict for s in specs]
    assert {p["network"] for p in params} == {"qsnet", "bluegene_l_torus"}
    assert all(p["app"] == "neighbor" for p in params)
    return params


def _smoke_nodes(lo, hi):
    smoke = [s.params_dict for s in expand_family("scaling", "smoke")]
    assert all(p["iterations"] == 12 for p in smoke)
    return [p["n_nodes"] for p in smoke if lo <= p["n_nodes"] <= hi]


def test_scaling1024_expansion():
    params = _sweep_nodes("scaling1024")
    assert [p["n_nodes"] for p in params] == [128, 256, 512, 1024] * 2
    assert all(p["active_ranks"] == 8 for p in params)
    assert all(p["iterations"] == 60 for p in params)
    # smoke keeps the cheap 128-node pair for CI.
    assert _smoke_nodes(1, 1024) == [128, 128]


def test_scaling16k_expansion():
    params = _sweep_nodes("scaling16k")
    assert [p["n_nodes"] for p in params] == [2048, 4096, 8192, 16384] * 2
    assert all(p["message_kib"] == 4 for p in params)
    # smoke keeps the 4096-node pair of this range for CI.
    assert _smoke_nodes(2048, 16384) == [4096, 4096]


def test_scaling64k_expansion():
    params = _sweep_nodes("scaling64k")
    assert [p["n_nodes"] for p in params] == [2048, 8192, 16384, 65536] * 2
    assert all(p["message_kib"] == 4 for p in params)
    # The memory/GC trend columns ride on the row itself.
    assert "peak_rss_mib" in FAMILIES["scaling"].trend_columns
    assert "gc_collections" in FAMILIES["scaling"].trend_columns
    # smoke never reaches 64k; its largest pair is 4096 nodes.
    assert _smoke_nodes(2048, 65536) == [4096, 4096]


@pytest.mark.parametrize("name", sorted(EXTENSION_COUNTS))
def test_extension_expansion_counts(name):
    specs = expand_family(name, "paper")
    assert len(specs) == EXTENSION_COUNTS[name]
    assert [s.index for s in specs] == list(range(len(specs)))
    # the smoke preset shrinks the work, never the point structure
    assert len(expand_family(name, "smoke")) == EXTENSION_COUNTS[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_paper_expansion_counts(name):
    specs = expand_family(name, "paper")
    assert len(specs) == EXPECTED_COUNTS[name]
    assert [s.index for s in specs] == list(range(len(specs)))


@pytest.mark.parametrize("name", sorted(FAMILIES) + sorted(SCALING_SWEEPS))
@pytest.mark.parametrize("preset", ["paper", "smoke"])
def test_params_are_json_safe(name, preset):
    if name in SCALING_SWEEPS:
        specs = expand_family("scaling", preset, SCALING_SWEEPS[name])
    else:
        specs = expand_family(name, preset)
    for spec in specs:
        decoded = json.loads(json.dumps(spec.params_dict))
        assert decoded == spec.params_dict


def test_smoke_preset_is_smaller():
    paper = sum(len(expand_family(n, "paper")) for n in FIGURE_FAMILIES)
    smoke = sum(len(expand_family(n, "smoke")) for n in FIGURE_FAMILIES)
    assert smoke < paper


def test_point_hash_is_stable_and_param_sensitive():
    a1 = expand_family("fig8a", "paper")[0]
    a2 = expand_family("fig8a", "paper")[0]
    b = expand_family("fig8a", "paper")[1]
    assert a1.point_hash() == a2.point_hash()
    assert a1.point_hash() != b.point_hash()
    # same params under a different family hash differently
    other = PointSpec("fig8c", 0, a1.params)
    assert other.point_hash() != a1.point_hash()


def test_hash_ignores_row_index():
    spec = expand_family("table1", "paper")[3]
    moved = PointSpec(spec.family, 99, spec.params)
    assert moved.point_hash() == spec.point_hash()


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        family_specs(["fig99"])
    with pytest.raises(ValueError, match="unknown point family"):
        execute_point("fig99", {})


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        expand_family("table1", "huge")


def test_empty_family_list_expands_nothing():
    assert family_specs([]) == {}


def test_selftest_execute_ok():
    row = execute_point("selftest", {"mode": "ok", "value": 21})
    assert row == {"mode": "ok", "value": 21, "doubled": 42}


def test_selftest_execute_error():
    with pytest.raises(RuntimeError, match="injected point failure"):
        execute_point("selftest", {"mode": "error", "value": 1})


@pytest.mark.parametrize("name", FIGURE_FAMILIES + EXTENSION_FAMILIES)
def test_every_figure_and_extension_family_has_a_check(name):
    assert callable(FAMILIES[name].check)


def test_check_family_names_the_family_and_the_broken_shape():
    rows = [
        {"buffered_sends": True, "slowdown_pct": 30.0},
        {"buffered_sends": False, "slowdown_pct": 35.0},
    ]
    failure = check_family("ablation_buffered", rows)
    assert failure.startswith("ablation_buffered: ")
    assert "10 points" in failure
    rows[0]["slowdown_pct"] = 5.0
    assert check_family("ablation_buffered", rows) is None
    assert check_family("selftest", [{"mode": "ok"}]) is None  # no check
