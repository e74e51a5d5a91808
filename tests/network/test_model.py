"""Unit tests for the network models (Table 1 parametrization)."""

import pytest

from repro.network import MODELS, by_name, qsnet
from repro.network.model import MB
from repro.units import us


def test_registry_contains_all_table1_rows():
    assert set(MODELS) == {
        "qsnet",
        "gige",
        "myrinet",
        "infiniband",
        "bluegene_l",
        "bluegene_l_torus",
    }


def test_by_name_roundtrip_and_error():
    for name in MODELS:
        assert by_name(name).name == name
    with pytest.raises(KeyError):
        by_name("token-ring")


def test_qsnet_cw_latency_under_10us():
    model = qsnet()
    # Table 1: QsNet Compare-And-Write < 10 us up to large node counts.
    for n in (2, 8, 32, 128):
        assert model.cw_latency(n) < us(10)


def test_bluegene_cw_latency_under_2us():
    model = by_name("bluegene_l")
    for n in (2, 64, 1024):
        assert model.cw_latency(n) < us(2)


def test_emulated_networks_scale_log_n():
    gige = by_name("gige")
    # 46 log2(n) microseconds per Table 1.
    assert gige.cw_latency(2) == us(46)
    assert gige.cw_latency(16) == 4 * us(46)
    myri = by_name("myrinet")
    assert myri.cw_latency(16) == 4 * us(20)


def test_latency_monotone_in_hops():
    model = qsnet()
    lats = [model.latency(h) for h in range(7)]
    assert lats == sorted(lats)
    assert lats[0] == model.base_latency


def test_mcast_latency_grows_with_node_count():
    model = qsnet()
    assert model.multicast_latency(4) <= model.multicast_latency(64)


def test_software_multicast_pays_log_levels():
    gige = by_name("gige")
    # Each doubling adds a store-and-forward level.
    assert gige.multicast_latency(16) > gige.multicast_latency(2)


def test_qsnet_bandwidth_matches_table1_magnitude():
    model = qsnet()
    # Table 1: Xfer-And-Signal > 150n MB/s => per-node mcast bw > 150 MB/s.
    assert model.mcast_bandwidth >= 150 * MB
    assert model.link_bandwidth >= 300 * MB


def test_cw_latency_single_node_is_base():
    model = qsnet()
    assert model.cw_latency(1) == model.cw_base_latency


def test_bluegene_l_torus_routes_over_torus():
    model = by_name("bluegene_l_torus")
    assert model.topology == "torus3d"
    # The other Table 1 rows keep the fat tree.
    for name in ("qsnet", "gige", "myrinet", "infiniband", "bluegene_l"):
        assert by_name(name).topology == "fattree"
