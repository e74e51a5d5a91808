"""Unit tests for the fat-tree topology."""

import pytest

from repro.network import FatTree


def test_same_node_zero_hops():
    tree = FatTree(16)
    assert tree.hops(3, 3) == 0


def test_siblings_two_hops():
    tree = FatTree(16, radix=4)
    # Nodes 0..3 share a level-1 switch.
    assert tree.hops(0, 1) == 2
    assert tree.hops(2, 3) == 2


def test_cross_subtree_hops():
    tree = FatTree(16, radix=4)
    # 0 and 4 meet at level 2.
    assert tree.hops(0, 4) == 4
    assert tree.hops(0, 15) == 4


def test_three_levels():
    tree = FatTree(64, radix=4)
    assert tree.levels == 3
    assert tree.hops(0, 63) == 6


def test_hops_symmetric():
    tree = FatTree(32, radix=4)
    for a, b in [(0, 31), (5, 9), (14, 2)]:
        assert tree.hops(a, b) == tree.hops(b, a)


def test_single_node_tree():
    tree = FatTree(1)
    assert tree.levels == 1
    assert tree.hops(0, 0) == 0


def test_out_of_range_rejected():
    tree = FatTree(8)
    with pytest.raises(IndexError):
        tree.hops(0, 8)
    with pytest.raises(IndexError):
        tree.hops(-1, 0)


def test_non_power_sizes():
    tree = FatTree(33, radix=4)
    assert tree.levels == 3
    assert tree.hops(0, 32) == 6


def test_invalid_construction():
    with pytest.raises(ValueError):
        FatTree(0)
    with pytest.raises(ValueError):
        FatTree(4, radix=1)


# -- 3D torus (BlueGene/L style) ----------------------------------------------


from repro.network import Torus3D, build_topology  # noqa: E402
from repro.network.topology import _near_cubic_dims  # noqa: E402


def test_torus_same_node_zero_hops():
    torus = Torus3D(64)
    assert torus.hops(5, 5) == 0


def test_torus_axis_neighbors():
    torus = Torus3D(27, dims=(3, 3, 3))
    # Row-major: node 0 = (0,0,0); z-neighbour 1, y-neighbour 3, x-neighbour 9.
    assert torus.hops(0, 1) == 1
    assert torus.hops(0, 3) == 1
    assert torus.hops(0, 9) == 1


def test_torus_wraparound():
    torus = Torus3D(64, dims=(4, 4, 4))
    # (0,0,0) to (3,0,0): one hop backwards around the x ring, not 3.
    assert torus.hops(0, 48) == 1
    # (0,0,0) to (2,2,2): distance 2 on each axis (no shortcut).
    assert torus.hops(0, 42) == 6


def test_torus_symmetric():
    torus = Torus3D(100)
    for a, b in [(0, 99), (17, 45), (3, 76)]:
        assert torus.hops(a, b) == torus.hops(b, a)
        assert 0 < torus.hops(a, b) <= sum(d // 2 for d in torus.dims)


def test_torus_1025_dims_cover_management_node():
    # 1024 compute nodes + the management node.
    torus = Torus3D(1025)
    dx, dy, dz = torus.dims
    assert dx * dy * dz >= 1025
    assert max(torus.dims) - min(torus.dims) <= 2  # near-cubic
    assert torus.hops(0, 1024) <= sum(d // 2 for d in torus.dims)


def test_torus_near_cubic_dims():
    assert _near_cubic_dims(1) == (1, 1, 1)
    assert _near_cubic_dims(8) == (2, 2, 2)
    assert _near_cubic_dims(27) == (3, 3, 3)
    assert _near_cubic_dims(1000) == (10, 10, 10)
    for n in (2, 5, 63, 129, 500, 1025):
        dims = _near_cubic_dims(n)
        assert dims[0] * dims[1] * dims[2] >= n


def test_torus_out_of_range_rejected():
    torus = Torus3D(8)
    with pytest.raises(IndexError):
        torus.hops(0, 8)
    with pytest.raises(IndexError):
        torus.hops(-1, 0)


def test_torus_invalid_construction():
    with pytest.raises(ValueError):
        Torus3D(0)
    with pytest.raises(ValueError):
        Torus3D(9, dims=(2, 2, 2))  # 8 slots < 9 nodes
    with pytest.raises(ValueError):
        Torus3D(4, dims=(2, 2))  # not three extents


def test_build_topology_registry():
    assert isinstance(build_topology("fattree", 16, radix=4), FatTree)
    assert isinstance(build_topology("torus3d", 16), Torus3D)
    with pytest.raises(KeyError):
        build_topology("hypercube", 16)
