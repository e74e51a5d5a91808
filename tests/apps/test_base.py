"""Unit + property tests for workload geometry helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import (
    grid_coords,
    grid_rank,
    neighbors_2d,
    neighbors_3d,
    process_grid,
    process_grid_3d,
    ring_neighbors,
)


def test_process_grid_square():
    assert process_grid(16) == (4, 4)
    assert process_grid(62) == (31, 2)
    assert process_grid(1) == (1, 1)
    assert process_grid(7) == (7, 1)


def test_process_grid_invalid():
    with pytest.raises(ValueError):
        process_grid(0)


def test_grid_coords_roundtrip():
    px, py = process_grid(12)
    for rank in range(12):
        i, j = grid_coords(rank, px, py)
        assert grid_rank(i, j, px, py) == rank


def test_grid_coords_out_of_range():
    with pytest.raises(IndexError):
        grid_coords(12, 4, 3)


def test_neighbors_2d_periodic_counts():
    for size in (4, 9, 16, 62):
        for rank in range(size):
            nbs = neighbors_2d(rank, size)
            assert rank not in nbs
            assert len(nbs) == len(set(nbs))
            assert all(0 <= n < size for n in nbs)


def test_neighbors_2d_nonperiodic_boundary():
    # 4x4 grid: corner rank 0 has exactly 2 neighbours without wraparound.
    nbs = neighbors_2d(0, 16, periodic=False)
    assert len(nbs) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 64))
def test_prop_neighbors_2d_symmetric(size):
    """If a is b's neighbour, b is a's neighbour (periodic torus)."""
    for a in range(size):
        for b in neighbors_2d(a, size):
            assert a in neighbors_2d(b, size)


def test_process_grid_3d():
    assert process_grid_3d(8) == (2, 2, 2)
    assert process_grid_3d(64) == (4, 4, 4)
    px, py, pz = process_grid_3d(62)
    assert px * py * pz == 62


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 64))
def test_prop_neighbors_3d_symmetric(size):
    for a in range(size):
        for b in neighbors_3d(a, size):
            assert a in neighbors_3d(b, size)


def test_neighbors_3d_count_at_most_six():
    for size in (8, 27, 62):
        for rank in range(size):
            nbs = neighbors_3d(rank, size)
            assert 1 <= len(nbs) <= 6
            assert rank not in nbs


def test_ring_neighbors():
    assert ring_neighbors(0, 4) == (3, 1)
    assert ring_neighbors(3, 4) == (2, 0)


def test_cg_transpose_partner_is_involution():
    from repro.apps.nas.cg import _transpose_partner

    for size in (2, 4, 8, 32, 62, 61, 30):
        for rank in range(size):
            partner = _transpose_partner(rank, size)
            assert 0 <= partner < size
            assert _transpose_partner(partner, size) == rank, (size, rank)
