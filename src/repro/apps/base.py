"""Shared workload helpers.

Applications are generator functions ``app(ctx, **params)`` run once per
rank on an :class:`repro.mpi.context.AppContext`.  This module provides
the common geometry/stencil utilities the paper's workloads need.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple


def process_grid(size: int) -> Tuple[int, int]:
    """Most-square 2D factorization of ``size`` (px >= py)."""
    if size < 1:
        raise ValueError("size must be positive")
    py = int(math.isqrt(size))
    while size % py:
        py -= 1
    px = size // py
    return (px, py) if px >= py else (py, px)


def grid_coords(rank: int, px: int, py: int) -> Tuple[int, int]:
    """(i, j) position of ``rank`` in a px x py row-major grid."""
    if not 0 <= rank < px * py:
        raise IndexError(f"rank {rank} outside {px}x{py} grid")
    return rank // py, rank % py


def grid_rank(i: int, j: int, px: int, py: int) -> int:
    """Inverse of :func:`grid_coords`."""
    return i * py + j


def neighbors_2d(rank: int, size: int, periodic: bool = True) -> List[int]:
    """Up/down/left/right neighbours on the most-square grid over ``size``.

    ``periodic`` wraps at the edges (torus); otherwise boundary ranks get
    fewer neighbours.  The result is deduplicated and never contains
    ``rank`` itself.
    """
    px, py = process_grid(size)
    i, j = grid_coords(rank, px, py)
    out = []
    for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        ni, nj = i + di, j + dj
        if periodic:
            ni, nj = ni % px, nj % py
        elif not (0 <= ni < px and 0 <= nj < py):
            continue
        nb = grid_rank(ni, nj, px, py)
        if nb != rank and nb not in out:
            out.append(nb)
    return out


def process_grid_3d(size: int) -> Tuple[int, int, int]:
    """Most-cubic 3D factorization of ``size`` (px >= py >= pz)."""
    if size < 1:
        raise ValueError("size must be positive")
    best = (size, 1, 1)
    for pz in range(1, int(round(size ** (1 / 3))) + 2):
        if size % pz:
            continue
        rest = size // pz
        for py in range(pz, int(math.isqrt(rest)) + 1):
            if rest % py:
                continue
            px = rest // py
            if px >= py >= pz:
                best = (px, py, pz)
    return best


def neighbors_3d(rank: int, size: int, periodic: bool = True) -> List[int]:
    """The six face neighbours on the most-cubic 3D grid over ``size``."""
    px, py, pz = process_grid_3d(size)
    i = rank // (py * pz)
    j = (rank // pz) % py
    k = rank % pz
    out = []
    for di, dj, dk in (
        (-1, 0, 0),
        (1, 0, 0),
        (0, -1, 0),
        (0, 1, 0),
        (0, 0, -1),
        (0, 0, 1),
    ):
        ni, nj, nk = i + di, j + dj, k + dk
        if periodic:
            ni, nj, nk = ni % px, nj % py, nk % pz
        elif not (0 <= ni < px and 0 <= nj < py and 0 <= nk < pz):
            continue
        nb = (ni * py + nj) * pz + nk
        if nb != rank and nb not in out:
            out.append(nb)
    return out


def ring_neighbors(rank: int, size: int) -> Tuple[int, int]:
    """(left, right) neighbours on a ring."""
    return ((rank - 1) % size, (rank + 1) % size)


def exchange_nonblocking(ctx, peers, send_bytes: int, tag: int = 0):
    """Post isend/irecv with every peer and waitall (the bulk-synchronous
    exchange step used all over the paper's workloads)."""
    reqs = []
    for peer in peers:
        reqs.append(ctx.comm.isend(None, dest=peer, tag=tag, size=send_bytes))
        reqs.append(ctx.comm.irecv(source=peer, tag=tag, size=send_bytes))
    yield from ctx.comm.waitall(reqs)
