"""Tests for datatypes, ops, status, and request status."""

import numpy as np
import pytest

from repro.bcs.descriptors import BcsRequest
from repro.mpi import datatypes, ops
from repro.mpi.status import Status
from repro.sim import Engine


# --- datatypes ---------------------------------------------------------------


def test_datatype_extents():
    assert datatypes.DOUBLE.extent == 8
    assert datatypes.FLOAT.extent == 4
    assert datatypes.INT.extent == 4
    assert datatypes.BYTE.extent == 1


def test_datatype_float_flags():
    assert datatypes.DOUBLE.is_float
    assert not datatypes.LONG.is_float


def test_from_array_known_types():
    assert datatypes.from_array(np.zeros(2)) is datatypes.DOUBLE
    assert datatypes.from_array(np.zeros(2, dtype=np.int64)) is datatypes.LONG


def test_from_array_opaque_fallback():
    dt = datatypes.from_array(np.zeros(2, dtype=np.complex128))
    assert "OPAQUE" in dt.name
    assert dt.extent == 16
    assert not dt.is_float


# --- ops -----------------------------------------------------------------------


def test_resolve_accepts_all_forms():
    assert ops.resolve(ops.SUM) is ops.SUM
    assert ops.resolve("MPI_SUM") is ops.SUM
    assert ops.resolve("sum") is ops.SUM
    assert ops.resolve("max").kernel == "max"


def test_resolve_unknown_rejected():
    with pytest.raises(ValueError):
        ops.resolve("MPI_NOPE")


def test_all_standard_ops_present():
    names = {op for op in ops.BY_NAME}
    assert {"MPI_SUM", "MPI_PROD", "MPI_MIN", "MPI_MAX", "MPI_LAND", "MPI_BXOR"} <= names


_PYTHON_OPS = {
    "sum": lambda x, y: x + y,
    "prod": lambda x, y: x * y,
    "min": min,
    "max": max,
    "band": lambda x, y: x & y,
    "bor": lambda x, y: x | y,
    "bxor": lambda x, y: x ^ y,
}


@pytest.mark.parametrize("kernel", sorted(_PYTHON_OPS))
def test_combine_integer_ops(kernel):
    python = _PYTHON_OPS[kernel]
    rng = np.random.default_rng(3)
    a, b = (rng.integers(0, 100, size=8, dtype=np.int64) for _ in range(2))
    out = ops.combine(kernel, a, b)
    assert out.dtype == np.int64
    assert out.tolist() == [python(int(x), int(y)) for x, y in zip(a, b)]
    assert ops.combine(kernel, int(a[0]), int(b[0])) == python(int(a[0]), int(b[0]))


def test_combine_logical_ops():
    a = np.array([0, 1, 1, 0], dtype=np.int64)
    b = np.array([0, 1, 0, 1], dtype=np.int64)
    assert ops.combine("land", a, b).tolist() == [0, 1, 0, 0]
    assert ops.combine("lor", a, b).tolist() == [0, 1, 1, 1]
    assert ops.combine("lor", a, b).dtype == np.int64


def test_combine_unknown_kernel_rejected():
    with pytest.raises(ValueError):
        ops.combine("nope", np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        ops.combine("xor", 1, 2)


def test_combine_never_aliases_an_input():
    a = np.arange(4, dtype=np.int64)
    b = np.zeros(4, dtype=np.int64)
    for op in ops.BY_NAME.values():
        out = ops.combine(op.kernel, a, b)
        assert not np.shares_memory(out, a), op
        assert not np.shares_memory(out, b), op


# --- status ----------------------------------------------------------------------


def test_status_get_count():
    status = Status(source=3, tag=9, count_bytes=64)
    assert status.get_count() == 64
    assert status.get_count(8) == 8
    with pytest.raises(ValueError):
        status.get_count(0)


# --- request status ------------------------------------------------------------------


def test_request_status_of_a_completed_receive():
    env = Engine()
    req = BcsRequest(env, "recv")
    assert not req.complete
    assert req.status() is None

    req.payload = b"data"
    req.source = 2
    req.tag = 5
    req.size = 4
    req._finish()
    env.run()
    assert req.complete
    assert req.payload == b"data"
    assert req.status() == Status(source=2, tag=5, count_bytes=4)


def test_request_status_of_a_send_is_none():
    env = Engine()
    req = BcsRequest(env, "send")
    req._finish()
    env.run()
    assert req.complete
    assert req.status() is None
