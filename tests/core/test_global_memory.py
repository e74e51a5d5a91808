"""Tests for the global address space."""

from repro.core import GlobalAddressSpace, MemoryRegion


def test_region_read_write_defaults():
    region = MemoryRegion(3)
    assert region.read("x") is None
    assert region.read("x", default=7) == 7
    region.write("x", 42)
    assert region.read("x") == 42


def test_gas_per_node_isolation():
    gas = GlobalAddressSpace(4)
    gas.write(0, "v", "zero")
    gas.write(1, "v", "one")
    assert gas.read(0, "v") == "zero"
    assert gas.read(1, "v") == "one"
    assert gas.read(2, "v") is None


def test_write_all_atomic_view():
    gas = GlobalAddressSpace(5)
    gas.write_all([1, 3], "flag", True)
    assert gas.gather(range(5), "flag") == [None, True, None, True, None]


def test_gather_defaults():
    gas = GlobalAddressSpace(3)
    assert gas.gather([0, 1, 2], "nope", default=0) == [0, 0, 0]


def test_len_and_region_access():
    gas = GlobalAddressSpace(2)
    assert len(gas) == 2
    assert gas.region(1).node_id == 1


def test_tuple_addresses():
    """Composite addresses (the runtime uses (name, job, comm) keys)."""
    gas = GlobalAddressSpace(2)
    gas.write(0, ("cflag", 1, 0), 5)
    assert gas.read(0, ("cflag", 1, 0)) == 5
    assert gas.read(0, ("cflag", 1, 1)) is None
