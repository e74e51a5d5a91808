"""Tests for time/size unit helpers."""

import pytest

from repro.units import (
    KiB,
    MiB,
    bw_time,
    fmt_size,
    fmt_time,
    kib,
    mib,
    ms,
    ns,
    seconds,
    to_seconds,
    to_us,
    us,
)


def test_time_conversions_roundtrip():
    assert us(1) == 1_000
    assert ms(1) == 1_000_000
    assert seconds(1) == 1_000_000_000
    assert to_seconds(seconds(2.5)) == 2.5
    assert to_us(us(7)) == 7.0


def test_fractional_units_round():
    assert us(0.5) == 500
    assert ms(3.5) == 3_500_000
    assert ns(1.6) == 2


def test_size_helpers():
    assert kib(4) == 4 * KiB == 4096
    assert mib(2) == 2 * MiB
    assert kib(0.5) == 512


def test_bw_time_exact_and_rounded():
    assert bw_time(1000, 1e9) == 1000  # 1000 B at 1 GB/s = 1000 ns
    assert bw_time(0, 1e9) == 0
    assert bw_time(-5, 1e9) == 0
    # Rounds up: 1 byte at 1 GB/s is 1 ns, never 0.
    assert bw_time(1, 1e9) == 1
    assert bw_time(1, 3e9) == 1


def test_bw_time_monotone():
    times = [bw_time(n, 300e6) for n in (0, 1, 1000, 10**6, 10**7)]
    assert times == sorted(times)


def test_fmt_time_scales():
    assert fmt_time(500) == "500 ns"
    assert "us" in fmt_time(us(100))
    assert "ms" in fmt_time(ms(100))
    assert "s" in fmt_time(seconds(100))


def test_fmt_size_scales():
    assert fmt_size(100) == "100 B"
    assert "KiB" in fmt_size(kib(100))
    assert "MiB" in fmt_size(mib(100))
