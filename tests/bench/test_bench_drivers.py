"""Unit tests for the benchmark drivers (`repro.bench`) — fast configs."""

import pytest

from repro.bench import (
    aggregation_sweep,
    format_series,
    format_size,
    format_table,
    latency_table,
    mpi_rma_pingpong,
    pingpong_with_calc,
    powerllel_point,
    unr_pingpong,
)


# ------------------------------------------------------------- latency


def test_unr_pingpong_positive_and_monotonic_in_size():
    small = unr_pingpong("hpc-ib", 8, iters=5)
    large = unr_pingpong("hpc-ib", 1 << 20, iters=5)
    assert 0 < small < large


def test_unr_pingpong_deterministic():
    a = unr_pingpong("th-xy", 4096, iters=5)
    b = unr_pingpong("th-xy", 4096, iters=5)
    assert a == b


@pytest.mark.parametrize("scheme", ["fence", "pscw", "lock"])
def test_mpi_rma_pingpong_schemes(scheme):
    t = mpi_rma_pingpong("hpc-ib", scheme, 64, iters=5)
    assert t > 0


def test_mpi_rma_lock_flag_wraps_past_255_iterations():
    # The lock scheme's flag byte counts iterations modulo 256, as the
    # receiver polls it; the 300th iteration once overflowed a uint8.
    steady = mpi_rma_pingpong("hpc-ib", "lock", 8, iters=255)
    assert mpi_rma_pingpong("hpc-ib", "lock", 8, iters=300) == pytest.approx(steady, rel=1e-3)
    # Below the wrap the flag values, and so the latency, are unchanged.
    assert mpi_rma_pingpong("hpc-ib", "lock", 64, iters=5) == 1.1903229068564316e-05


def test_mpi_rma_unknown_scheme():
    with pytest.raises(ValueError):
        mpi_rma_pingpong("hpc-ib", "psync", 64)


def test_latency_table_shape_invariants():
    t = latency_table("hpc-ib", sizes=[8, 65536], iters=5)
    assert set(t) == {"sizes", "unr", "fence", "pscw", "lock"}
    assert all(len(v) == 2 for k, v in t.items() if k != "sizes")
    # The paper's headline: UNR below fence and lock.
    assert t["unr"][0] < t["fence"][0]
    assert t["unr"][0] < t["lock"][0]


# ------------------------------------------------------------ multi-NIC


def test_pingpong_with_calc_shared_beats_exclusive_large():
    size = 1 << 20
    solo = pingpong_with_calc("th-xy", size, shared=False, iters=8)
    both = pingpong_with_calc("th-xy", size, shared=True, iters=8)
    assert both > solo


def test_aggregation_sweep_grows_with_size():
    rows = aggregation_sweep("th-xy", sizes=(32768, 1048576), iters=8)
    assert rows["improvement"][1] > rows["improvement"][0]


def test_pingpong_window_pipelines():
    size = 1 << 20
    w1 = pingpong_with_calc("th-xy", size, shared=False, iters=8, window=1)
    w4 = pingpong_with_calc("th-xy", size, shared=False, iters=8, window=4)
    assert w4 > w1  # deeper pipeline → higher throughput


# ------------------------------------------------------------ powerllel


def test_powerllel_point_runs_all_backends():
    base = dict(nodes=4, py=2, pz=2, nx=64, ny=64, nz=64, steps=1)
    mpi = powerllel_point("hpc-ib", backend="mpi", **base)
    unr = powerllel_point("hpc-ib", backend="unr", **base)
    fb = powerllel_point("hpc-ib", backend="unr", fallback=True, **base)
    for res in (mpi, unr, fb):
        assert res["time"] > 0
        assert res["phases"]["ppe"] > 0


# ------------------------------------------------------------- report


def test_format_size():
    assert format_size(8) == "8B"
    assert format_size(4096) == "4K"
    assert format_size(1 << 21) == "2M"


def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 2.5], [30, 4.25]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert "2.500" in out
    assert lines[1].startswith("-")


def test_format_series():
    s = format_series("x", ["8B", "1K"], [1.0, 2.0], unit="us")
    assert "8B:1us" in s and "1K:2us" in s
