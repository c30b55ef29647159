"""Unit tests for the kernel benchmark harness (repro.core.bench_kernels).

The expensive paths (128^3 raycast, 400-flow fair-share) belong to the
benchmark itself; these tests pin the harness contract -- payload
shape, parity guards, the regression gate, and the summary -- on
miniature workloads.
"""

import json

import pytest

from repro.core.bench_kernels import (
    bench_fairshare,
    bench_raster,
    bench_raycast,
    check_regression,
    summary,
)


@pytest.fixture(scope="module")
def quick_micro():
    return {
        "raycast": bench_raycast(quick=True),
        "raster": bench_raster(quick=True),
        "fairshare": bench_fairshare(quick=True),
    }


def test_microbenchmarks_report_positive_times(quick_micro):
    for name, result in quick_micro.items():
        assert result["oracle_s"] > 0.0, name
        assert result["vectorized_s"] > 0.0, name
        assert result["speedup"] > 0.0, name


def test_vectorized_kernels_actually_faster(quick_micro):
    # The headline claim at its weakest (quick) scale: every vectorized
    # kernel beats its scalar oracle.
    for name, result in quick_micro.items():
        assert result["speedup"] > 1.0, name


def test_baseline_floors_match_gate_names():
    with open("benchmarks/perf/baseline_kernels.json") as fh:
        baseline = json.load(fh)
    gate_names = {
        "raycast_speedup",
        "raster_speedup",
        "fairshare_speedup",
    }
    assert set(baseline) == gate_names


class TestRegressionGate:
    RESULTS = {
        "gates": {
            "raycast_speedup": 20.0,
            "fairshare_speedup": 1.5,
        }
    }

    def test_clean_at_or_above_floor(self):
        baseline = {"raycast_speedup": 8.0, "fairshare_speedup": 1.4}
        assert check_regression(self.RESULTS, baseline) == []

    def test_large_regression_fails(self):
        failures = check_regression(
            self.RESULTS, {"raycast_speedup": 40.0}
        )
        assert len(failures) == 1
        assert "raycast_speedup" in failures[0]

    def test_missing_measurement_fails(self):
        failures = check_regression(self.RESULTS, {"raster_speedup": 6.0})
        assert failures and "no measurement" in failures[0]


def test_summary_mentions_every_kernel(quick_micro):
    text = summary({"benchmarks": quick_micro})
    for token in ("raycast", "raster", "fairshare"):
        assert token in text
