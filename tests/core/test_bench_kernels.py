"""The kernel pairs of the bench harness (repro.core.bench).

Each kernel's ``fast=False`` side is its scalar reference
implementation; the harness times both and checks they agree bit for
bit. These tests pin that contract on the harness's own sizes.
"""

import pytest

from repro.core.bench import (
    bench_fairshare,
    bench_raster,
    bench_raycast,
    run_pair,
    summary,
)


@pytest.fixture(scope="module")
def kernel_pairs():
    return {
        "raycast_speedup": run_pair("raycast_speedup", bench_raycast),
        "raster_speedup": run_pair("raster_speedup", bench_raster),
        "fairshare_speedup": run_pair("fairshare_speedup", bench_fairshare),
    }


def test_microbenchmarks_report_positive_times(kernel_pairs):
    for name, entry in kernel_pairs.items():
        assert entry["oracle_s"] > 0.0, name
        assert entry["fast_s"] > 0.0, name
        assert entry["speedup"] > 0.0, name


def test_vectorized_kernels_actually_faster(kernel_pairs):
    # The headline claim at the harness's size: every vectorized
    # kernel beats its scalar oracle.
    for name, entry in kernel_pairs.items():
        assert entry["speedup"] > 1.0, name


def test_summary_mentions_every_kernel(kernel_pairs):
    text = summary({"benchmarks": kernel_pairs})
    for token in ("raycast", "raster", "fairshare"):
        assert token in text
