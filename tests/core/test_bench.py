"""Unit tests for the oracle-vs-fast bench harness (repro.core.bench)."""

import json

import pytest

from repro.core import bench
from repro.core.bench import (
    bench_churn_service,
    bench_disjoint_sessions,
    bench_one_giant_component,
    check_floors,
    run_pair,
    summary,
)


@pytest.mark.parametrize(
    "bench_fn",
    [bench_disjoint_sessions, bench_one_giant_component],
    ids=["disjoint", "giant"],
)
def test_micro_benchmarks_run_in_both_modes(bench_fn):
    outputs = []
    for fast in (False, True):
        wall, rates = bench_fn(fast, n_sessions=2, streams=1, ticks=5)
        assert wall >= 0.0
        outputs.append(rates)
    assert outputs[0] == outputs[1] and len(outputs[0]) == 2


def test_churn_benchmark_runs_to_completion():
    wall, makespan = bench_churn_service(
        True, n_sessions=2, streams=1, transfers=3
    )
    assert wall >= 0.0 and makespan > 0.0


def test_baseline_floors_match_gate_names():
    with open("benchmarks/perf/baseline.json") as fh:
        baseline = json.load(fh)
    assert set(baseline) == set(bench.PAIRS)


def test_run_pair_reports_the_oracle_over_fast_ratio():
    times = {False: 2.0, True: 0.5}
    entry = run_pair("toy", lambda fast: (times[fast], [1.0, 2.0]))
    assert entry == {"oracle_s": 2.0, "fast_s": 0.5, "speedup": 4.0}


def test_run_pair_raises_when_the_fast_path_diverges():
    with pytest.raises(AssertionError, match="toy: the fast path diverged"):
        run_pair("toy", lambda fast: (1.0, [1.0, 2.0 if fast else 2.5]))


class TestRegressionGate:
    MEASURED = {"disjoint_sessions": 8.0, "churn_service": 2.0, "e2e": 1.3}

    def test_clean_when_at_or_above_baseline(self):
        baseline = {"disjoint_sessions": 5.0, "churn_service": 1.5,
                    "e2e": 1.1}
        assert check_floors(self.MEASURED, baseline) == []

    def test_small_dips_within_tolerance_pass(self):
        # 25% tolerance: 8.0 measured vs 10.0 baseline is borderline-ok
        assert check_floors(self.MEASURED, {"disjoint_sessions": 10.0}) == []

    def test_large_regression_fails(self):
        failures = check_floors(self.MEASURED, {"disjoint_sessions": 12.0})
        assert failures == [
            "disjoint_sessions: speedup 8.00x fell more than 25% below "
            "baseline 12.0x"
        ]

    def test_missing_measurement_fails(self):
        failures = check_floors(self.MEASURED, {"one_giant_component": 1.0})
        assert failures and "no measurement" in failures[0]


def test_summary_mentions_every_benchmark():
    text = summary({
        "benchmarks": {
            "disjoint_sessions": {
                "oracle_s": 1.0, "fast_s": 0.125, "speedup": 8.0
            }
        }
    })
    assert "disjoint_sessions" in text
    assert "8.00x" in text
