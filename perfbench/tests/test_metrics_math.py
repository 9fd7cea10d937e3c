"""Unit tests for the benchmark's order statistics and loop accounting.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import pytest

from metrics_math import (
    ClosedLoopError,
    closed_loop,
    nearest_rank,
    quartile_spread,
    samples_beyond,
    timing_summary,
    valid_metric_name,
)


def test_nearest_rank_picks_observed_samples():
    values = list(range(1, 11))  # 1..10
    assert nearest_rank(values, 0.5) == 5
    assert nearest_rank(values, 0.9) == 9
    assert nearest_rank(values, 1.0) == 10
    assert nearest_rank(values, 0.01) == 1
    assert nearest_rank([3.0, 1.0, 2.0], 0.5) == 2.0


def test_nearest_rank_of_hundred_leaves_ten_beyond_p90():
    values = [float(v) for v in range(100, 0, -1)]
    assert nearest_rank(values, 0.9) == 90.0
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert samples_beyond(0, 0.9) == 0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 1.5)


def test_timing_summary_scales_and_counts():
    summary = timing_summary([0.001 * v for v in range(1, 21)], 1000.0)
    assert summary["n"] == 20
    assert summary["p50"] == pytest.approx(10.5)
    assert summary["p90"] == pytest.approx(18.0)
    assert summary["beyond_p90"] == 2
    assert timing_summary([], 1000.0)["n"] == 0


def test_closed_loop_accounts_latency_per_class_and_throughput():
    records = [
        ("sim", 0.0, 0.05, 1.0),
        ("cached", 0.05, 0.055, 1.0),
        ("sim", 0.06, 0.12, 1.0),
        ("diagnose", 0.12, 0.125, 1.0),
    ]
    accounted = closed_loop(records)
    assert accounted["completed"] == 4
    assert accounted["per_second"] == pytest.approx(4 / 0.12)
    assert accounted["latencies"]["sim"] == pytest.approx([0.05, 0.06])
    assert accounted["latencies"]["cached"] == pytest.approx([0.005])
    assert accounted["latencies"]["diagnose"] == pytest.approx([0.005])


def test_closed_loop_scales_latencies():
    accounted = closed_loop([("sim", 0.0, 0.1, 0.5), ("sim", 0.1, 0.3, 2.0)])
    assert accounted["latencies"]["sim"] == pytest.approx([0.05, 0.4])
    assert accounted["per_second"] == pytest.approx(2 / 0.45)


def test_closed_loop_refuses_overlapping_requests():
    with pytest.raises(ClosedLoopError):
        closed_loop([("sim", 0.0, 0.05, 1.0), ("sim", 0.04, 0.09, 1.0)])
    with pytest.raises(ClosedLoopError):
        closed_loop([("sim", 0.2, 0.1, 1.0)])
    with pytest.raises(ClosedLoopError):
        closed_loop([])


def test_closed_loop_throughput_leaves_out_client_pauses():
    # Gaps between a reply and the next request are client time (the
    # benchmark calibrates there): they count in no latency and no
    # throughput.
    accounted = closed_loop([("sim", 0.0, 0.1, 1.0), ("sim", 0.4, 0.5, 1.0)])
    assert accounted["per_second"] == pytest.approx(10.0)
    assert accounted["latencies"]["sim"] == pytest.approx([0.1, 0.1])


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    spread = quartile_spread(values)
    assert 0.0 < spread < 0.1


@pytest.mark.parametrize(
    "name",
    ["setup_s", "op_p50_ms", "vector.axis_windows.pattern", "serve.submit_ms.sim",
     "9lives", "a-b_c.d"],
)
def test_metric_names_accepted(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize(
    "name", ["", "_x", ".x", "-x", "a b", "a/b", "μs", "x" * 65, "a:b"]
)
def test_metric_names_refused(name):
    assert not valid_metric_name(name)
