"""BENCHMARK.json must be the catalogue, and obey the contract's rules."""

import json
import os

from catalog import END_TO_END, PER_LAYER, PREDICTIONS, WORKLOADS, benchmark_json
from metrics_math import valid_metric_name

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_benchmark_json_is_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == benchmark_json()


def test_names_are_valid_and_unique():
    names = [w for w, _ in WORKLOADS] + [m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER]
    assert all(valid_metric_name(name) for name in names)
    assert len(names) == len(set(names))


def test_end_to_end_rules():
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert ("setup_s", "s", "lower", bounds["setup_s"]) in END_TO_END


def test_every_per_layer_metric_has_a_prediction():
    for name, _, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        assert any(name.startswith(prefix) for prefix in PREDICTIONS), name


def test_whys_fit_one_line():
    for _, why in WORKLOADS:
        assert "\n" not in why and len(why) <= 200
