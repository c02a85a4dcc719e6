"""Metric names, units and bounds, and BENCHMARK.json kept in step."""

import json
from pathlib import Path

import pytest

import metrics
import run
import workloads

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_names_and_units_are_valid_and_unique():
    names = [name for name, *_ in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better, *_ in metrics.END_TO_END + metrics.PER_LAYER:
        assert metrics.NAME.match(name), name
        assert metrics.UNIT.match(unit), (name, unit)
        assert better in ("lower", "higher"), name


def test_bounds():
    bounds = {name: bound for name, _u, _b, bound in metrics.END_TO_END}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert ("setup_s", "s", "lower") in {
        entry[:3] for entry in metrics.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())


def test_benchmark_json_matches():
    bench = json.loads(BENCHMARK.read_text())
    assert bench == metrics.benchmark_json()
    assert 2 <= len(bench["workloads"]) <= 8
    for entry in bench["workloads"]:
        assert metrics.NAME.match(entry["name"])
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60


def sample(**overrides):
    out = {"plan_hits": 0, "plan_misses": 0, "fetch_hits": 0,
           "fetch_misses": 0, "fetch_evictions": 0, "maintained_deltas": 0,
           "maintenance_fallbacks": 0, "shed": 0, "storage": {}}
    out.update(overrides)
    return out


class FakeWindow:
    def __init__(self, before, after):
        self.before = {"sample": before, "cpu_s": 1.0}
        self.after = {"sample": after, "cpu_s": 1.5}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_declared_layer_metric_is_computed(name):
    setup = {"load_s": 0.1, "attach_s": 0.2, "rss_before_load": 10,
             "rss_after_attach": 110}
    layers = run.layer_metrics(
        workloads.WORKLOADS[name], [setup], 100, [0.0001] * 20,
        {"applied": 3, "service": [0.001] * 3},
        FakeWindow(sample(), sample(plan_hits=3, fetch_hits=5)), 20, 1.05)
    assert set(layers) == {name for name, *_ in metrics.PER_LAYER}
    assert all(isinstance(value, (int, float)) for value in layers.values())
