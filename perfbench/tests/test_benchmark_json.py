"""BENCHMARK.json names exactly what run.py prints."""

import json
import os

import run
import tracing
import workloads
from conftest import ROOT


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_tables_match():
    bench = _bench()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in _bench()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
