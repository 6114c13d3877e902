"""Self-tests of the benchmark, at smoke scale.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import spec  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
COUNTS = [f"wspd.{key}" for key in workloads.WSPD_COUNTS] + ["dynamic.support_pairs"]

_outcomes = {}


def outcome(name, *, seed=5, trace=False):
    key = (name, seed, trace)
    if key not in _outcomes:
        _outcomes[key] = workloads.run_workload(
            name, seed=seed, seconds=0.0, trace=trace, scale=workloads.SMOKE)
    return _outcomes[key]


def test_manifest_is_within_the_contract():
    document = spec.DOCUMENT
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert document["command"] == ["python3", "perfbench/run.py"]
    assert document["paths"] == ["perfbench"]
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert isinstance(document["run_seconds"], int) and 1 <= document["run_seconds"] <= 60
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in document["workloads"])
    assert all(set(w) == {"name", "why"} for w in document["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in document["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in document["per_layer"])
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m for m in document["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in bounds.values())
    assert bounds["setup_s"]["unit"] == "s" and bounds["setup_s"]["better"] == "lower"
    assert bounds["setup_s"]["bound"] == max(m["bound"] for m in bounds.values())


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(name, trace):
    result = outcome(name, trace=trace)
    assert result.rec.failures == []
    assert result.rec.attempted > 0
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result.metrics) == [metric[0] for metric in expected]
    for metric, value in result.metrics.items():
        assert math.isfinite(value) and value >= 0, metric
        assert spec.UNITS[metric]
        if not trace:
            assert value > 0, metric


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_traced_spans_cover_the_traced_run(name):
    assert outcome(name, trace=True).metrics["trace.coverage"] >= 0.9


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_counts_repeat_for_one_seed(name):
    first = outcome(name, trace=True).metrics
    again = workloads.run_workload(name, seed=5, seconds=0.0, trace=True,
                                   scale=workloads.SMOKE).metrics
    assert {k: first[k] for k in COUNTS} == {k: again[k] for k in COUNTS}


def test_another_seed_changes_the_inputs():
    for dataset in (workloads.EMST_DATASET, workloads.SERVE_DATASET):
        one = workloads.corpus(dataset, 200, 5)
        assert np.array_equal(one, workloads.corpus(dataset, 200, 5))
        other = workloads.corpus(dataset, 200, 6)
        assert not np.array_equal(one, other)
        assert sorted(map(tuple, one)) == sorted(map(tuple, other))
        data, reserve = workloads.serving_corpus(dataset, 200, 5)
        assert data.shape[0] == 200 and reserve.shape[0] == 20
        again, _ = workloads.serving_corpus(dataset, 200, 5)
        other, other_reserve = workloads.serving_corpus(dataset, 200, 6)
        assert np.array_equal(data, again) and not np.array_equal(data, other)
        assert sorted(map(tuple, reserve)) == sorted(map(tuple, other_reserve))


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert workloads.percentile(values, 50) == 100
    assert workloads.percentile(values, 95) == 190
    assert workloads.percentile([3.0], 95) == 3.0
    assert workloads.percentile([], 50) == 0.0


def test_tracer_self_time_and_chrome_export(tmp_path):
    tracer = Tracer("unit")
    with tracer.span("op.outer", request="r1"):
        with tracer.span("layer.inner") as inner:
            tracer.count("work", 3)
    outer_row, inner_row = tracer.self_times()["op.outer"], tracer.self_times()["layer.inner"]
    assert inner.request == "r1" and inner.counts == {"work": 3}
    assert outer_row["self_s"] == pytest.approx(outer_row["total_s"] - inner_row["total_s"])
    tracer.write(str(tmp_path), "unit")
    events = json.loads((tmp_path / "unit.trace.json").read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["op.outer", "layer.inner"]
    assert events[1]["args"]["parent"] == "op.outer" and events[1]["ph"] == "X"
    assert (tmp_path / "unit.selftime.txt").read_text().startswith("# unit")


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workloads.EMST_WORKLOAD,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
