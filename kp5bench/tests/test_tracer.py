"""Self-tests of the benchmark: span arithmetic, tracer completeness, and
agreement between BENCHMARK.json and what run.py reports.

    python3 -m pytest -q kp5bench/tests
"""

import json
import math

import kp5.cli
import kp5.integrator
import kp5.operators
import numpy as np
import pytest

import run
from tracer import Tracer, aggregate
from workloads import DEFAULT_SEED, WORKLOADS


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] -> b [1, 4] -> c [2, 3]; a -> d [5, 9]
    names = ["a", "b", "c", "d"]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    agg = aggregate(names, starts, ends, parents)
    assert agg["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert agg["b"] == {"calls": 1, "busy_s": 3.0, "self_s": 2.0}
    assert agg["c"]["self_s"] == 1.0
    assert agg["d"]["self_s"] == 4.0


def test_wrappers_reach_every_importing_module_and_come_off():
    gevrey, simulate, fft2 = kp5.operators.gevrey_norm, kp5.cli.simulate, np.fft.fft2
    tracer = Tracer()
    with tracer:
        # the same wrapper sits wherever the name was imported
        assert kp5.integrator.gevrey_norm is kp5.operators.gevrey_norm is not gevrey
        assert kp5.cli.simulate is kp5.integrator.simulate is not simulate
        assert np.fft.fft2 is not fft2
        grid = kp5.spectral.Grid2D(8, 8, 1.0, 1.0)
        field = kp5.spectral.SpectralField.from_coefficients(grid, np.zeros((8, 8)))
        kp5.integrator.gevrey_norm(field, 0.0, 0.0)
    assert (kp5.operators.gevrey_norm, kp5.cli.simulate, np.fft.fft2) == (gevrey, simulate, fft2)
    names = tracer.names
    assert names[0] == "spectral.SpectralField.from_coefficients"
    norm = names.index("operators.gevrey_norm")
    assert tracer.parents[names.index("operators.assert_sigma_within_guard")] == norm
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))


def test_simulate_counts_are_complete_and_repeat():
    refs = json.loads(run.REFERENCES.read_text())
    r = run.WorkloadRun(WORKLOADS["simulate-128"], DEFAULT_SEED, refs["simulate-128"])
    r.sample("traced")
    r.sample("traced")
    assert r.failures == []
    first, second = r.samples
    series = first["summaries"][0]
    steps, records = series["steps"], series["rows"]
    layers = first["layers"]
    # four RHS evaluations of one ifft2 + fft2 pair per step, two pointwise
    # squares per record (remainder_n), one forward transform of the data
    assert layers["numpy.fft"]["calls"] == 8 * steps + 4 * records + 1
    assert layers["integrator.step"]["calls"] == steps
    assert layers["diagnostics.radius_estimate"]["calls"] == records
    assert first["fft_points"] == (8 * steps + 4 * records + 1) * 128 * 128
    counts = {k: v["calls"] for k, v in layers.items()}
    assert counts == {k: v["calls"] for k, v in second["layers"].items()}
    assert (first["fft_points"], first["fft_bytes"]) == (second["fft_points"], second["fft_bytes"])
    # spans nest inside the CLI call, so no layer is busier than the run
    assert all(v["busy_s"] <= first["wall_s"] for v in layers.values())


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["paths"] == [run.BENCH.name]
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        x["bound"] for x in spec["end_to_end"]) for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reference_summaries_pass_their_own_checks(name):
    refs = json.loads(run.REFERENCES.read_text())[name]
    assert refs["seed"] == DEFAULT_SEED
    for summary in refs["calls"]:
        assert WORKLOADS[name].check(summary, summary) is None
        assert all(not isinstance(v, float) or math.isfinite(v) for v in summary.values())
