"""The benchmark's reference checks, run with the tests: each kp5bench
workload once at its default seed, through the calls, summaries and checks
that ``kp5bench/run.py`` makes, against the stored ``references.json``.
The benchmark's own files are only read here."""

import json
import sys
from pathlib import Path

import pytest

import kp5.cli

BENCH = Path(__file__).resolve().parents[1] / "kp5bench"
sys.path.insert(0, str(BENCH))
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

REFERENCES = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_passes_its_reference_checks(tmp_path, name):
    workload, refs = WORKLOADS[name], REFERENCES[name]
    calls = workload.calls(DEFAULT_SEED, tmp_path / "inputs", tmp_path / "outputs")
    assert refs["seed"] == DEFAULT_SEED and len(refs["calls"]) == len(calls)
    for call, ref in zip(calls, refs["calls"]):
        assert kp5.cli.main(call.argv) == 0
        summary = workload.summarize(call)
        assert workload.check(summary, ref) is None, summary
