"""kp5 benchmark: times whole CLI runs in fresh single-threaded processes.

    python3 kp5bench/run.py --workload simulate-128 --seed 0 --seconds 28 --trace 0
    python3 kp5bench/run.py --workload all --seconds 120      # round-robin

Each sample is a fresh process (sample.py) with the BLAS/OpenMP thread
counts set to 1 in its environment only.  A run first makes one warm-up
process per workload (set-up only, timings discarded), then makes full
samples round-robin across the chosen workloads, each followed by
set-up-only processes, while the next sample would end less than half a
sample past ``--seconds`` (and always at least MIN_SAMPLES each); time
left over that is too short for a full sample goes to more set-up-only
processes.  Every CLI call's outputs are checked; a nonzero exit code or
a failed check counts as a failed operation.

With ``--trace 0`` the run reports the end-to-end metrics, medians over
samples.  With ``--trace 1`` it alternates untraced and traced samples
and reports per-layer metrics from the traced ones, plus the tracing
overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = BENCH / "references.json"

MIN_SAMPLES = 3
SETUPS_PER_SAMPLE = 2  # set-up-only processes after each full sample
CHILD_GRACE_S = 140.0  # a sample process is killed this long after the deadline
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
)
SPAN_METRICS = (
    "numpy.fft.calls", "numpy.fft.busy_s",
    "integrator.step.calls", "integrator.step.self_s", "integrator.simulate.self_s",
    "operators.remainder_n.calls", "operators.remainder_n.busy_s",
    "diagnostics.radius_estimate.calls", "diagnostics.radius_estimate.busy_s",
    "operators.gevrey_norm.calls", "operators.gevrey_norm.busy_s",
    "picard.picard_iterate.busy_s", "picard.duhamel_apply.calls",
    "picard.duhamel_apply.busy_s", "picard.duhamel_apply.self_s",
    "picard.window_distance.busy_s", "picard.free_window.busy_s",
    "picard.doubling_check.busy_s",
    "spectral.pointwise_square.calls", "spectral.pointwise_square.self_s",
    "spectral.pointwise_product.calls", "spectral.pointwise_product.self_s",
    "spectral.hermitian_part.busy_s", "spectral.SpectralField.from_coefficients.busy_s",
    "diagnostics.SpaceTimeField.from_slices.calls",
    "diagnostics.SpaceTimeField.from_slices.busy_s",
    "diagnostics.bourgain_norm.calls", "diagnostics.bourgain_norm.busy_s",
    "config.load_config.busy_s",
    "reporting.write_csv.busy_s", "reporting.write_manifest.busy_s",
    "spectral.save_snapshot.busy_s",
)
MODULES = ("spectral", "operators", "integrator", "picard", "diagnostics", "config", "reporting")
PER_LAYER = (
    tuple((m, "count" if m.endswith(".calls") else "s") for m in SPAN_METRICS)
    + tuple((f"{m}.self_s", "s") for m in MODULES)
    + (
        ("numpy.fft.points", "count"),
        ("numpy.fft.bytes", "B-computed"),
        ("picard.iterations", "count"),
        ("reporting.bytes_written", "B"),
        ("setup.import_s", "s"),
        ("host.ref_s", "s"),
        ("trace.overhead_s", "s"),
    )
)


class WorkloadRun:
    """Samples, set-up times and operation counts of one workload in a run."""

    def __init__(self, workload, seed: int, refs: dict | None):
        self.wl = workload
        self.seed = seed
        use_ref = refs is not None and (seed == refs["seed"] or not workload.seeded)
        self.refs = refs["calls"] if use_ref else None
        self.dir = WORK / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.samples: list[dict] = []  # measured full samples
        self.setups: list[dict] = []  # set-up timings, warm-up excluded
        self.longest = 0.0  # slowest full sample so far, process included
        self.setup_longest = 0.0
        self.count = 0
        self.full = 0  # full samples started, failed ones included
        self.attempted = 0
        self.failures: list[str] = []

    def sample(self, kind: str, timeout: float = CHILD_GRACE_S) -> None:
        """kind: 'plain' or 'traced' (full samples), 'setup', or 'warmup'
        (a set-up-only process whose timings are discarded)."""
        sdir = self.dir / f"s{self.count:03d}-{kind}"
        self.count += 1
        sdir.mkdir(parents=True)
        calls = self.wl.calls(self.seed, self.dir / "inputs", sdir)
        spec = {
            "src": str(SRC),
            "configs": [c.config for c in calls],
            "builds_field": self.wl.builds_field,
            "calls": [c.argv for c in calls],
            "trace": kind == "traced",
            "setup_only": kind in ("setup", "warmup"),
            "result": str(sdir / "result.json"),
            "spans": str(sdir / "spans.json"),
        }
        t0 = time.perf_counter()
        res = _spawn(spec, sdir / "spec.json", timeout)
        elapsed = time.perf_counter() - t0
        if kind in ("setup", "warmup"):
            self.setup_longest = max(self.setup_longest, elapsed)
            if res is not None and kind == "setup":
                self.setups.append(res)
            return
        self.longest = max(self.longest, elapsed)
        self.full += 1
        summaries = self._check(calls, res)
        if res is None:
            return
        res["traced"] = kind == "traced"
        res["summaries"] = summaries
        res["bytes_written"] = sum(
            f.stat().st_size for c in calls for f in Path(c.out).rglob("*") if f.is_file()
        )
        self.samples.append(res)
        self.setups.append(res)

    def _check(self, calls, res) -> list[dict]:
        summaries = []
        for i, call in enumerate(calls):
            self.attempted += 1
            problem = None
            if res is None:
                problem = "sample process failed"
            elif res["rc"][i] != 0:
                problem = f"exit code {res['rc'][i]}"
            else:
                try:
                    summary = self.wl.summarize(call)
                except (OSError, KeyError, ValueError, IndexError) as exc:
                    problem = f"unreadable output: {exc!r}"
                else:
                    summaries.append(summary)
                    problem = self.wl.check(summary, self.refs[i] if self.refs else None)
            if problem:
                self.failures.append(f"{self.wl.name} call {i} ({call.argv[0]}): {problem}")
        return summaries

    def end_to_end(self) -> dict[str, float]:
        plain = [s for s in self.samples if not s["traced"]]
        return {
            "wall_s": statistics.median(s["wall_s"] for s in plain),
            "setup_s": statistics.median(s["setup_s"] for s in self.setups),
            "cpu_s": statistics.median(s["cpu_s"] for s in plain),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
            "pass_frac": 1.0 - len(self.failures) / self.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        traced = [s for s in self.samples if s["traced"]]
        plain = [s for s in self.samples if not s["traced"]]

        def med(fn) -> float:
            return statistics.median(fn(s) for s in traced)

        def span(s, name, field):
            return s["layers"].get(name, {}).get(field, 0)

        out = {}
        for metric in SPAN_METRICS:
            name, field = metric.rsplit(".", 1)
            out[metric] = med(lambda s: span(s, name, field))
        for m in MODULES:
            out[f"{m}.self_s"] = med(
                lambda s: sum(v["self_s"] for k, v in s["layers"].items() if k.startswith(m + "."))
            )
        out["numpy.fft.points"] = med(lambda s: s["fft_points"])
        out["numpy.fft.bytes"] = med(lambda s: s["fft_bytes"])
        out["picard.iterations"] = med(
            lambda s: sum(x.get("iterations", 0) for x in s["summaries"])
        )
        out["reporting.bytes_written"] = med(lambda s: s["bytes_written"])
        out["setup.import_s"] = statistics.median(s["import_s"] for s in self.setups)
        out["host.ref_s"] = statistics.median(s["host_ref_s"] for s in self.samples)
        out["trace.overhead_s"] = med(lambda s: s["wall_s"]) - statistics.median(
            s["wall_s"] for s in plain
        )
        return out


def _spawn(spec: dict, spec_path: Path, timeout: float) -> dict | None:
    """Run one sample process; its result, or None if it failed."""
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, **CHILD_ENV, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "sample.py"), str(spec_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"sample {spec_path.parent.name} timed out", file=sys.stderr)
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    if proc.returncode != 0:
        print(f"sample {spec_path.parent.name} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def measure(runs: list[WorkloadRun], seconds: float, trace: bool) -> None:
    deadline = time.perf_counter() + seconds

    def timeout() -> float:
        return max(5.0, deadline + CHILD_GRACE_S - time.perf_counter())

    for r in runs:
        r.sample("warmup", timeout())
    active = list(runs)
    while active:
        for r in list(active):
            n = r.full
            if n >= MIN_SAMPLES and time.perf_counter() + r.longest / 2 > deadline:
                active.remove(r)
                continue
            r.sample("traced" if trace and n % 2 else "plain", timeout())
            for _ in range(SETUPS_PER_SAMPLE):
                if time.perf_counter() + r.setup_longest > deadline:
                    break
                r.sample("setup", timeout())
    # time too short for another full sample still takes set-ups
    while any(time.perf_counter() + r.setup_longest <= deadline for r in runs):
        for r in runs:
            if time.perf_counter() + r.setup_longest <= deadline:
                r.sample("setup", timeout())


def _print_table(r: WorkloadRun, metrics: dict, units: dict) -> None:
    traced = sum(s["traced"] for s in r.samples)
    print(
        f"{r.wl.name}: seed {r.seed}, {len(r.samples) - traced} untraced + {traced} traced "
        f"samples, {len(r.setups)} set-ups after 1 warm-up; "
        f"{r.attempted} operations, {len(r.failures)} failed "
        f"(fail_frac {len(r.failures) / r.attempted:.4g}); "
        f"reference checks {'on' if r.refs else 'off'}"
    )
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {units[name]}")
    for line in r.failures:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kp5" / "cli.py").is_file():
        print(f"kp5 sources not found under {SRC}", file=sys.stderr)
        return 2

    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [WorkloadRun(WORKLOADS[n], args.seed, refs.get(n)) for n in names]
    measure(runs, args.seconds, bool(args.trace))
    kinds = {False, True} if args.trace else {False}
    if any(kinds - {s["traced"] for s in r.samples} for r in runs):
        print("no sample completed; nothing to report", file=sys.stderr)
        return 1

    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {}
    for r in runs:
        m = r.per_layer() if args.trace else r.end_to_end()
        _print_table(r, m, units)
        prefix = f"{r.wl.name}/" if len(runs) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in m.items()})
    failed = sum(len(r.failures) for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
