"""The four benchmark workloads: their inputs, CLI calls and output checks.

Each workload writes its YAML configs from the seed, names the
``kp5.cli.main`` calls a sample makes (one operation each), reads each
call's outputs back into a compact summary, and checks that summary.
Checks that hold at every seed always run; comparisons against the stored
references (references.json, written by make_references.py from the seed
commit) run at DEFAULT_SEED, and at every seed for a workload whose
inputs do not depend on the seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

DEFAULT_SEED = 0
SIM_SNAPSHOT_TIMES = [0.25, 0.5, 1.0]
SIM_DRIFT_TOL = 1e-6  # A1's L2 conservation tolerance
# final-row norms, fitted radius and remainder norm, relative: a 16x larger
# dt moves them by at most 4e-8, dropping the stepper's dealiasing moves
# sigma_est by 7e-6
SIM_FINAL_RTOL = 1e-6
RADIUS_HORIZON = 3.0  # A7 runs to 50; the layer mix does not depend on it
RADIUS_SIGMA_ATOL = 1e-4
PICARD_GRID = 128
PICARD_SIGMA1 = 0.25  # acceptance.SUITE_SIGMA1
PICARD_RATIO_RTOL = 1e-6
BILINEAR_GRID = 64
BILINEAR_TRIALS = 64
BILINEAR_RTOL = 1e-8

# acceptance.SUITE_MEMBERS, written out so the benchmark inputs stay fixed
# even if the suite changes
PICARD_MEMBERS = (
    ("gaussian-small", {"kind": "gaussian", "amplitude": 0.75, "width": 2.0}),
    ("gaussian-wide", {"kind": "gaussian", "amplitude": 1.5, "width": 3.0}),
    ("gaussian-dx", {"kind": "gaussian_dx", "amplitude": 1.0, "width": 2.0}),
    ("line-soliton", {"kind": "line_soliton", "amplitude": 1.0, "width": 2.0, "ky": 1}),
    (
        "spectrum-anisotropic",
        {"kind": "exp_spectrum", "amplitude": 0.5, "decay_x": 1.0, "decay_y": 0.5,
         "phases": "random"},
    ),
    (
        "spectrum-isotropic",
        {"kind": "exp_spectrum", "amplitude": 1.0, "decay_x": 0.7, "decay_y": 0.7},
    ),
)


@dataclass(frozen=True)
class Call:
    """One ``kp5.cli.main`` invocation: one operation of the benchmark."""

    config: str
    out: str
    argv: list


def _write_yaml(path: Path, cfg: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
    return str(path)


def _manifest(call: Call) -> dict:
    with open(Path(call.out) / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    name = ""
    seeded = True  # whether the seed changes the inputs
    builds_field = True  # whether set-up builds the initial field

    def calls(self, seed: int, inputs: Path, outputs: Path) -> list[Call]:
        raise NotImplementedError

    def summarize(self, call: Call) -> dict:
        raise NotImplementedError

    def check(self, summary: dict, ref: dict | None) -> str | None:
        """Why the call's outputs are wrong, or None when they pass."""
        raise NotImplementedError


class Simulate128(Workload):
    name = "simulate-128"
    seeded = False  # the Gaussian initial data draw nothing from the seed

    def calls(self, seed, inputs, outputs):
        cfg = {"seed": seed, "output": {"snapshot_times": SIM_SNAPSHOT_TIMES}}
        path = _write_yaml(inputs / "simulate.yaml", cfg)
        out = str(outputs / "simulate")
        return [Call(path, out, ["simulate", "--config", path, "--out", out, "--quiet"])]

    def summarize(self, call):
        rows = _rows(Path(call.out) / "series.csv")
        l2 = [float(r["l2"]) for r in rows]
        final = {
            k: float(v) for k, v in rows[-1].items()
            if k in ("l2", "sigma_est", "remainder_l2") or k.startswith("gevrey_")
        }
        return {
            "status": _manifest(call)["status"],
            "rows": len(rows),
            "drift": max(abs(x - l2[0]) for x in l2) / l2[0],
            "final": final,
            "steps": int(rows[-1]["steps"]),
            "snapshots": len(list((Path(call.out) / "snapshots").glob("*.kp5s"))),
        }

    def check(self, s, ref):
        if s["status"] != "ok":
            return f"manifest status {s['status']}"
        if s["rows"] != 17:
            return f"{s['rows']} rows, expected 17"
        if not s["drift"] <= SIM_DRIFT_TOL:
            return f"relative L2 drift {s['drift']:.3e} > {SIM_DRIFT_TOL:g}"
        if s["snapshots"] != len(SIM_SNAPSHOT_TIMES):
            return f"{s['snapshots']} snapshots, expected {len(SIM_SNAPSHOT_TIMES)}"
        if ref is not None:
            for key, want in ref["final"].items():
                got = s["final"].get(key, math.nan)
                if not _rel(got, want) <= SIM_FINAL_RTOL:
                    return f"final {key} {got!r} differs from reference {want!r}"
        return None


class RadiusDecay64(Workload):
    name = "radius-decay-64"

    def calls(self, seed, inputs, outputs):
        cfg = {
            "seed": seed,
            "grid": {"nx": 64, "ny": 64},
            "time": {"horizon": RADIUS_HORIZON},
            "initial": {"kind": "exp_spectrum", "amplitude": 0.6, "decay_x": 1.0,
                        "decay_y": 1.0, "phases": "random"},
            "gevrey": {"sigma1": 1.0, "sigma2": 0.0},
        }
        path = _write_yaml(inputs / "radius-decay.yaml", cfg)
        out = str(outputs / "radius-decay")
        return [Call(path, out, ["radius-decay", "--config", path, "--out", out, "--quiet"])]

    def summarize(self, call):
        rows = _rows(Path(call.out) / "decay.csv")
        return {
            "status": _manifest(call)["status"],
            "t": [float(r["t"]) for r in rows],
            "sigma_est": [float(r["sigma_est"]) for r in rows],
        }

    def check(self, s, ref):
        if s["status"] != "ok":
            return f"manifest status {s['status']}"
        sig = s["sigma_est"]
        if len(sig) < 2:
            return f"only {len(sig)} samples"
        if not all(math.isfinite(x) and x > 0.0 for x in sig):
            return "a fitted sigma_est is zero or not finite"
        if ref is not None:
            if len(s["t"]) != len(ref["t"]) or any(
                _rel(a, b) > 1e-12 for a, b in zip(s["t"], ref["t"])
            ):
                return "sample times differ from the reference"
            worst = max(abs(a - b) for a, b in zip(sig, ref["sigma_est"]))
            if not worst <= RADIUS_SIGMA_ATOL:
                return f"sigma_est differs from the reference by {worst:.3e}"
        return None


class PicardSuite128(Workload):
    name = "picard-suite-128"

    def calls(self, seed, inputs, outputs):
        out = []
        for member, init in PICARD_MEMBERS:
            cfg = {
                "seed": seed,
                "grid": {"nx": PICARD_GRID, "ny": PICARD_GRID},
                "initial": init,
                "gevrey": {"sigma1": PICARD_SIGMA1, "sigma2": 0.0},
            }
            path = _write_yaml(inputs / f"picard-{member}.yaml", cfg)
            d = str(outputs / f"picard-{member}")
            out.append(Call(path, d, ["picard", "--config", path, "--out", d, "--quiet"]))
        return out

    def summarize(self, call):
        m = _manifest(call)
        keys = ("status", "converged", "doubling_passed", "iterations", "doubling_ratio")
        return {k: m[k] for k in keys}

    def check(self, s, ref):
        if s["status"] != "ok" or not s["converged"] or not s["doubling_passed"]:
            return f"converged={s['converged']} doubling_passed={s['doubling_passed']}"
        if ref is not None:
            if s["iterations"] != ref["iterations"]:
                return f"{s['iterations']} iterations, reference {ref['iterations']}"
            if not _rel(s["doubling_ratio"], ref["doubling_ratio"]) <= PICARD_RATIO_RTOL:
                return f"doubling ratio {s['doubling_ratio']!r}, reference {ref['doubling_ratio']!r}"
        return None


class Bilinear64(Workload):
    name = "bilinear-64"
    builds_field = False  # the command draws its random windows itself

    def calls(self, seed, inputs, outputs):
        cfg = {"seed": seed, "grid": {"nx": BILINEAR_GRID, "ny": BILINEAR_GRID}}
        path = _write_yaml(inputs / "bilinear.yaml", cfg)
        out = str(outputs / "bilinear")
        n = str(BILINEAR_GRID)
        argv = ["bilinear", "--config", path, "--out", out, "--quiet", "--nx", n, "--ny", n,
                "--trials", str(BILINEAR_TRIALS), "--s1", "-1", "--b", "0.55", "--beta", "0.45"]
        return [Call(path, out, argv)]

    def summarize(self, call):
        m = _manifest(call)
        rows = _rows(Path(call.out) / "bilinear.csv")
        return {"status": m["status"], "max_ratio": m["max_ratio"], "q95": m["q95"],
                "rows": len(rows)}

    def check(self, s, ref):
        if s["status"] != "ok" or s["rows"] != BILINEAR_TRIALS:
            return f"status {s['status']}, {s['rows']} trials"
        if not all(math.isfinite(s[k]) and s[k] > 0 for k in ("max_ratio", "q95")):
            return f"max_ratio {s['max_ratio']!r}, q95 {s['q95']!r}"
        if ref is not None:
            for k in ("max_ratio", "q95"):
                if not _rel(s[k], ref[k]) <= BILINEAR_RTOL:
                    return f"{k} {s[k]!r} differs from reference {ref[k]!r}"
        return None


WORKLOADS = {w.name: w for w in (Simulate128(), RadiusDecay64(), PicardSuite128(), Bilinear64())}
