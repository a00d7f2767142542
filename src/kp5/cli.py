"""Command-line harness.

Subcommands: simulate, picard, radius-decay, sigma-ladder, bilinear,
uniqueness, accept.  Exit codes: 0 success, 2 invalid configuration
(nothing written), 3 blow-up (partial series flushed), 1 any other
toolkit failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from .acceptance import run_acceptance
from .config import SimConfig, load_config
from .diagnostics import (
    almost_conservation_run,
    bilinear_ratio_trials,
    radius_decay_run,
    uniqueness_gap,
)
from .errors import BlowUpError, ConfigError, Kp5Error
from .integrator import initial_field, simulate
from .operators import GevreyParams
from .picard import doubling_check, picard_from_config
from .reporting import ensure_dir, write_csv, write_manifest, write_series_csv
from .spectral import save_snapshot


def _load_config(args) -> SimConfig:
    cfg = load_config(args.config) if args.config else SimConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _out_dir(args, cfg: SimConfig, command: str) -> Path:
    if args.out:
        return Path(args.out)
    if cfg.output.dir:
        return Path(cfg.output.dir)
    return Path("runs") / command


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _run_phases(t0: float, t_write: float) -> dict[str, float]:
    """Wall seconds of a command that ran from t0 and began writing at
    t_write: its "run" and, up to now (just before the manifest), its
    "writing"."""
    return {"run": t_write - t0, "writing": time.perf_counter() - t_write}


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg, "simulate")
    try:
        result = simulate(cfg, snapshot_times=cfg.output.snapshot_times)
    except BlowUpError as exc:
        ensure_dir(out)
        write_series_csv(out / "series.csv", cfg, exc.records)
        write_manifest(
            out / "manifest.json",
            cfg,
            "simulate",
            {"status": "blow-up", "aborted_at": exc.time},
        )
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3
    t_write = time.perf_counter()
    ensure_dir(out)
    write_series_csv(out / "series.csv", cfg, result.records)
    if result.snapshots:
        snap_dir = ensure_dir(out / "snapshots")
        for t, field in result.snapshots:
            save_snapshot(field, snap_dir / f"t{t:.6f}.kp5s")
    # the manifest is written last, so "writing" covers the series and snapshots
    phase_s = dict(result.phase_s, writing=time.perf_counter() - t_write)
    write_manifest(
        out / "manifest.json",
        cfg,
        "simulate",
        {
            "status": "ok",
            "steps": result.steps,
            "dt": result.dt,
            "grid_dt": result.grid_dt,
            "dt_source": result.dt_source,
            "phase_s": phase_s,
            "l2_drift": result.l2_drift,
        },
    )
    _say(args, f"wrote {len(result.records)} records to {out / 'series.csv'}")
    return 0


def _cmd_picard(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg, "picard")
    f = initial_field(cfg)
    clock = time.perf_counter
    t0 = clock()
    norm, delta, result = picard_from_config(cfg, f)
    t_doubling = clock()
    check = doubling_check(norm, result.sup_norms[-1])
    t_write = clock()
    ensure_dir(out)
    rows = []
    for i, d in enumerate(result.distances):
        ratio = result.ratios[i - 1] if i >= 1 and i - 1 < len(result.ratios) else float("nan")
        rows.append((i + 1, d, ratio, result.sup_norms[i]))
    write_csv(out / "picard.csv", ["n", "distance", "ratio", "sup_norm"], rows)
    # the manifest is written last, so "writing" covers picard.csv
    phase_s = {
        "iterate": t_doubling - t0,
        "doubling": t_write - t_doubling,
        "writing": clock() - t_write,
    }
    write_manifest(
        out / "manifest.json",
        cfg,
        "picard",
        {
            "status": "ok",
            "delta": delta,
            "data_norm": norm,
            "converged": result.converged,
            "iterations": result.iterations,
            "doubling_ratio": check.ratio,
            "doubling_passed": check.passed,
            "distances": result.distances,
            "ratios": result.ratios,
            "phase_s": phase_s,
        },
    )
    _say(
        args,
        f"delta={delta:.6g} converged={result.converged} in "
        f"{result.iterations} iterations; doubling ratio {check.ratio:.4f}",
    )
    return 0


def _cmd_radius_decay(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg, "radius-decay")
    result = radius_decay_run(cfg)
    t_write = time.perf_counter()
    ensure_dir(out)
    write_csv(
        out / "decay.csv",
        ["t", "sigma_est", "residual"],
        [(s.t, s.sigma_est, s.residual) for s in result.samples],
    )
    write_manifest(
        out / "manifest.json",
        cfg,
        "radius-decay",
        {
            "status": "ok",
            "delta": result.delta,
            "sigma0": result.sigma0,
            "tail_p": result.tail_p,
            "tail_amp": result.tail_amp,
            "constants": {"c_emp": result.c_emp},
            "collapse_time": result.collapse_time,
            "fit_failures": result.fit_failures,
            "steps": result.steps,
            "dt": result.dt,
            "grid_dt": result.grid_dt,
            "dt_source": result.dt_source,
            "phase_s": dict(result.phase_s, writing=time.perf_counter() - t_write),
        },
    )
    _say(
        args,
        f"{len(result.samples)} samples; sigma0={result.sigma0:.4f} "
        f"tail p={result.tail_p:.3f} C_emp={result.c_emp:.4f}",
    )
    return 0


def _cmd_sigma_ladder(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg, "sigma-ladder")
    t0 = time.perf_counter()
    result = almost_conservation_run(cfg)
    t_write = time.perf_counter()
    ensure_dir(out)
    write_csv(
        out / "ladder.csv",
        ["sigma", "D", "slope"],
        [
            (s, d, result.slope)
            for s, d in zip(result.sigmas, result.increments)
        ],
    )
    write_manifest(
        out / "manifest.json",
        cfg,
        "sigma-ladder",
        {
            "status": "ok",
            "delta": result.delta,
            "slope": result.slope,
            "phase_s": _run_phases(t0, t_write),
        },
    )
    _say(args, f"slope {result.slope:.3f} over {len(result.sigmas)} rates")
    return 0


def _cmd_bilinear(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg, "bilinear")
    params = GevreyParams(
        s1=args.s1, s2=args.s2, b=args.b, beta=args.beta, eps=args.eps
    )
    t0 = time.perf_counter()
    result = bilinear_ratio_trials(
        params, args.trials, cfg.seed, nx=args.nx, ny=args.ny
    )
    t_write = time.perf_counter()
    ensure_dir(out)
    write_csv(
        out / "bilinear.csv",
        ["trial", "ratio"],
        list(enumerate(result.ratios)),
    )
    write_manifest(
        out / "manifest.json",
        cfg,
        "bilinear",
        {
            "status": "ok",
            "max_ratio": result.max_ratio,
            "q95": result.q95,
            "trials": args.trials,
            "nx": args.nx,
            "ny": args.ny,
            "params": {
                "s1": args.s1,
                "s2": args.s2,
                "b": args.b,
                "beta": args.beta,
                "eps": args.eps,
            },
            "phase_s": _run_phases(t0, t_write),
        },
    )
    _say(args, f"max ratio {result.max_ratio:.4f}, q95 {result.q95:.4f}")
    return 0


def _cmd_uniqueness(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg, "uniqueness")
    t0 = time.perf_counter()
    result = uniqueness_gap(cfg, args.eps)
    t_write = time.perf_counter()
    ensure_dir(out)
    write_csv(
        out / "uniqueness.csv",
        ["t", "gap", "bound"],
        [(s.t, s.gap, s.bound) for s in result.samples],
    )
    write_manifest(
        out / "manifest.json",
        cfg,
        "uniqueness",
        {
            "status": "ok",
            "eps": result.eps,
            "max_ratio": result.max_ratio,
            "passed": result.passed,
            "phase_s": _run_phases(t0, t_write),
        },
    )
    _say(args, f"max gap/bound {result.max_ratio:.4f}; passed={result.passed}")
    return 0


def _cmd_accept(args) -> int:
    only = args.only.split(",") if args.only else None
    results = run_acceptance(only)
    for r in results:
        print(r.line)
    failed = [r.cid for r in results if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kp5",
        description="Pseudo-spectral toolkit for a fifth-order KP-II equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config file (defaults when omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--quiet", action="store_true", help="suppress summaries")

    p = sub.add_parser("simulate", help="run the flow, write the record series")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("picard", help="successive approximation on one window")
    common(p)
    p.set_defaults(func=_cmd_picard)

    p = sub.add_parser("radius-decay", help="track the fitted radius over time")
    common(p)
    p.set_defaults(func=_cmd_radius_decay)

    p = sub.add_parser("sigma-ladder", help="almost-conservation increments")
    common(p)
    p.set_defaults(func=_cmd_sigma_ladder)

    p = sub.add_parser("bilinear", help="bilinear norm ratio trials")
    common(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--nx", type=int, default=32)
    p.add_argument("--ny", type=int, default=32)
    p.add_argument("--s1", type=float, default=-1.0)
    p.add_argument("--s2", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.55)
    p.add_argument("--beta", type=float, default=0.45)
    p.add_argument("--eps", type=float, default=0.0)
    p.set_defaults(func=_cmd_bilinear)

    p = sub.add_parser("uniqueness", help="perturbation gap vs Gronwall bound")
    common(p)
    p.add_argument("--eps", type=float, default=1e-6)
    p.set_defaults(func=_cmd_uniqueness)

    p = sub.add_parser("accept", help="run the acceptance criteria")
    p.add_argument("--only", help="comma-separated criteria ids, e.g. A1,A8")
    p.set_defaults(func=_cmd_accept)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3
    except Kp5Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
