"""Command-line harness.

Subcommands: simulate, picard, radius-decay, sigma-ladder, bilinear,
uniqueness, accept.  Exit codes: 0 success, 2 invalid configuration
(nothing written), 3 blow-up (partial table and a blow-up manifest
written), 1 any other toolkit failure.

Each run command is a function ``(cfg, args) -> _Run`` listed in
``_COMMANDS`` with its CSV file, table function and flags; ``_cmd_run``
checks the flags, loads the config, times the run, writes the table,
snapshots and manifest (with the step telemetry of a sampled run), and
handles a blow-up, the same way for all of them.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from .acceptance import AcceptanceSuite, doubling_ratio_check, gronwall_check
from .config import (
    _AT_LEAST_ONE,
    _GRID_SIZE,
    _POSITIVE,
    _RULES,
    GridConfig,
    SimConfig,
    _check_rule,
    load_config,
)
from .diagnostics import (
    GevreyParams,
    almost_conservation_run,
    bilinear_ratio_trials,
    increment_fit,
    radius_decay_run,
    uniqueness_gap,
)
from .errors import BlowUpError, ConfigError, InadmissibleParamsError, Kp5Error
from .integrator import SimulationOutput, initial_field, simulate
from .picard import picard_from_config
from .reporting import write_csv, write_manifest
from .spectral import save_snapshot


@dataclass(frozen=True)
class _Run:
    """What a run command hands ``_cmd_run``: the records its table function
    turns into rows, its manifest keys, its summary line (``{path}`` stands
    for the table's path), a sampled run's ``SimulationOutput``, whose
    telemetry, phases and snapshots are written (None: one "run" phase), and
    the config the run ran on when its flags set part of it (None: the loaded
    one), which the manifest records."""

    records: Sequence
    keys: dict
    summary: str
    sampled: SimulationOutput | None = None
    cfg: SimConfig | None = None


def _attrs(obj, names: str) -> dict:
    """{name: obj.name} for each space-separated name: the manifest keys
    that are a result's (or the arguments') own field names."""
    return {name: getattr(obj, name) for name in names.split()}


def _run_simulate(cfg: SimConfig, args) -> _Run:
    result = simulate(cfg)
    return _Run(
        result.records,
        _attrs(result, "l2_drift"),
        f"wrote {len(result.records)} records to {{path}}",
        result,
    )


def _series_table(cfg: SimConfig, records):
    header = (
        ["t", "l2"]
        + [f"gevrey_{repr(s)}" for s in cfg.gevrey.ladder]
        + ["sigma_est", "residual", "remainder_l2", "steps"]
    )
    rows = [
        [r.t, r.l2, *r.gevrey, r.sigma_est, r.residual, r.remainder_l2, r.steps]
        for r in records
    ]
    return header, rows


def _run_picard(cfg: SimConfig, args) -> _Run:
    result = picard_from_config(cfg, initial_field(cfg))
    return _Run(
        list(zip(result.distances, (float("nan"), *result.ratios), result.sup_norms)),
        {
            **_attrs(
                result,
                "delta data_norm converged iterations distances ratios doubling_ratio",
            ),
            "doubling_passed": doubling_ratio_check("doubling ratio", result).passed,
        },
        f"delta={result.delta:.6g} converged={result.converged} in "
        f"{result.iterations} iterations; doubling ratio {result.doubling_ratio:.4f}",
    )


def _run_radius_decay(cfg: SimConfig, args) -> _Run:
    result = radius_decay_run(cfg)
    return _Run(
        result.samples,
        _attrs(result, "delta sigma0 tail_p tail_amp c_emp collapse_time fit_failures"),
        f"{len(result.samples)} samples; sigma0={result.sigma0:.4f} "
        f"tail p={result.tail_p:.3f} C_emp={result.c_emp:.4f}",
        result.run,
    )


def _run_sigma_ladder(cfg: SimConfig, args) -> _Run:
    result = almost_conservation_run(cfg)
    return _Run(
        result.run.records,
        _attrs(result, "delta slope fit_failures"),
        f"slope {result.slope:.3f} over {len(cfg.gevrey.ladder)} rates",
        result.run,
    )


def _ladder_table(cfg: SimConfig, records):
    """Per rate: the increment D as of the last record and their slope."""
    sigmas = cfg.gevrey.ladder
    increments = records[-1] if records else ()
    slope, _ = increment_fit(sigmas, increments)
    return ["sigma", "D", "slope"], [(s, d, slope) for s, d in zip(sigmas, increments)]


def _run_bilinear(cfg: SimConfig, args) -> _Run:
    params = _attrs(args, "s1 s2 b beta eps")
    try:
        result = bilinear_ratio_trials(
            GevreyParams(**params), args.trials, cfg.seed, nx=args.nx, ny=args.ny
        )
    except InadmissibleParamsError as exc:  # raised before any trial runs
        raise ConfigError(f"--{exc.field}", exc.reason) from None
    return _Run(
        result.ratios,
        {**_attrs(result, "max_ratio q95"), "trials": args.trials, "params": params},
        f"max ratio {result.max_ratio:.4f}, q95 {result.q95:.4f}",
        # the trials' grid: --nx x --ny on the default 32 pi x 32 pi torus
        cfg=replace(cfg, grid=GridConfig(nx=args.nx, ny=args.ny)),
    )


def _run_uniqueness(cfg: SimConfig, args) -> _Run:
    result = uniqueness_gap(cfg, args.eps)
    passed = gronwall_check(result).passed
    return _Run(
        result.samples,
        {"eps": args.eps, "max_ratio": result.max_ratio, "passed": passed},
        f"max gap/bound {result.max_ratio:.4f}; passed={passed}",
        result.run,
    )


@dataclass(frozen=True)
class _Command:
    help: str
    run: Callable[[SimConfig, argparse.Namespace], _Run]
    csv: str
    table: Callable  # (cfg, records) -> (header, rows)
    # (flag, type, default, config range rule or None) beyond the common four
    flags: tuple = ()


_COMMANDS = {
    "simulate": _Command(
        "run the flow, write the record series", _run_simulate, "series.csv",
        _series_table,
    ),
    "picard": _Command(
        "successive approximation on one window", _run_picard, "picard.csv",
        lambda cfg, rs: (["n", "distance", "ratio", "sup_norm"],
                         [(n, *r) for n, r in enumerate(rs, 1)]),
    ),
    "radius-decay": _Command(
        "track the fitted radius over time", _run_radius_decay, "decay.csv",
        lambda cfg, rs: (["t", "sigma_est", "residual"],
                         [(s.t, s.sigma_est, s.residual) for s in rs]),
    ),
    "sigma-ladder": _Command(
        "almost-conservation increments", _run_sigma_ladder, "ladder.csv",
        _ladder_table,
    ),
    "bilinear": _Command(
        "bilinear norm ratio trials", _run_bilinear, "bilinear.csv",
        lambda cfg, rs: (["trial", "ratio"], enumerate(rs)),
        (("--trials", int, 100, _AT_LEAST_ONE), ("--nx", int, 32, _GRID_SIZE),
         ("--ny", int, 32, _GRID_SIZE), ("--s1", float, -1.0, None),
         ("--s2", float, 0.0, None), ("--b", float, 0.55, None),
         ("--beta", float, 0.45, None), ("--eps", float, 0.0, None)),
    ),
    "uniqueness": _Command(
        "perturbation gap vs Gronwall bound", _run_uniqueness, "uniqueness.csv",
        lambda cfg, rs: (["t", "gap", "bound"], [(s.t, s.gap, s.bound) for s in rs]),
        (("--eps", float, 1e-6, _POSITIVE),),
    ),
}


def _check_flags(command: _Command, args) -> None:
    """Refuse by name, as a config value, a non-finite float or a broken
    rule; a given ``--seed`` meets the config's seed rule."""
    for flag, kind, _, rule in command.flags:
        value = getattr(args, flag[2:])
        if kind is float and not math.isfinite(value):
            raise ConfigError(flag, f"must be finite, got {value!r}")
        _check_rule(rule, value, flag)
    if args.seed is not None:
        _check_rule(_RULES["seed"], args.seed, "--seed")


def _cmd_run(name: str, args) -> int:
    """Run one command: check its flags, load the config, time the run,
    then write its table, snapshots and, last, its manifest; a sampled run
    adds its step telemetry and its phases.  A blow-up writes the partial
    table from the error's records and a "blow-up" manifest, then re-raises."""
    command = _COMMANDS[name]
    _check_flags(command, args)
    cfg = load_config(args.config) if args.config else SimConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out = Path(args.out or cfg.output.dir or Path("runs") / name)
    clock = time.perf_counter
    t0 = clock()
    try:
        run = command.run(cfg, args)
    except BlowUpError as exc:
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / command.csv, *command.table(cfg, exc.records))
        write_manifest(
            out / "manifest.json", cfg, name,
            {"status": "blow-up", "aborted_at": exc.time},
        )
        raise  # main reports it and exits 3
    t_write = clock()
    sampled = run.sampled
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / command.csv, *command.table(cfg, run.records))
    if sampled and sampled.snapshots:
        (out / "snapshots").mkdir(exist_ok=True)
        for t, field in sampled.snapshots:
            save_snapshot(field, out / "snapshots" / f"t{t:.6f}.kp5s")
    telemetry = _attrs(sampled, "steps dt grid_dt dt_source") if sampled else {}
    # the manifest is written last, so "writing" covers the table and snapshots
    phase_s = sampled.phase_s if sampled else {"run": t_write - t0}
    phase_s = dict(phase_s, writing=clock() - t_write)
    write_manifest(
        out / "manifest.json", run.cfg or cfg, name,
        {"status": "ok", **telemetry, **run.keys, "phase_s": phase_s},
    )
    if not args.quiet:
        print(run.summary.format(path=out / command.csv))
    return 0


def _cmd_accept(args) -> int:
    only = args.only.split(",") if args.only else None
    failed = []
    for r in AcceptanceSuite().run(only):
        print(r.line, flush=True)  # as its criterion finishes
        if not r.passed:
            failed.append(r.cid)
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
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="YAML config file (defaults when omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--quiet", action="store_true", help="suppress summaries")
        for flag, kind, default, _ in command.flags:
            p.add_argument(flag, type=kind, default=default)
        p.set_defaults(func=partial(_cmd_run, name))

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
