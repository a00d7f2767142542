"""Run configuration: YAML schema, validation, and defaults.

The dataclasses below are the schema.  A config file is a YAML mapping
whose sections and keys are their fields (``grid``, ``time``, ``initial``,
``gevrey``, ``delta``, ``picard``, ``output`` and scalar ``seed``); every
key is optional, and an empty file yields all defaults.  One parser walks
the fields: it rejects unknown keys, coerces each value from its type hint
and applies the range rule that ``_RULES`` holds for its dotted path, so an
error names the field (``time.horizon``, ``gevrey.ladder[1]``).  The one
check across sections is the Gevrey overflow guard, which needs the grid.
``config_to_dict`` / ``config_from_dict`` round-trip exactly, which is
what the run manifest relies on.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import asdict, dataclass, field, is_dataclass
from functools import cache
from typing import get_args, get_origin, get_type_hints

import yaml

from .errors import ConfigError, SigmaOverflowError
from .initial_data import KINDS
from .operators import assert_sigma_within_guard
from .spectral import Grid2D

# contraction-window constant delta = c0 / (1 + ||f||)^exponent, calibrated
# so the doubling margin on the standard data suite stays >= 10%
DEFAULT_C0 = 0.4
# radius-floor constant sigma(t) >= C_emp / t, measured on the standard
# suite; a radius-decay run replaces it with the fresh fit in its manifest
DEFAULT_C_EMP = 5.6
DEFAULT_LENGTH = 32.0 * math.pi


@dataclass(frozen=True)
class GridConfig:
    nx: int = 128
    ny: int = 128
    lx: float = DEFAULT_LENGTH
    ly: float = DEFAULT_LENGTH


@dataclass(frozen=True)
class TimeConfig:
    # the sampling grid is cfl / (max group speed), and steps between
    # samples are at most cfl * delta (the contraction window)
    cfl: float = 1.0
    dt: float | None = None  # explicit step: the grid and every step
    horizon: float = 1.0
    samples: int = 17


@dataclass(frozen=True)
class InitialConfig:
    kind: str = "gaussian"
    amplitude: float = 1.0
    width: float = 2.0
    decay_x: float = 1.0
    decay_y: float = 1.0
    ky: int = 1
    phases: str = "none"


@dataclass(frozen=True)
class GevreyConfig:
    sigma1: float = 0.5
    sigma2: float = 0.0
    ladder: tuple[float, ...] = (0.0125, 0.025, 0.05, 0.1)


@dataclass(frozen=True)
class DeltaConfig:
    c0: float = DEFAULT_C0
    exponent: float = 2.0


@dataclass(frozen=True)
class PicardConfig:
    slices: int = 64
    n_max: int = 30
    tol: float = 1e-10


@dataclass(frozen=True)
class OutputConfig:
    dir: str | None = None
    snapshot_times: tuple[float, ...] = ()


@dataclass(frozen=True)
class SimConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    initial: InitialConfig = field(default_factory=InitialConfig)
    gevrey: GevreyConfig = field(default_factory=GevreyConfig)
    delta: DeltaConfig = field(default_factory=DeltaConfig)
    picard: PicardConfig = field(default_factory=PicardConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    seed: int = 0

    def make_grid(self) -> Grid2D:
        g = self.grid
        return Grid2D(g.nx, g.ny, g.lx, g.ly)


# --- parsing ----------------------------------------------------------------

# range rules by dotted key; "name[]" applies to every element of a list
# (the command-line flags reuse some); a grid size must also convert to a
# float, as the overflow guard needs
_GRID_SIZE = (
    lambda v: 8 <= v <= sys.float_info.max and v % 2 == 0,
    "must be even, >= 8 and within the float range",
)
_POSITIVE = (lambda v: v > 0, "must be positive")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_NONNEGATIVE = (lambda v: v >= 0, "must be >= 0")
_RULES = {
    "grid.nx": _GRID_SIZE,
    "grid.ny": _GRID_SIZE,
    "grid.lx": _POSITIVE,
    "grid.ly": _POSITIVE,
    "time.cfl": _POSITIVE,
    "time.dt": _POSITIVE,
    "time.horizon": _NONNEGATIVE,
    "time.samples": _AT_LEAST_ONE,
    "initial.kind": (lambda v: v in KINDS, f"must be one of {', '.join(KINDS)}"),
    "initial.width": _POSITIVE,
    "initial.decay_x": _NONNEGATIVE,
    "initial.decay_y": _NONNEGATIVE,
    "initial.phases": (lambda v: v in ("none", "random"), "must be 'none' or 'random'"),
    "gevrey.sigma1": _NONNEGATIVE,
    "gevrey.sigma2": _NONNEGATIVE,
    "gevrey.ladder": (len, "must be a non-empty list of rates"),
    "gevrey.ladder[]": _NONNEGATIVE,
    "delta.c0": _POSITIVE,
    "delta.exponent": (lambda v: v > 1, "must be > 1"),
    "picard.slices": (lambda v: v >= 2 and v % 2 == 0, "must be even and >= 2"),
    "picard.n_max": _AT_LEAST_ONE,
    "picard.tol": _POSITIVE,
    "output.snapshot_times[]": _NONNEGATIVE,
    "seed": (lambda v: 0 <= v < 2**128, "must be >= 0 and below 2**128 (a Philox key)"),
}


@cache
def _field_types(cls) -> dict:
    """Field name -> resolved type hint of a config dataclass."""
    return get_type_hints(cls)


def _section(cls, raw, where: str):
    """Build the dataclass ``cls`` from the mapping ``raw`` at dotted path
    ``where`` ("" for the whole config); absent keys keep their defaults."""
    here = where or "config"
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(here, f"expected a mapping, got {type(raw).__name__}")
    hints = _field_types(cls)
    for key in raw:
        if key not in hints:
            raise ConfigError(f"{here}.{key}", "unknown key")
    return cls(**{
        key: _value(hints[key], val, f"{where}.{key}" if where else key)
        for key, val in raw.items()
    })


def _value(hint, val, where: str):
    """Coerce ``val`` to the type ``hint``, then apply its ``_RULES`` entry."""
    if is_dataclass(hint):
        return _section(hint, val, where)
    if type(None) in get_args(hint):  # X | None
        if val is None:
            return None
        hint = get_args(hint)[0]
    if get_origin(hint) is tuple:  # tuple[X, ...]
        if not isinstance(val, (list, tuple)):
            raise ConfigError(where, f"expected a list, got {val!r}")
        item = get_args(hint)[0]
        val = tuple(_value(item, v, f"{where}[{i}]") for i, v in enumerate(val))
    elif hint is float:
        val = _as_float(val, where)
    elif isinstance(val, bool) or not isinstance(val, hint):
        raise ConfigError(where, f"expected {hint.__name__}, got {val!r}")
    _check_rule(_RULES.get(re.sub(r"\[\d+\]$", "[]", where)), val, where)
    return val


def _check_rule(rule, val, where: str) -> None:
    """Refuse ``val``, named ``where``, when it breaks the range rule (if any)."""
    if rule is not None and not rule[0](val):
        raise ConfigError(where, f"{rule[1]}, got {val!r}")


def _as_float(val, where: str) -> float:
    # YAML 1.1 reads "1e6" as a string, so numeric strings are accepted
    if isinstance(val, bool) or not isinstance(val, (int, float, str)):
        raise ConfigError(where, f"expected a number, got {val!r}")
    try:
        out = float(val)
    except (ValueError, OverflowError):
        raise ConfigError(where, f"expected a finite number, got {val!r}") from None
    if not math.isfinite(out):
        raise ConfigError(where, "must be finite")
    return out


def config_from_dict(raw: dict) -> SimConfig:
    """Validate a nested dict in the YAML schema; None means defaults."""
    cfg = _section(SimConfig, raw, "")
    grid, g = cfg.make_grid(), cfg.gevrey
    # the overflow guard names the admissible maximum
    try:
        assert_sigma_within_guard(grid, g.sigma1, g.sigma2)
        for s in g.ladder:
            assert_sigma_within_guard(grid, s, 0.0)
    except SigmaOverflowError as exc:
        raise ConfigError("gevrey", str(exc)) from exc
    # a snapshot time past the horizon would be clamped to it
    at_most_horizon = (lambda t: t <= cfg.time.horizon, "must be at most time.horizon")
    for i, t in enumerate(cfg.output.snapshot_times):
        _check_rule(at_most_horizon, t, f"output.snapshot_times[{i}]")
    # one sample at t = 0 would end a run with a horizon before its first step
    if cfg.time.horizon > 0:
        _check_rule((lambda n: n >= 2, "must be >= 2 when time.horizon > 0"),
                    cfg.time.samples, "time.samples")
    return cfg


def load_config(path) -> SimConfig:
    """Parse and validate a YAML config file; empty file means defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        raise ConfigError(where, f"YAML parse error: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(cfg: SimConfig) -> dict:
    """Plain nested dict using the YAML schema; round-trips exactly."""
    return asdict(cfg, dict_factory=lambda items: {
        k: list(v) if isinstance(v, tuple) else v for k, v in items
    })
