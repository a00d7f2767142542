"""Run configuration: YAML schema, validation, and defaults.

A config file is a YAML mapping with optional sections ``grid``, ``time``,
``initial``, ``gevrey``, ``delta``, ``picard``, ``output`` and scalar
``seed``.  Unknown keys anywhere are rejected, range errors name the field,
and an empty file yields all defaults.  ``config_to_dict`` /
``config_from_dict`` round-trip exactly, which is what the run manifest
relies on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from .errors import ConfigError
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


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox): same seed, same stream, any order."""
    return np.random.Generator(np.random.Philox(key=seed))


# --- parsing helpers --------------------------------------------------------


def _require_mapping(obj, where: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(where, f"expected a mapping, got {type(obj).__name__}")
    return obj


def _reject_unknown(sec: dict, where: str, allowed) -> None:
    for key in sec:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}", "unknown key")


def _as_int(val, where: str) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(where, f"expected an integer, got {val!r}")
    return val


def _as_float(val, where: str) -> float:
    # YAML 1.1 reads "1e6" as a string, so numeric strings are accepted
    if isinstance(val, str):
        try:
            val = float(val)
        except ValueError:
            raise ConfigError(where, f"expected a number, got {val!r}") from None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(where, f"expected a number, got {val!r}")
    out = float(val)
    if not math.isfinite(out):
        raise ConfigError(where, "must be finite")
    return out


def _as_str(val, where: str) -> str:
    if not isinstance(val, str):
        raise ConfigError(where, f"expected a string, got {val!r}")
    return val


def _positive(val: float, where: str) -> float:
    if not val > 0:
        raise ConfigError(where, f"must be positive, got {val!r}")
    return val


def _nonnegative(val: float, where: str) -> float:
    if val < 0:
        raise ConfigError(where, f"must be >= 0, got {val!r}")
    return val


def _grid_config(sec: dict) -> GridConfig:
    _reject_unknown(sec, "grid", ("nx", "ny", "lx", "ly"))
    out = GridConfig(
        nx=_as_int(sec.get("nx", GridConfig.nx), "grid.nx"),
        ny=_as_int(sec.get("ny", GridConfig.ny), "grid.ny"),
        lx=_as_float(sec.get("lx", GridConfig.lx), "grid.lx"),
        ly=_as_float(sec.get("ly", GridConfig.ly), "grid.ly"),
    )
    for name, n in (("grid.nx", out.nx), ("grid.ny", out.ny)):
        if n < 8 or n % 2:
            raise ConfigError(name, f"must be even and >= 8, got {n}")
    _positive(out.lx, "grid.lx")
    _positive(out.ly, "grid.ly")
    return out


def _time_config(sec: dict) -> TimeConfig:
    _reject_unknown(sec, "time", ("cfl", "dt", "horizon", "samples"))
    dt_raw = sec.get("dt", TimeConfig.dt)
    dt = None if dt_raw is None else _positive(_as_float(dt_raw, "time.dt"), "time.dt")
    out = TimeConfig(
        cfl=_positive(_as_float(sec.get("cfl", TimeConfig.cfl), "time.cfl"), "time.cfl"),
        dt=dt,
        horizon=_nonnegative(
            _as_float(sec.get("horizon", TimeConfig.horizon), "time.horizon"),
            "time.horizon",
        ),
        samples=_as_int(sec.get("samples", TimeConfig.samples), "time.samples"),
    )
    if out.samples < 1:
        raise ConfigError("time.samples", f"must be >= 1, got {out.samples}")
    return out


def _initial_config(sec: dict) -> InitialConfig:
    _reject_unknown(
        sec,
        "initial",
        ("kind", "amplitude", "width", "decay_x", "decay_y", "ky", "phases"),
    )
    out = InitialConfig(
        kind=_as_str(sec.get("kind", InitialConfig.kind), "initial.kind"),
        amplitude=_as_float(
            sec.get("amplitude", InitialConfig.amplitude), "initial.amplitude"
        ),
        width=_positive(
            _as_float(sec.get("width", InitialConfig.width), "initial.width"),
            "initial.width",
        ),
        decay_x=_nonnegative(
            _as_float(sec.get("decay_x", InitialConfig.decay_x), "initial.decay_x"),
            "initial.decay_x",
        ),
        decay_y=_nonnegative(
            _as_float(sec.get("decay_y", InitialConfig.decay_y), "initial.decay_y"),
            "initial.decay_y",
        ),
        ky=_as_int(sec.get("ky", InitialConfig.ky), "initial.ky"),
        phases=_as_str(sec.get("phases", InitialConfig.phases), "initial.phases"),
    )
    if out.kind not in KINDS:
        raise ConfigError(
            "initial.kind", f"must be one of {', '.join(KINDS)}; got {out.kind!r}"
        )
    if out.phases not in ("none", "random"):
        raise ConfigError(
            "initial.phases", f"must be 'none' or 'random', got {out.phases!r}"
        )
    return out


def _gevrey_config(sec: dict, grid: Grid2D) -> GevreyConfig:
    _reject_unknown(sec, "gevrey", ("sigma1", "sigma2", "ladder"))
    sigma1 = _nonnegative(
        _as_float(sec.get("sigma1", GevreyConfig.sigma1), "gevrey.sigma1"),
        "gevrey.sigma1",
    )
    sigma2 = _nonnegative(
        _as_float(sec.get("sigma2", GevreyConfig.sigma2), "gevrey.sigma2"),
        "gevrey.sigma2",
    )
    ladder_raw = sec.get("ladder", list(GevreyConfig.ladder))
    if not isinstance(ladder_raw, (list, tuple)) or not ladder_raw:
        raise ConfigError("gevrey.ladder", "expected a non-empty list of rates")
    ladder = tuple(
        _nonnegative(_as_float(v, f"gevrey.ladder[{i}]"), f"gevrey.ladder[{i}]")
        for i, v in enumerate(ladder_raw)
    )
    try:
        assert_sigma_within_guard(grid, sigma1, sigma2)
        for i, s in enumerate(ladder):
            assert_sigma_within_guard(grid, s, 0.0)
    except Exception as exc:  # overflow guard names the admissible maximum
        raise ConfigError("gevrey", str(exc)) from exc
    return GevreyConfig(sigma1=sigma1, sigma2=sigma2, ladder=ladder)


def _delta_config(sec: dict) -> DeltaConfig:
    _reject_unknown(sec, "delta", ("c0", "exponent"))
    out = DeltaConfig(
        c0=_positive(
            _as_float(sec.get("c0", DeltaConfig.c0), "delta.c0"), "delta.c0"
        ),
        exponent=_as_float(
            sec.get("exponent", DeltaConfig.exponent), "delta.exponent"
        ),
    )
    if not out.exponent > 1:
        raise ConfigError(
            "delta.exponent", f"must be > 1, got {out.exponent!r}"
        )
    return out


def _picard_config(sec: dict) -> PicardConfig:
    _reject_unknown(sec, "picard", ("slices", "n_max", "tol"))
    out = PicardConfig(
        slices=_as_int(sec.get("slices", PicardConfig.slices), "picard.slices"),
        n_max=_as_int(sec.get("n_max", PicardConfig.n_max), "picard.n_max"),
        tol=_positive(
            _as_float(sec.get("tol", PicardConfig.tol), "picard.tol"), "picard.tol"
        ),
    )
    if out.slices < 2 or out.slices % 2:
        raise ConfigError("picard.slices", f"must be even and >= 2, got {out.slices}")
    if out.n_max < 1:
        raise ConfigError("picard.n_max", f"must be >= 1, got {out.n_max}")
    return out


def _output_config(sec: dict) -> OutputConfig:
    _reject_unknown(sec, "output", ("dir", "snapshot_times"))
    dir_raw = sec.get("dir", OutputConfig.dir)
    if dir_raw is not None:
        dir_raw = _as_str(dir_raw, "output.dir")
    times_raw = sec.get("snapshot_times", list(OutputConfig.snapshot_times))
    if not isinstance(times_raw, (list, tuple)):
        raise ConfigError("output.snapshot_times", "expected a list of times")
    times = tuple(
        _nonnegative(
            _as_float(v, f"output.snapshot_times[{i}]"),
            f"output.snapshot_times[{i}]",
        )
        for i, v in enumerate(times_raw)
    )
    return OutputConfig(dir=dir_raw, snapshot_times=times)


def config_from_dict(raw: dict) -> SimConfig:
    raw = _require_mapping(raw, "config")
    _reject_unknown(
        raw,
        "config",
        ("grid", "time", "initial", "gevrey", "delta", "picard", "output", "seed"),
    )
    grid_cfg = _grid_config(_require_mapping(raw.get("grid"), "grid"))
    grid = Grid2D(grid_cfg.nx, grid_cfg.ny, grid_cfg.lx, grid_cfg.ly)
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed", f"must be a non-negative integer, got {seed!r}")
    return SimConfig(
        grid=grid_cfg,
        time=_time_config(_require_mapping(raw.get("time"), "time")),
        initial=_initial_config(_require_mapping(raw.get("initial"), "initial")),
        gevrey=_gevrey_config(_require_mapping(raw.get("gevrey"), "gevrey"), grid),
        delta=_delta_config(_require_mapping(raw.get("delta"), "delta")),
        picard=_picard_config(_require_mapping(raw.get("picard"), "picard")),
        output=_output_config(_require_mapping(raw.get("output"), "output")),
        seed=seed,
    )


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
    return config_from_dict(_require_mapping(raw, "config"))


def config_to_dict(cfg: SimConfig) -> dict:
    """Plain nested dict using the YAML schema; round-trips exactly."""
    out = asdict(cfg)
    out["gevrey"]["ladder"] = list(cfg.gevrey.ladder)
    out["output"]["snapshot_times"] = list(cfg.output.snapshot_times)
    return out
