import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import kp5.acceptance
import kp5.cli
import kp5.integrator
from conftest import window_rule
from kp5.acceptance import AcceptanceSuite, Check, CriterionResult
from kp5.cli import main
from kp5.config import (
    SimConfig,
    config_from_dict,
    config_to_dict,
    load_config,
)
from kp5.diagnostics import GevreyParams, uniqueness_gap
from kp5.errors import ConfigError
from kp5.initial_data import initial_field, rng_from_seed
from kp5.picard import picard_from_config
from kp5.reporting import write_csv, write_manifest
from kp5.spectral import SpectralField, load_snapshot


def write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_empty_config_is_all_defaults(tmp_path):
    p = write(tmp_path, "")
    assert load_config(p) == SimConfig()


def test_unknown_section_rejected(tmp_path):
    p = write(tmp_path, "grids:\n  nx: 32\n")
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert "grids" in str(info.value)


def test_unknown_key_names_section_and_key(tmp_path):
    p = write(tmp_path, "time:\n  horizons: 2.0\n")
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert "time" in str(info.value) and "horizons" in str(info.value)


def test_range_violation_names_field(tmp_path):
    p = write(tmp_path, "grid:\n  nx: 7\n")
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert "grid.nx" in str(info.value)


def test_type_violation_names_field(tmp_path):
    p = write(tmp_path, "time:\n  horizon: fast\n")
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert "time.horizon" in str(info.value)


def test_sigma_over_guard_names_admissible_max(tmp_path):
    p = write(tmp_path, "grid:\n  nx: 32\n  ny: 32\ngevrey:\n  sigma1: 1e6\n")
    with pytest.raises(ConfigError) as info:
        load_config(p)
    msg = str(info.value)
    # 32 modes on a 32*pi box put xi_max at 1, so the guard sits at 650
    assert "sigma1" in msg and "650" in msg


def test_integer_too_large_for_a_float_names_field(tmp_path):
    for key in ("lx", "nx", "ny"):
        p = write(tmp_path, f"grid:\n  {key}: 1" + "0" * 400 + "\n")
        with pytest.raises(ConfigError) as info:
            load_config(p)
        assert info.value.field == f"grid.{key}"
        with pytest.raises(ConfigError) as info:
            config_from_dict({"grid": {key: 10**400}})
        assert info.value.field == f"grid.{key}"


def test_parse_error_carries_line_number(tmp_path):
    p = write(tmp_path, "grid:\n  nx: 32\n   ny: bad indent\n")
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert "line" in str(info.value)


def test_bad_kind_rejected(tmp_path):
    p = write(tmp_path, "initial:\n  kind: vortex\n")
    with pytest.raises(ConfigError):
        load_config(p)


def _single_key(path, value):
    """The raw config that sets one dotted key, e.g. ``time.horizon``."""
    section, _, key = path.partition(".")
    return {section: {key: value}} if key else {section: value}


# (key, value, the field ConfigError must name): one wrong-type and, where
# a range rule exists, one out-of-range value per key
REJECTED = [
    ("grid.nx", 8.0, "grid.nx"),
    ("grid.nx", 6, "grid.nx"),
    ("grid.nx", 9, "grid.nx"),
    ("grid.ny", "128", "grid.ny"),
    ("grid.ny", 7, "grid.ny"),
    ("grid.lx", "wide", "grid.lx"),
    ("grid.lx", 0.0, "grid.lx"),
    ("grid.ly", None, "grid.ly"),
    ("grid.ly", -1, "grid.ly"),
    ("time.cfl", [1.0], "time.cfl"),
    ("time.cfl", 0, "time.cfl"),
    ("time.dt", "fast", "time.dt"),
    ("time.dt", 0.0, "time.dt"),
    ("time.horizon", "fast", "time.horizon"),
    ("time.horizon", -1e-12, "time.horizon"),
    ("time.horizon", "inf", "time.horizon"),
    ("time.samples", 1.5, "time.samples"),
    ("time.samples", 0, "time.samples"),
    ("initial.kind", 3, "initial.kind"),
    ("initial.kind", "vortex", "initial.kind"),
    ("initial.amplitude", "big", "initial.amplitude"),
    ("initial.width", True, "initial.width"),
    ("initial.width", 0, "initial.width"),
    ("initial.decay_x", "x", "initial.decay_x"),
    ("initial.decay_x", -0.1, "initial.decay_x"),
    ("initial.decay_y", {}, "initial.decay_y"),
    ("initial.decay_y", -1, "initial.decay_y"),
    ("initial.ky", 1.0, "initial.ky"),
    ("initial.phases", 0, "initial.phases"),
    ("initial.phases", "sometimes", "initial.phases"),
    ("gevrey.sigma1", "x", "gevrey.sigma1"),
    ("gevrey.sigma1", -0.01, "gevrey.sigma1"),
    ("gevrey.sigma1", "1e6", "gevrey"),  # over the overflow guard
    ("gevrey.sigma2", False, "gevrey.sigma2"),
    ("gevrey.sigma2", -1, "gevrey.sigma2"),
    ("gevrey.ladder", "0.1", "gevrey.ladder"),
    ("gevrey.ladder", [], "gevrey.ladder"),
    ("gevrey.ladder", [0.1, "x"], "gevrey.ladder[1]"),
    ("gevrey.ladder", [0.1, -0.1], "gevrey.ladder[1]"),
    ("delta.c0", "x", "delta.c0"),
    ("delta.c0", 0, "delta.c0"),
    ("delta.exponent", None, "delta.exponent"),
    ("delta.exponent", 1, "delta.exponent"),
    ("picard.slices", 64.0, "picard.slices"),
    ("picard.slices", 0, "picard.slices"),
    ("picard.slices", 3, "picard.slices"),
    ("picard.n_max", "30", "picard.n_max"),
    ("picard.n_max", 0, "picard.n_max"),
    ("picard.tol", "x", "picard.tol"),
    ("picard.tol", 0.0, "picard.tol"),
    ("output.dir", 5, "output.dir"),
    ("output.snapshot_times", 0.5, "output.snapshot_times"),
    ("output.snapshot_times", ["x"], "output.snapshot_times[0]"),
    ("output.snapshot_times", [-1.0], "output.snapshot_times[0]"),
    ("seed", 1.0, "seed"),
    ("seed", True, "seed"),
    ("seed", -1, "seed"),
    ("grid", [32], "grid"),
    ("grids", {}, "config.grids"),
    ("time.horizons", 2.0, "time.horizons"),
    ("seed", 2**128, "seed"),  # past the Philox key range
    ("output.snapshot_times", [1.5], "output.snapshot_times[0]"),  # past the horizon
    ("time.samples", 1, "time.samples"),  # one sample never steps to the horizon
]

# (key, accepted boundary value, parsed value): the parsed type is checked too
ACCEPTED = [
    ("grid.nx", 8, 8),
    ("grid.ny", 8, 8),
    ("grid.lx", 1, 1.0),
    ("grid.ly", "1e2", 100.0),
    ("time.cfl", "1e-6", 1e-6),
    ("time.dt", None, None),
    ("time.dt", 1e-9, 1e-9),
    ("time.horizon", 0, 0.0),
    ("time.samples", 2, 2),
    ("initial.kind", "exp_spectrum", "exp_spectrum"),
    ("initial.amplitude", -2, -2.0),
    ("initial.width", 1e-3, 1e-3),
    ("initial.decay_x", 0, 0.0),
    ("initial.decay_y", 0.0, 0.0),
    ("initial.ky", -3, -3),
    ("initial.phases", "random", "random"),
    ("gevrey.sigma1", 0, 0.0),
    ("gevrey.sigma2", 0.0, 0.0),
    ("gevrey.ladder", [0], (0.0,)),
    ("delta.c0", 1e-12, 1e-12),
    ("delta.exponent", 1.000001, 1.000001),
    ("picard.slices", 2, 2),
    ("picard.n_max", 1, 1),
    ("picard.tol", 1e-300, 1e-300),
    ("output.dir", "out", "out"),
    ("output.dir", None, None),
    ("output.snapshot_times", [], ()),
    ("output.snapshot_times", (0, 0.5), (0.0, 0.5)),
    ("seed", 0, 0),
    ("grid", None, SimConfig().grid),
    ("seed", 2**128 - 1, 2**128 - 1),
    ("output.snapshot_times", [1.0], (1.0,)),  # the default horizon
]


@pytest.mark.parametrize("path, value, field", REJECTED)
def test_config_contract_rejects_and_names_field(path, value, field):
    with pytest.raises(ConfigError) as info:
        config_from_dict(_single_key(path, value))
    assert info.value.field == field


@pytest.mark.parametrize("path, value, parsed", ACCEPTED)
def test_config_contract_accepts_boundary(path, value, parsed):
    cfg = config_from_dict(_single_key(path, value))
    section, _, key = path.partition(".")
    got = getattr(getattr(cfg, section), key) if key else getattr(cfg, section)
    assert got == parsed and type(got) is type(parsed)


def test_config_contract_accepts_one_sample_at_horizon_zero():
    cfg = config_from_dict({"time": {"horizon": 0, "samples": 1}})
    assert (cfg.time.horizon, cfg.time.samples) == (0.0, 1)


def _keys(cfg_dict):
    return {
        f"{s}.{k}" if isinstance(v, dict) else s
        for s, v in cfg_dict.items()
        for k in (v if isinstance(v, dict) else [None])
    }


def test_config_contract_covers_every_key():
    keys = _keys(config_to_dict(SimConfig()))
    assert len(keys) == 26
    assert {p for p, _, f in REJECTED if f == p} >= keys
    assert {p for p, _, _ in ACCEPTED} >= keys


def test_readme_lists_exactly_the_config_keys():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    documented = yaml.safe_load(block)
    expected = config_to_dict(SimConfig())
    assert list(documented) == list(expected)
    assert _keys(documented) == _keys(expected)


def test_dict_round_trip():
    cfg = SimConfig()
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_loaded_config_round_trips(tmp_path):
    p = write(
        tmp_path,
        "grid:\n  nx: 64\n  ny: 32\n"
        "time:\n  horizon: 2.5\n  cfl: 0.8\n"
        "initial:\n  kind: exp_spectrum\n  amplitude: 0.7\n  phases: random\n"
        "gevrey:\n  sigma1: 0.75\n  ladder: [0.01, 0.02]\n"
        "seed: 99\n",
    )
    cfg = load_config(p)
    assert cfg.grid.nx == 64 and cfg.grid.ny == 32
    assert cfg.time.horizon == 2.5
    assert cfg.initial.phases == "random"
    assert cfg.gevrey.ladder == (0.01, 0.02)
    assert cfg.seed == 99
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_rng_streams_reproducible():
    a = rng_from_seed(42).standard_normal(5)
    b = rng_from_seed(42).standard_normal(5)
    c = rng_from_seed(43).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_csv_floats_round_trip(tmp_path):
    values = [0.1, 1 / 3, 1e-17, 1.0000000000000002, -2.5e300, np.float64(0.1)]
    path = tmp_path / "vals.csv"
    write_csv(path, ["v"], [[v] for v in values])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "v"
    for line, v in zip(lines[1:], values):
        assert float(line) == v  # shortest round-trip form is lossless


SMALL_YAML = """\
grid:
  nx: 32
  ny: 32
time:
  horizon: 0.1
  samples: 3
initial:
  kind: gaussian
  amplitude: 0.8
  width: 2.0
gevrey:
  sigma1: 0.25
"""


def test_cli_simulate_and_determinism(tmp_path):
    cfg = write(tmp_path, SMALL_YAML)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    assert m1["tool"] == "kp5"
    assert m1["numpy_version"] == np.__version__
    assert m1["command"] == "simulate"
    assert "constants" not in m1
    assert m1["config"]["delta"] == {"c0": 0.4, "exponent": 2.0}
    assert config_from_dict(m1["config"]).time.horizon == 0.1
    header = (out1 / "series.csv").read_text().splitlines()[0]
    assert header.startswith("t,l2,gevrey_")


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


@pytest.mark.parametrize("dt_line, source", [("", "window"), ("  dt: 0.005\n", "explicit")])
def test_cli_simulate_manifest_telemetry(tmp_path, dt_line, source):
    cfg = write(tmp_path, SMALL_YAML.replace("  samples: 3\n", "  samples: 3\n" + dt_line))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    m = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    rows = (out / "series.csv").read_text().strip().splitlines()[1:]
    assert m["steps"] == int(rows[-1].split(",")[-1])
    l2 = [float(r.split(",")[1]) for r in rows]
    assert m["l2_drift"] == max(abs(x - l2[0]) for x in l2) / l2[0]
    assert m["l2_drift"] < 1e-10
    assert m["dt_source"] == source
    grid_dt, idx, steps, dt_max = window_rule(load_config(cfg), [0.0, 0.05, 0.1])
    assert m["grid_dt"] == grid_dt and idx[-1] * grid_dt == pytest.approx(0.1)
    assert [float(r.split(",")[0]) for r in rows] == [b * grid_dt for b in idx]
    if source == "explicit":
        assert m["dt"] == m["grid_dt"] == 0.005 and m["steps"] == 20
    else:
        assert (m["steps"], m["dt"]) == (steps, pytest.approx(dt_max, rel=1e-15))
        assert m["steps"] < idx[-1] and m["dt"] > grid_dt


def test_cli_radius_decay_manifest_counts_failed_fits(tmp_path):
    cfg = write(
        tmp_path,
        "grid:\n  nx: 64\n  ny: 64\ntime:\n  horizon: 0.1\n"
        "initial:\n  kind: exp_spectrum\n  amplitude: 0.5\n  phases: random\n"
        "gevrey:\n  sigma1: 1.0\n",
    )
    out = tmp_path / "decay"
    assert main(["radius-decay", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    m = json.loads((out / "manifest.json").read_text())
    assert m["fit_failures"] == 0
    assert m["collapse_time"] is None


def test_cli_radius_decay_manifest_c_emp_is_the_tail_minimum(tmp_path):
    """The manifest's c_emp is the run's fitted radius floor: min t * sigma_est
    over the rows of decay.csv past a tenth of the horizon with sigma_est > 0."""
    cfg = write(
        tmp_path,
        "grid:\n  nx: 64\n  ny: 64\ntime:\n  horizon: 0.1\n"
        "initial:\n  kind: exp_spectrum\n  amplitude: 0.5\n  phases: random\n"
        "gevrey:\n  sigma1: 1.0\n",
    )
    out = tmp_path / "decay"
    assert main(["radius-decay", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    m = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    rows = [[float(v) for v in r.split(",")]
            for r in (out / "decay.csv").read_text().strip().splitlines()[1:]]
    tail = [t * sigma for t, sigma, _ in rows if t >= 0.1 / 10.0 and sigma > 0.0]
    assert len(tail) >= 2
    assert m["c_emp"] == min(tail)


@pytest.mark.parametrize("dt_line, source", [("", "window"), ("  dt: 0.004\n", "explicit")])
def test_cli_radius_decay_manifest_telemetry(tmp_path, dt_line, source):
    cfg = write(
        tmp_path,
        "grid:\n  nx: 64\n  ny: 64\ntime:\n  horizon: 0.1\n" + dt_line
        + "initial:\n  kind: exp_spectrum\n  amplitude: 0.5\n  phases: random\n"
        "gevrey:\n  sigma1: 1.0\n",
    )
    out = tmp_path / "decay"
    assert main(["radius-decay", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    m = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    times = [float(r.split(",")[0])
             for r in (out / "decay.csv").read_text().strip().splitlines()[1:]]
    assert len(times) >= 3
    grid_dt, idx, steps, dt_max = window_rule(
        load_config(cfg), np.arange(len(times)) * m["delta"]
    )
    assert m["grid_dt"] == grid_dt and times == [b * grid_dt for b in idx]
    assert m["dt_source"] == source
    if source == "explicit":
        # the run stops at the last sample, short of the horizon
        assert m["dt"] == m["grid_dt"] == 0.004 and m["steps"] == idx[-1] <= 25
    else:
        assert (m["steps"], m["dt"]) == (steps, pytest.approx(dt_max, rel=1e-15))
        assert m["steps"] < idx[-1] and m["dt"] > grid_dt


def test_cli_radius_decay_manifest_is_strict_json(tmp_path):
    # one sample, so the tail fit and c_emp are nan
    cfg = write(
        tmp_path,
        "grid:\n  nx: 64\n  ny: 64\ntime:\n  horizon: 0.01\n"
        "initial:\n  kind: exp_spectrum\n",
    )
    out = tmp_path / "decay"
    assert main(["radius-decay", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    m = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    assert m["tail_p"] is None and m["tail_amp"] is None
    assert m["c_emp"] is None
    assert m["sigma0"] > 0.0


_SAMPLED = {"stepping", "records", "writing"}
_TELEMETRY = {"steps", "dt", "grid_dt", "dt_source"}


@pytest.mark.parametrize("argv, phases, source", [
    pytest.param(argv, phases, source, id=argv[0]) for argv, phases, source in [
        (["simulate"], _SAMPLED, "window"),
        (["picard"], {"run", "writing"}, None),
        (["radius-decay"], _SAMPLED, "window"),
        # every grid point is a sample, so no step is longer than grid_dt
        (["sigma-ladder"], _SAMPLED, "grid"),
        (["uniqueness"], _SAMPLED, "grid"),
        (["bilinear", "--trials", "4"], {"run", "writing"}, None),
    ]
])
def test_cli_run_manifest_is_strict_json_with_phases(tmp_path, argv, phases, source):
    cfg = write(tmp_path, SMALL_YAML)
    out = tmp_path / argv[0]
    assert main([*argv, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    m = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    assert m["command"] == argv[0] and m["status"] == "ok"
    assert "constants" not in m  # c0 and the exponent are config.delta's
    assert set(m["phase_s"]) == phases
    assert all(v >= 0.0 for v in m["phase_s"].values())
    # every sampled run reports the step telemetry, and only those do
    assert (_TELEMETRY <= set(m)) == (phases == _SAMPLED)
    if phases == _SAMPLED:
        assert m["steps"] >= 1 and m["dt"] >= m["grid_dt"] > 0.0
        assert m["dt_source"] == source
        assert (m["dt"] > m["grid_dt"]) == (source == "window")


def test_cli_bilinear_manifest_records_the_trial_grid(tmp_path):
    """The manifest's config grid is the one the trials ran on: --nx x --ny
    over 32 pi x 32 pi, whatever grid the config file names (32^2 here);
    the seed still comes from the config."""
    cfg = write(tmp_path, SMALL_YAML + "seed: 5\n")
    out = tmp_path / "bilinear"
    argv = ["bilinear", "--trials", "2", "--nx", "16", "--ny", "24"]
    assert main([*argv, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    m = json.loads((out / "manifest.json").read_text())
    assert m["config"]["grid"] == {
        "nx": 16, "ny": 24, "lx": 32.0 * math.pi, "ly": 32.0 * math.pi,
    }
    assert m["config"]["seed"] == 5
    assert "nx" not in m and "ny" not in m  # the config grid is their one home


def test_manifest_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "manifest.json"
    extras = {"sigma0": float("nan"), "nested": {"v": [1.5, float("-inf")]}}
    write_manifest(path, SimConfig(), "radius-decay", extras)
    m = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert m["sigma0"] is None
    assert m["nested"] == {"v": [1.5, None]}


def test_cli_snapshots_load(tmp_path):
    cfg = write(tmp_path, SMALL_YAML + "output:\n  snapshot_times: [0.05]\n")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    snaps = sorted((out / "snapshots").glob("*.kp5s"))
    assert len(snaps) == 1
    field = load_snapshot(snaps[0])
    assert field.grid.nx == 32
    assert field.band.shape == (21, 11)
    # the v2 payload is the 2/3 band, (2*(nx//3) + 1) x (ny//3 + 1) modes
    nx, ny = field.grid.nx, field.grid.ny
    assert snaps[0].stat().st_size == 32 + 16 * (2 * (nx // 3) + 1) * (ny // 3 + 1)


def test_cli_simulate_zero_horizon_one_row(tmp_path):
    cfg = write(
        tmp_path,
        "grid:\n  nx: 32\n  ny: 32\ntime:\n  horizon: 0.0\n",
    )
    out = tmp_path / "frozen"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rows = (out / "series.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header plus the t = 0 diagnostics
    assert rows[1].startswith("0.0,")


def test_cli_config_error_exit_code(tmp_path):
    bad = write(tmp_path, "grid:\n  nx: 7\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2


def test_cli_seed_beyond_the_philox_key_range_is_a_config_error(tmp_path, capsys):
    cfg = write(tmp_path, f"seed: {2**130}\n")
    out = tmp_path / "x"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: seed: ")
    assert not out.exists()


def test_cli_one_sample_past_t0_is_a_config_error(tmp_path, capsys):
    # one sample would write the row at t = 0 and never step
    cfg = write(tmp_path, "grid:\n  nx: 32\n  ny: 32\ntime:\n  horizon: 0.1\n  samples: 1\n")
    out = tmp_path / "x"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: time.samples: ")
    assert not out.exists()


def test_cli_overflowing_initial_data_is_a_config_error(tmp_path, capsys):
    # amplitude / peak overflows to inf, and inf * 0 at the edges to nan
    cfg = write(
        tmp_path,
        "grid:\n  nx: 32\n  ny: 32\n"
        "initial:\n  kind: gaussian_dx\n  amplitude: 1.0e+308\n  width: 0.5\n",
    )
    out = tmp_path / "x"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: initial.amplitude")
    assert not out.exists()


def test_cli_sigma_ladder_manifest_counts_failed_fits(tmp_path):
    # the contraction window underflows below one step, so every D is 0
    # and no rate is left for the slope fit
    cfg = write(
        tmp_path,
        "grid:\n  nx: 32\n  ny: 32\ntime:\n  horizon: 0.1\n"
        "initial:\n  kind: gaussian\n  amplitude: 1.0e+100\n  width: 2.0\n",
    )
    out = tmp_path / "ladder"
    assert main(["sigma-ladder", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    m = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    assert m["fit_failures"] == 4 and m["slope"] is None
    rows = (out / "ladder.csv").read_text().strip().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == [0.0] * 4


@pytest.mark.parametrize("command, table, header", [
    pytest.param(*case, id=case[0]) for case in [
        ("simulate", "series.csv", "t,l2,gevrey_"),
        # radius-decay samples every grid point here: delta << grid_dt
        ("radius-decay", "decay.csv", "t,sigma_est,residual"),
        ("uniqueness", "uniqueness.csv", "t,gap,bound"),
    ]
])
def test_cli_blow_up_exit_code_and_partial_output(tmp_path, command, table, header):
    cfg = write(
        tmp_path,
        "grid:\n  nx: 32\n  ny: 32\n"
        "time:\n  horizon: 0.1\n  samples: 2\n"
        "initial:\n  kind: gaussian\n  amplitude: 1e100\n  width: 2.0\n",
    )
    out = tmp_path / "boom"
    with np.errstate(all="ignore"):
        code = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 3
    lines = (out / table).read_text().strip().splitlines()
    assert lines[0].startswith(header)
    assert len(lines) == 2 and lines[1].startswith("0.0,")  # the t = 0 row
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "blow-up"
    assert manifest["command"] == command


def test_cli_sigma_ladder_blow_up_writes_ladder_rows(tmp_path, monkeypatch):
    """A sigma-ladder run that runs away still writes one sigma,D,slope row
    per rate, its increments up to the blow-up, not its samples."""
    real = kp5.integrator.step

    def tenfold(field, dt, t=0.0):
        return SpectralField(field.grid, 10.0 * real(field, dt, t).band)

    monkeypatch.setattr(kp5.integrator, "step", tenfold)
    cfg = write(
        tmp_path,
        "grid:\n  nx: 32\n  ny: 32\n"
        "initial:\n  kind: gaussian\n  amplitude: 1.0e-6\n  width: 2.0\n",
    )
    out = tmp_path / "ladder"
    assert main(["sigma-ladder", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "blow-up" and manifest["aborted_at"] > 0.0
    lines = (out / "ladder.csv").read_text().strip().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert lines[0] == "sigma,D,slope"
    assert [r[0] for r in rows] == list(load_config(cfg).gevrey.ladder)
    # the energy grew a hundredfold a step until the runaway stop, more
    # at the larger rates, and one slope is fitted on all of them
    assert all(len(r) == 3 for r in rows) and len({r[2] for r in rows}) == 1
    increments = [r[1] for r in rows]
    assert increments == sorted(increments) and increments[0] > 1e3


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=" ".join(argv)) for argv in [
        ["uniqueness", "--eps", "0"],
        ["uniqueness", "--eps", "-1"],
        ["uniqueness", "--eps", "nan"],
        ["bilinear", "--trials", "0"],
        ["bilinear", "--nx", "7"],
        # --seed meets the config's seed rule, a Philox key in [0, 2**128)
        *(["simulate", "--seed", seed] for seed in ("-1", str(2**128))),
        *(["bilinear", "--seed", seed, "--trials", "1", "--nx", "8", "--ny", "8"]
          for seed in ("-1", str(2**128))),
        # an order outside the bilinear estimate's admissible region
        *(["bilinear", flag, value, "--trials", "1", "--nx", "8", "--ny", "8"]
          for flag, value in (("--b", "0.4"), ("--s1", "-2"), ("--eps", "0.5"),
                              ("--beta", "0.6"))),
    ]
])
def test_cli_bad_flag_is_a_config_error(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {argv[1]}: ")
    assert not out.exists()


def test_bilinear_orders_are_its_flags():
    """Each field of ``GevreyParams`` is an order flag of ``kp5 bilinear``
    and each order flag a field, so no order is left that no run can set."""
    flags = [flag[2:] for flag, *_ in kp5.cli._COMMANDS["bilinear"].flags]
    orders = [f.name for f in fields(GevreyParams)]
    assert orders == ["s1", "s2", "b", "beta", "eps"]
    assert [f for f in flags if f not in ("trials", "nx", "ny")] == orders


@pytest.mark.parametrize("ratio", [1.0, 2.5, math.nan])
def test_manifest_verdicts_are_their_criterion_checks(tmp_path, monkeypatch, ratio):
    """``doubling_passed`` is A3's check and ``passed`` is A9's, on the same
    result: a ratio past the bound fails both, and so does a nan one."""
    cfg = write(tmp_path, SMALL_YAML)
    sim = load_config(cfg)
    picard = picard_from_config(sim, initial_field(sim))
    # doubling ratio = last sup norm / data norm
    picard = replace(
        picard, sup_norms=(*picard.sup_norms[:-1], ratio * picard.data_norm)
    )
    gap = replace(uniqueness_gap(sim, 1e-6), max_ratio=ratio)
    monkeypatch.setattr(kp5.cli, "picard_from_config", lambda cfg, f: picard)
    monkeypatch.setattr(kp5.cli, "uniqueness_gap", lambda cfg, eps: gap)
    monkeypatch.setattr(kp5.acceptance, "uniqueness_gap", lambda cfg, eps: gap)
    monkeypatch.setattr(
        AcceptanceSuite, "picard_suite", lambda self: [("member", None, picard)]
    )
    verdicts = {}
    for command, key in (("picard", "doubling_passed"), ("uniqueness", "passed")):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        verdicts[command] = json.loads((out / "manifest.json").read_text())[key]
    suite = AcceptanceSuite()
    assert verdicts["picard"] is suite.a3().checks[0].passed is (ratio == 1.0)
    assert verdicts["uniqueness"] is suite.a9().checks[0].passed is (ratio == 1.0)


@pytest.mark.parametrize("command", ["simulate", "picard", "sigma-ladder", "radius-decay"])
def test_cli_no_window_is_a_blow_up(tmp_path, capsys, command):
    # c0 / (1 + ||f||)^2 is below the smallest double: no contraction window
    cfg = write(
        tmp_path,
        "grid:\n  nx: 32\n  ny: 32\n"
        "initial:\n  kind: gaussian\n  amplitude: 1.0e+200\n  width: 2.0\n",
    )
    out = tmp_path / "none"
    with np.errstate(all="ignore"):
        code = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["blow-up: initial data leave no contraction window"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "blow-up" and manifest["aborted_at"] == 0.0
    assert manifest["command"] == command


def test_cli_picard(tmp_path):
    cfg = write(tmp_path, SMALL_YAML)
    out = tmp_path / "pic"
    assert main(["picard", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rows = (out / "picard.csv").read_text().strip().splitlines()
    assert rows[0] == "n,distance,ratio,sup_norm"
    assert len(rows) > 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is True
    assert manifest["doubling_ratio"] <= 2.0


def test_cli_picard_manifest_is_strict_json_with_history_and_phases(tmp_path):
    cfg = write(tmp_path, SMALL_YAML)
    out = tmp_path / "pic"
    assert main(["picard", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0

    def reject(name):
        raise ValueError(f"non-finite constant {name} in the manifest")

    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
    rows = [r.split(",") for r in (out / "picard.csv").read_text().split()[1:]]
    assert manifest["distances"] == [float(r[1]) for r in rows]
    assert len(manifest["distances"]) == manifest["iterations"]
    # the CSV writes the missing first ratio as nan; the manifest has none
    assert manifest["ratios"] == [float(r[2]) for r in rows[1:]]


def test_cli_accept_subset():
    assert main(["accept", "--only", "A8,A11"]) == 0


def test_cli_accept_reports_a_raising_criterion_and_runs_the_rest(capsys, monkeypatch):
    """A criterion that raises prints an ERROR line with the exception, the
    other eleven print theirs, each as its criterion finishes (a criterion
    finds the line of the one before it already printed), and the command
    exits 1."""
    printed = []

    def stub(cid):
        def criterion(self):
            printed.append(capsys.readouterr().out)
            if cid == "A5":
                raise RuntimeError("planted failure")
            return CriterionResult(cid, "stub", (Check("value", 1.0, "<=", 1.0),))
        return criterion

    for cid in AcceptanceSuite.ORDER:
        monkeypatch.setattr(AcceptanceSuite, cid.lower(), stub(cid))
    assert main(["accept"]) == 1
    printed.append(capsys.readouterr().out)
    lines = [text.rstrip("\n") for text in printed[1:]]
    want = [f"{cid} PASS" for cid in AcceptanceSuite.ORDER]
    want[4] = "A5 ERROR RuntimeError: planted failure"
    assert printed[0] == ""
    assert [line[: len(w)] for line, w in zip(lines, want)] == want
    assert sum(line.endswith("stub: value 1 (<= 1)") for line in lines) == 11


def test_cli_accept_rejects_unknown_id(capsys, monkeypatch):
    # every id is checked before any criterion runs
    monkeypatch.setattr(AcceptanceSuite, "a1", lambda self: pytest.fail("A1 ran"))
    assert main(["accept", "--only", "A1,A99"]) == 2
    assert "A99" in capsys.readouterr().err
