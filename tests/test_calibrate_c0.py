"""The c0 calibration sweep (scripts/calibrate_c0.py) certifies the shipped
window constant, refuses it when a member's Picard contraction ratio
exceeds the proof's 1/2, and refuses a window too long for A4's gap."""

import importlib.util
from dataclasses import replace
from pathlib import Path

from kp5.config import DEFAULT_C0

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_c0.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("calibrate_c0", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_c0_is_certified(capsys):
    calibrate = _load_script()
    assert calibrate.main(["--candidates", str(DEFAULT_C0)]) == 0
    out = capsys.readouterr().out
    assert f"shipped default c0 = {DEFAULT_C0:g} (certified by this sweep)" in out
    assert "to the contraction bound 0.5" in out


def test_contraction_ratio_above_half_refuses_c0(monkeypatch, capsys):
    calibrate = _load_script()
    iterate = calibrate.picard_from_config

    def slow_contraction(cfg, f):
        result = iterate(cfg, f)
        return replace(result, ratios=(*result.ratios, 0.6))

    monkeypatch.setattr(calibrate, "picard_from_config", slow_contraction)
    assert calibrate.main(["--candidates", str(DEFAULT_C0)]) == 1
    out = capsys.readouterr().out
    assert "contraction > 0.5" in out
    assert "no admissible candidate" in out


def test_gap_above_a4_bound_refuses_c0(capsys):
    """c0 = 0.8 contracts and doubles well, but its worst window-integrator
    gap (1.7201e-11 measured) exceeds A4's bound; the shipped 0.4
    (1.0051e-12) is the largest admissible candidate."""
    calibrate = _load_script()
    assert calibrate.main(["--candidates", "0.4,0.8"]) == 0
    rows = {
        line.split()[0]: line
        for line in capsys.readouterr().out.splitlines() if line
    }
    assert rows["0.4"].endswith("ok")
    assert float(rows["0.4"].split()[3]) < calibrate.WINDOW_GAP_TOL
    assert "gap > 1e-11" in rows["0.8"] and "contraction >" not in rows["0.8"]
    assert float(rows["0.8"].split()[3]) > calibrate.WINDOW_GAP_TOL
    assert rows["largest"] == "largest admissible candidate: 0.4"
