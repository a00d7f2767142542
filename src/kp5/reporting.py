"""Run artifacts: CSV series and the JSON manifest.

Floats are written with ``repr`` (shortest round-trip form) and the
manifest with sorted keys, so identical runs produce byte-identical files,
apart from the wall times a manifest reports (``phase_s``).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from . import __version__
from .config import DEFAULT_C_EMP, DiagnosticsRecord, SimConfig, config_to_dict


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_series_csv(path, cfg: SimConfig, records: list[DiagnosticsRecord]) -> None:
    header = (
        ["t", "l2"]
        + [f"gevrey_{repr(s)}" for s in cfg.gevrey.ladder]
        + ["sigma_est", "residual", "remainder_l2", "steps"]
    )
    rows = [
        [r.t, r.l2, *r.gevrey, r.sigma_est, r.residual, r.remainder_l2, r.steps]
        for r in records
    ]
    write_csv(path, header, rows)


def write_manifest(path, cfg: SimConfig, command: str, extras: dict) -> None:
    constants = {
        "c0": cfg.delta.c0,
        "delta_exponent": cfg.delta.exponent,
        "c_emp": DEFAULT_C_EMP,
    }
    extras = dict(extras)
    constants.update(extras.pop("constants", {}))
    payload = {
        "tool": "kp5",
        "version": __version__,
        "command": command,
        "config": config_to_dict(cfg),
        "constants": constants,
    }
    payload.update(extras)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
