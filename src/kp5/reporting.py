"""Run artifacts: CSV series and the JSON manifest.

``csv`` writes floats, numpy's too, in their shortest round-trip form and
the manifest has sorted keys, so identical runs produce byte-identical files,
apart from the wall times a manifest reports (``phase_s``).  The manifest
is strict JSON: a non-finite float (a failed fit, an empty tail) is written
as ``null``.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from . import __version__
from .config import SimConfig, config_to_dict


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _finite_or_null(value):
    """The value with every non-finite float inside it replaced by None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_manifest(path, cfg: SimConfig, command: str, extras: dict) -> None:
    payload = {
        "tool": "kp5",
        "version": __version__,
        "numpy_version": np.__version__,
        "command": command,
        "config": config_to_dict(cfg),
        **extras,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            _finite_or_null(payload), fh, indent=2, sort_keys=True, allow_nan=False
        )
        fh.write("\n")
