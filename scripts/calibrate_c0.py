#!/usr/bin/env python3
"""Sweep the contraction-window constant and freeze a safe default.

For each candidate c0 the six-member data suite is run through the fixed
point iteration on the window delta = c0 / (1 + norm)^2, recording the
worst sup-window norm ratio. A candidate is admissible when every member
converges and the worst ratio clears the doubling bound with at least 10%
headroom (ratio <= 1.8). The shipped default should be the largest
round-number candidate that is admissible here; anything tighter wastes
window, anything looser eats the safety margin.

Usage: python3 scripts/calibrate_c0.py [--candidates 0.2,0.4,0.8,1.6]
"""

import argparse
import sys
from dataclasses import replace

from kp5.acceptance import SUITE_MEMBERS, SUITE_SIGMA1, suite_cfg
from kp5.config import DEFAULT_C0, DeltaConfig
from kp5.errors import PicardDivergenceError
from kp5.integrator import initial_field
from kp5.picard import doubling_check, picard_from_config

HEADROOM_RATIO = 1.8  # doubling bound 2.0 minus 10% margin


def sweep_candidate(c0: float):
    worst_name, worst_ratio = "", 0.0
    for name, init in SUITE_MEMBERS:
        cfg = suite_cfg(init)
        cfg = replace(cfg, delta=DeltaConfig(c0=c0, exponent=cfg.delta.exponent))
        f = initial_field(cfg)
        try:
            _, _, result = picard_from_config(cfg, f)
        except PicardDivergenceError:
            return None, name
        if not result.converged:
            return None, name
        check = doubling_check(f, result.window, SUITE_SIGMA1, 0.0)
        if check.ratio > worst_ratio:
            worst_name, worst_ratio = name, check.ratio
    return worst_ratio, worst_name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--candidates",
        default="0.1,0.2,0.4,0.8,1.6,3.2",
        help="comma-separated c0 values to sweep",
    )
    args = parser.parse_args(argv)
    candidates = [float(tok) for tok in args.candidates.split(",")]

    print(f"{'c0':>6}  {'worst ratio':>12}  note")
    admissible = []
    for c0 in candidates:
        ratio, name = sweep_candidate(c0)
        if ratio is None:
            print(f"{c0:>6g}  {'-':>12}  diverged on {name}")
            continue
        ok = ratio <= HEADROOM_RATIO
        tag = "ok" if ok else f"ratio > {HEADROOM_RATIO} (worst: {name})"
        print(f"{c0:>6g}  {ratio:>12.6f}  {tag}")
        if ok:
            admissible.append(c0)

    if not admissible:
        print("no admissible candidate; the default cannot be certified")
        return 1
    print(f"\nlargest admissible candidate: {max(admissible):g}")
    print(f"shipped default c0 = {DEFAULT_C0:g}", end=" ")
    if DEFAULT_C0 in admissible:
        print("(certified by this sweep)")
        return 0
    print("(NOT certified by this sweep)")
    return 1


if __name__ == "__main__":
    sys.exit(main())
