#!/usr/bin/env python3
"""Sweep the contraction-window constant and freeze a safe default.

For each candidate c0 the six-member data suite is run through the fixed
point iteration on the window delta = c0 / (1 + norm)^2, recording three
worst cases over the suite: the sup-window norm ratio, the Picard
contraction ratio (the largest ratio of successive update distances, the
proof's contraction constant) and A4's gap between the window and the
integrator (``acceptance.window_gap``).  A candidate is admissible when
every member converges, the worst norm ratio clears the doubling bound with
at least 10% headroom (ratio <= 1.8), the worst contraction ratio is at most
1/2 and the worst gap meets A4's bound.  Contraction holds far beyond the
shipped window, so the gap is what binds c0.  The shipped default should be
the largest round-number candidate that is admissible here; anything
tighter wastes window, anything looser eats the safety margin.

Usage: python3 scripts/calibrate_c0.py [--candidates 0.2,0.4,0.8,1.6]
"""

import argparse
import sys
from dataclasses import replace

from kp5.acceptance import SUITE_MEMBERS, WINDOW_GAP_TOL, suite_cfg, window_gap
from kp5.config import DEFAULT_C0, DeltaConfig
from kp5.errors import PicardDivergenceError
from kp5.integrator import initial_field
from kp5.picard import picard_from_config

# the largest admissible worst case of each kind
BOUNDS = {
    "doubling": 1.8,  # doubling bound 2.0 minus 10% margin
    "contraction": 0.5,  # each Picard update at most half the last one
    "gap": WINDOW_GAP_TOL,  # A4's bound on the window-integrator gap
}


def sweep_candidate(c0: float) -> tuple[dict[str, tuple[float, str]], str]:
    """The worst cases over the suite at c0, {kind: (value, member)}, and
    the name of the first member that diverges or does not converge ("" when
    every member converges; the sweep stops there)."""
    worst = {kind: (0.0, "") for kind in BOUNDS}
    for name, init in SUITE_MEMBERS:
        cfg = suite_cfg(init)
        cfg = replace(cfg, delta=DeltaConfig(c0=c0, exponent=cfg.delta.exponent))
        f = initial_field(cfg)
        try:
            result = picard_from_config(cfg, f)
        except PicardDivergenceError:
            return worst, name
        if not result.converged:
            return worst, name
        values = {
            "doubling": result.doubling_ratio,
            "contraction": max(result.ratios, default=0.0),
            "gap": window_gap(f, result),
        }
        for kind, value in values.items():
            worst[kind] = max(worst[kind], (value, name), key=lambda w: w[0])
    return worst, ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--candidates",
        default="0.1,0.2,0.4,0.8,1.6,3.2",
        help="comma-separated c0 values to sweep",
    )
    args = parser.parse_args(argv)
    candidates = [float(tok) for tok in args.candidates.split(",")]

    print(f"{'c0':>6}  {'worst doubling':>14}  {'worst contraction':>17}  "
          f"{'worst gap':>10}  note")
    admissible, swept = [], {}
    for c0 in candidates:
        worst, failed = sweep_candidate(c0)
        if failed:
            print(f"{c0:>6g}  {'-':>14}  {'-':>17}  {'-':>10}  diverged on {failed}")
            continue
        swept[c0] = worst
        over = [
            f"{kind} > {BOUNDS[kind]:g} (worst: {name})"
            for kind, (value, name) in worst.items()
            if not value <= BOUNDS[kind]
        ]
        print(f"{c0:>6g}  {worst['doubling'][0]:>14.6f}  "
              f"{worst['contraction'][0]:>17.6f}  {worst['gap'][0]:>10.4e}  "
              f"{'; '.join(over) or 'ok'}")
        if not over:
            admissible.append(c0)

    if not admissible:
        print("no admissible candidate; the default cannot be certified")
        return 1
    print(f"\nlargest admissible candidate: {max(admissible):g}")
    if DEFAULT_C0 in swept:
        margins = ", ".join(
            f"{BOUNDS[kind] - value:.6g} to the {kind} bound {BOUNDS[kind]:g}"
            for kind, (value, _) in swept[DEFAULT_C0].items()
        )
        print(f"shipped default margin: {margins}")
    print(f"shipped default c0 = {DEFAULT_C0:g}", end=" ")
    if DEFAULT_C0 in admissible:
        print("(certified by this sweep)")
        return 0
    print("(NOT certified by this sweep)")
    return 1


if __name__ == "__main__":
    sys.exit(main())
