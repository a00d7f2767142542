"""One benchmark sample, run by run.py in a fresh single-threaded process.

Usage: python3 sample.py SPEC.json

The spec names the kp5 source directory, the YAML configs to load during
set-up, the ``kp5.cli.main`` argument lists to time, whether to trace, and
where to write the result JSON (and, when traced, the spans).  Set-up time
runs from before ``import kp5`` until every config is loaded and its grid
and initial field are built.  Wall and CPU time cover the CLI calls only,
output writing included.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HOST_REF_SHAPE = (128, 128)
HOST_REF_PAIRS = 200


def host_reference() -> float:
    """Seconds for a fixed numpy-only fft2/ifft2 loop: the host-speed floor."""
    import numpy as np  # not at the top: kp5's set-up time includes importing numpy

    a = np.random.default_rng(0).standard_normal(HOST_REF_SHAPE) + 0j
    t0 = time.perf_counter()
    for _ in range(HOST_REF_PAIRS):
        a = np.fft.ifft2(np.fft.fft2(a))
    return time.perf_counter() - t0


def run(spec: dict) -> dict:
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import kp5.cli
    import_s = time.perf_counter() - t0
    if not Path(kp5.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"kp5 was imported from {kp5.__file__}, not from {src}")
    from kp5.config import load_config
    from kp5.integrator import initial_field

    for path in spec["configs"]:
        cfg = load_config(path)
        grid = cfg.make_grid()
        if spec["builds_field"]:
            initial_field(cfg, grid)
    result = {"import_s": import_s, "setup_s": time.perf_counter() - t0}
    if spec["setup_only"]:
        return result

    result["host_ref_s"] = host_reference()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, aggregate  # imports numpy: not before the set-up clock

        tracer = Tracer()
    rcs = []
    with tracer or contextlib.nullcontext():
        c0 = time.process_time()
        w0 = time.perf_counter()
        for argv in spec["calls"]:
            try:
                rcs.append(kp5.cli.main(argv))
            except Exception:
                traceback.print_exc()
                rcs.append(1)
        result["wall_s"] = time.perf_counter() - w0
        result["cpu_s"] = time.process_time() - c0
    result["rc"] = rcs
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(spec["spans"])
        result["layers"] = aggregate(tracer.names, tracer.starts, tracer.ends, tracer.parents)
        result["fft_points"] = tracer.fft_points
        result["fft_bytes"] = tracer.fft_bytes
    return result


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
