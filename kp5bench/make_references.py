"""Write references.json: output summaries of every workload at DEFAULT_SEED.

    python3 kp5bench/make_references.py

Run it on the commit whose outputs the benchmark should hold later
commits to; the stored file came from the commit that added the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
WORK = BENCH.parent / ".bench_work" / "references"


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    import kp5.cli

    shutil.rmtree(WORK, ignore_errors=True)
    refs = {}
    for name, wl in WORKLOADS.items():
        calls = wl.calls(DEFAULT_SEED, WORK / name / "inputs", WORK / name)
        summaries = []
        for call in calls:
            if kp5.cli.main(call.argv) != 0:
                raise SystemExit(f"{name}: {call.argv} failed")
            summary = wl.summarize(call)
            problem = wl.check(summary, None)
            if problem:
                raise SystemExit(f"{name}: {problem}")
            summaries.append(summary)
        refs[name] = {"seed": DEFAULT_SEED, "calls": summaries}
        print(f"{name}: {len(summaries)} calls")
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
