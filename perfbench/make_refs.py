#!/usr/bin/env python3
"""Regenerate the reference outputs the benchmark checks against.

    python3 perfbench/make_refs.py [WORKLOAD ...]

For every panel entry of each workload (all workloads by default) it makes
the inputs, runs the workload's command once and stores the outputs in
``perfbench/refs/<workload>.json``. References record what the code at the
time computes; regenerate them only when a change of results is intended.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import run


def main(names) -> int:
    env = run.prepare()
    import workloads

    run.WORK.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        workload = workloads.WORKLOADS[name]
        refs = {}
        for entry in range(workloads.PANEL_SIZE):
            with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
                work = Path(tmp)
                workload.make_inputs(entry, work)
                argv = [sys.executable, "-m", "lljd", *workload.command(entry)]
                inv = run.invoke(argv, work, env, time.perf_counter() + run.DEADLINE_S)
                if inv.returncode != 0:
                    sys.exit(f"{name} entry {entry}: exit code {inv.returncode}")
                outputs = workload.extract(work, inv.stdout)
            refs[str(entry)] = workloads.as_reference(outputs)
            print(f"{name} entry {entry}: drift rmse {workload.accuracy(outputs):.6g}, "
                  f"{inv.wall_s:.2f} s")
        path = workloads.REFS / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
