#!/usr/bin/env python3
"""Check the benchmark's stored reference outputs against the current code.

For each workload of perfbench/workloads.py (all by default) and each panel
entry, builds the entry's inputs with that module, runs the workload's CLI
command on them in a fresh interpreter and compares the outputs with
perfbench/refs through the module's own `mismatches`:

    python3 scripts/check_panel_refs.py [WORKLOAD ...] [--entries N]

Prints one row per entry and exits with status 1 when any command fails or
any output is off its reference. A change that moves results at rounding
level should pass; one that changes a computation should not.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no cache files beside the benchmark

import workloads  # noqa: E402


def check_entry(workload, entry: int, env: dict) -> tuple:
    """(seconds of the command, list of problems) for one panel entry."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        workload.make_inputs(entry, work)
        argv = [sys.executable, "-m", "lljd", *workload.command(entry)]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            return seconds, [f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"]
        problems, _ = workload.check(work, proc.stdout, workload.reference(entry))
    return seconds, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("names", nargs="*", metavar="WORKLOAD",
                    help=f"workloads to check (default: {', '.join(workloads.WORKLOADS)})")
    ap.add_argument("--entries", type=int, default=workloads.PANEL_SIZE,
                    help="panel entries to check, 0..N-1")
    args = ap.parse_args()
    unknown = sorted(set(args.names) - set(workloads.WORKLOADS))
    if unknown:
        ap.error(f"unknown workload(s) {', '.join(unknown)}")

    # one BLAS thread, as the benchmark runs its children
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    print("| workload | entry | command s | result |")
    print("| --- | --- | --- | --- |")
    failed = 0
    for name in args.names or workloads.WORKLOADS:
        for entry in range(args.entries):
            seconds, problems = check_entry(workloads.WORKLOADS[name], entry, env)
            failed += bool(problems)
            print(f"| {name} | {entry} | {seconds:.2f} | "
                  f"{'; '.join(problems) or 'matches'} |", flush=True)
    print(f"{failed} mismatching entries")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
