#!/usr/bin/env python3
"""Benchmark of the lljd command line.

    python3 perfbench/run.py --workload estimate_large --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``lljd`` from ``src``. It
makes the workload's inputs from the seed (untimed), then for ``--seconds``
runs the workload's CLI command in fresh interpreters, one after another, and
checks every invocation's outputs against the stored reference.

With ``--trace 0`` it reports the end-to-end metrics: medians over the
invocations of wall time, CPU time and peak RSS of the child, the median of
SETUP_REPEATS timed ``import lljd.cli`` runs, the share of invocations that
passed, and ``rmse_ll``: the drift RMSE of the outputs against the true
drift, as a share of the same RMSE of the reference outputs. The absolute
RMSEs go to the record line; they vary with the seed by 10-40%, far more than
any bound allows.

With ``--trace 1`` it alternates untraced and traced invocations (see
``spans.py``) and reports the per-layer metrics, medians over the pairs;
``trace.overhead_s`` is the traced wall time minus the untraced one.

The last line of stdout is the result JSON; the line before it records the
environment, the inputs (rows, sha256) and the sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"

# BLAS and OpenMP threads for this process and every child: one, so that
# runs on a shared two-core machine do not contend with themselves.
THREADS = 1
SETUP_REPEATS = 5
# Children still running this long after start are killed and count as
# failed, so that a run ends within its time limit.
DEADLINE_S = 170.0
POLL_S = 0.002

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
    "rmse_ll": "ratio",
}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str


def prepare() -> dict:
    """Pin the thread counts and put ``src`` first on the import path;
    returns the environment for children."""
    if not (SRC / "lljd" / "cli.py").is_file():
        sys.exit(f"perfbench: no lljd sources under {SRC}; run from a checkout")
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(THREADS)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def invoke(argv, cwd: Path, env: dict, deadline: float) -> Invocation:
    """Run one child to exit and measure it with ``os.wait4``."""
    with open(cwd / "stdout.txt", "w+") as out, open(cwd / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(POLL_S)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=stdout,
    )


def environment() -> dict:
    import numpy
    import scipy

    def blas(lib) -> str:
        info = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "blas_threads": THREADS,
    }


def cpu_ticks():
    """(steal, total) ticks of all CPUs since boot, or None where /proc/stat
    is missing. Steal is time the host ran something else on our CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def describe_input(path: Path) -> dict:
    data = path.read_bytes()
    return {
        "file": path.name,
        "rows": data.count(b"\n") - 1,  # minus the header
        "sha256": hashlib.sha256(data).hexdigest(),
    }


class Runner:
    """Runs and checks one workload's command in a work directory."""

    def __init__(self, workload, entry: int, work: Path, env: dict, deadline: float):
        self.workload = workload
        self.work = work
        self.env = env
        self.deadline = deadline
        self.args = workload.command(entry)
        self.reference = workload.reference(entry)
        self.reference_rmse = workload.accuracy(self.reference)
        self.attempted = 0
        self.failed = 0
        self.rmse = None

    def run(self, prefix) -> Invocation:
        """One invocation of the command behind ``prefix``; its outputs are
        checked and a failure is counted and reported on stderr."""
        for name in self.workload.outputs:
            (self.work / name).unlink(missing_ok=True)
        inv = invoke([*prefix, *self.args], self.work, self.env, self.deadline)
        self.attempted += 1
        if inv.returncode != 0:
            bad = [f"exit code {inv.returncode}"]
        else:
            bad, got = self.workload.check(self.work, inv.stdout, self.reference)
            if got is not None:
                self.rmse = self.workload.accuracy(got)
        if bad:
            self.failed += 1
            print(f"perfbench: {self.workload.name} failed: {'; '.join(bad)}",
                  file=sys.stderr)
        return inv


def measure(runner: Runner, seconds: float) -> tuple:
    python = sys.executable
    setup = [
        invoke([python, "-c", "import lljd.cli"], runner.work, runner.env,
               runner.deadline).wall_s
        for _ in range(SETUP_REPEATS)
    ]
    runs = []
    stop = time.perf_counter() + seconds
    while not runs or time.perf_counter() < stop:
        runs.append(runner.run([python, "-m", "lljd"]))
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": statistics.median(setup),
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    if runner.rmse is not None:
        metrics["rmse_ll"] = runner.rmse / runner.reference_rmse
    samples = {"invocations": len(runs), "setup_imports": len(setup)}
    return metrics, samples


def measure_traced(runner: Runner, seconds: float) -> tuple:
    python = sys.executable
    spans_file = runner.work / "spans.json"
    per_pair = []
    stop = time.perf_counter() + seconds
    while not per_pair or time.perf_counter() < stop:
        plain = runner.run([python, "-m", "lljd"])
        spans_file.unlink(missing_ok=True)
        traced = runner.run([python, str(HERE / "spans.py"), str(spans_file)])
        recorded = json.loads(spans_file.read_text())
        metrics = spans.layer_metrics(recorded)
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
        metrics["trace.uncovered_s"] = traced.wall_s - spans.root_seconds(recorded)
        per_pair.append(metrics)
    metrics = {
        name: statistics.median(m[name] for m in per_pair) for name in spans.PER_LAYER
    }
    return metrics, {"traced_invocations": len(per_pair)}


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = prepare()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    entry = args.seed % workloads.PANEL_SIZE
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        inputs = workload.make_inputs(entry, work)
        runner = Runner(workload, entry, work, env, started + DEADLINE_S)
        ticks = cpu_ticks()
        if args.trace:
            metrics, samples = measure_traced(runner, args.seconds)
            units = spans.PER_LAYER
        else:
            metrics, samples = measure(runner, args.seconds)
            units = END_TO_END
        steal_frac = None
        if ticks is not None:
            steal, total = (b - a for a, b in zip(ticks, cpu_ticks()))
            steal_frac = steal / total if total else 0.0
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "panel_entry": entry,
            "command": ["lljd", *runner.args],
            "inputs": [describe_input(p) for p in inputs],
            "rmse_ll_abs": runner.rmse,
            "rmse_ll_reference": runner.reference_rmse,
            "samples": samples,
            "host_steal_frac": steal_frac,
            "env": environment(),
        }
    print(json.dumps(record))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
