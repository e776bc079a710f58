#!/usr/bin/env python3
"""Run the byte-identity suite and print the sha256 of every data artifact.

Runs a fixed set of CLI commands through ``python -m lljd`` with this
checkout's ``src`` on the path, in OUTDIR (created, and required to be
empty), then prints one ``sha256  name`` line per data artifact, sorted by
name. Manifests carry timestamps and run times, so they are left out:

    python3 scripts/check_artifacts.py OUTDIR

Comparing two commits is a diff of two runs, one from each checkout:

    diff <(python3 a/scripts/check_artifacts.py /tmp/a) \\
         <(python3 b/scripts/check_artifacts.py /tmp/b)

With --against OTHER_DIR, the artifacts of an earlier run (of another
checkout, say) are compared as well: for each CSV whose sha256 differs, one
more line gives the largest deviation of each column as a share of that
column's largest magnitude in OTHER_DIR, and whether NaN sits in the same
places. Other differing or missing files are named:

    python3 scripts/check_artifacts.py /tmp/b --against /tmp/a

Each command's child peak RSS, the ``ru_maxrss`` that ``os.wait4`` reports
for it in MiB, goes to stderr, one ``peak_rss_mb`` line per command. So a
byte-identity run also shows what each command took in memory, while a
``diff`` of two runs' stdout still compares only hashes. A child inherits
this script's high-water mark across the exec (about 27 MiB with numpy
loaded), which is the floor of these figures. Exits with status 1 when a
command fails.
"""

import argparse
import csv
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def lljd(*args) -> list:
    return ["-m", "lljd", *args]


# The suite: simulated paths with both jump types, one of them long enough
# (52,010 steps) to carry x and y across two blocks of one lane, estimates
# with CV, bands and a CV dump at both index alignments and with the
# Epanechnikov kernel (its exact fit and pilot, and binned CV's windowed
# exact fallback), fits with bands of 70,000 terms at both alignments, the
# curve fits large enough to take binned sums (`BINNED_MIN_TERMS`), one of
# them with bands on a grid past the data (binned sums rescored exactly at
# some grid points, undefined tails of the curve and both bands), the
# empirical pipeline on a five-day stand-in, a single MC config with its
# band and QQ extracts, and three preset tables, whose lanes take compound
# Poisson (tables 2 and 3) and Variance Gamma (table 6) jumps. The lanes of
# a replicate share its seed; table 3's 25 replicates take two lane
# batches. Each entry is the argument list of one `python` run.
COMMANDS = [
    lljd("simulate", "--t", "5", "--n", "500", "--seed", "3", "--jump", "cp",
         "--out", "sim_cp.csv"),
    lljd("simulate", "--t", "5", "--n", "500", "--seed", "3", "--jump", "vg",
         "--out", "sim_vg.csv"),
    lljd("simulate", "--t", "50", "--n", "5000", "--seed", "3", "--jump", "cp",
         "--out", "sim_long.csv"),
    lljd("simulate", "--t", "700", "--n", "70000", "--seed", "3", "--jump", "cp",
         "--out", "sim_big.csv"),
    lljd("estimate", "--in", "sim_cp.csv", "--h", "cv", "--bands", "0.05",
         "--cv-out", "cv.csv", "--out", "curve_cp.csv"),
    lljd("estimate", "--in", "sim_cp.csv", "--alignment", "as_written", "--h", "cv",
         "--cv-out", "cv_aw.csv", "--out", "curve_aw.csv"),
    lljd("estimate", "--in", "sim_cp.csv", "--kernel", "epanechnikov", "--h", "cv",
         "--bands", "0.05", "--cv-out", "cv_epa.csv", "--out", "curve_epa.csv"),
    lljd("estimate", "--in", "sim_vg.csv", "--bands", "0.05", "--out", "curve_vg.csv"),
    lljd("estimate", "--in", "sim_big.csv", "--bands", "0.05", "--out", "curve_big.csv"),
    lljd("estimate", "--in", "sim_big.csv", "--alignment", "as_written", "--bands", "0.05",
         "--out", "curve_big_aw.csv"),
    lljd("estimate", "--in", "sim_big.csv", "--grid-lo", "-0.5", "--grid-hi", "0.5",
         "--bands", "0.05", "--out", "curve_wide.csv"),
    [str(ROOT / "scripts" / "make_empirical_standin.py"),
     "--days", "5", "--seed", "2015", "--out", "prices.csv"],
    lljd("empirical", "--in", "prices.csv", "--price-col", "close", "--bands", "0.05",
         "--proxy-out", "proxy.csv", "--out", "curve_emp.csv"),
    lljd("mc-study", "--example", "1", "--t", "2", "--n", "200", "--reps", "25",
         "--seed", "4", "--grid-n", "21", "--csv-prefix", "mc", "--out", "mc.json"),
    lljd("mc-study", "--table", "2", "--reps", "20", "--seed", "7", "--out", "table2.json"),
    lljd("mc-study", "--table", "3", "--reps", "25", "--seed", "7", "--out", "table3.json"),
    lljd("mc-study", "--table", "6", "--reps", "10", "--seed", "7", "--out", "table6.json"),
]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> dict:
    """The columns of a CSV, by header name, as float arrays."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: np.array(col, dtype=float) for name, col in zip(header, zip(*rows))}


def deviation(path: Path, other: Path) -> str:
    """How the CSV `path` deviates from `other`, column by column."""
    got, want = read_csv(path), read_csv(other)
    if list(got) != list(want) or any(got[k].shape != want[k].shape for k in want):
        return f"{path.name}: columns or rows differ from {other}"
    devs, nan_differs = [], []
    for name, col in want.items():
        nan = np.isnan(col)
        if not np.array_equal(nan, np.isnan(got[name])):
            nan_differs.append(name)
        scale = np.max(np.abs(col[~nan]), initial=0.0)
        dev = np.max(np.abs(got[name][~nan] - col[~nan]), initial=0.0)
        devs.append(f"{name} {dev / scale if scale > 0 else dev:.2g}")
    nan_note = f"NaN places differ in {', '.join(nan_differs)}" if nan_differs else (
        "NaN places match")
    return f"{path.name}: {', '.join(devs)}; {nan_note}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir", type=Path, help="directory for the artifacts (must be empty)")
    ap.add_argument("--against", type=Path, metavar="OTHER_DIR",
                    help="compare each differing artifact with its namesake in OTHER_DIR")
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    if any(args.outdir.iterdir()):
        ap.error(f"{args.outdir} is not empty")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    for argv in COMMANDS:
        with tempfile.TemporaryFile("w+") as err:
            proc = subprocess.Popen([sys.executable, *argv], cwd=args.outdir, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                err.seek(0)
                print(f"failed ({proc.returncode}): {' '.join(argv)}\n{err.read().strip()}",
                      file=sys.stderr)
                return 1
        print(f"peak_rss_mb {usage.ru_maxrss / 1024:.1f}  {' '.join(argv)}", file=sys.stderr)
    artifacts = [path for path in sorted(args.outdir.iterdir())
                 if not path.name.endswith(".manifest.json")]
    for path in artifacts:
        print(f"{sha256(path)}  {path.name}")
    if args.against is not None:
        for path in artifacts:
            other = args.against / path.name
            if not other.exists():
                print(f"{path.name}: missing in {args.against}")
            elif sha256(other) == sha256(path):
                continue
            elif path.suffix == ".csv":
                print(deviation(path, other))
            else:
                print(f"{path.name}: differs from {other}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
