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

Exits with status 1 when a command fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def lljd(*args) -> list:
    return ["-m", "lljd", *args]


# The suite: simulated paths with both jump types, estimates with CV, bands
# and a CV dump, the empirical pipeline on a five-day stand-in, a single MC
# config with its band and QQ extracts, and a preset table. Each entry is the
# argument list of one `python` run.
COMMANDS = [
    lljd("simulate", "--t", "5", "--n", "500", "--seed", "3", "--jump", "cp",
         "--out", "sim_cp.csv"),
    lljd("simulate", "--t", "5", "--n", "500", "--seed", "3", "--jump", "vg",
         "--out", "sim_vg.csv"),
    lljd("estimate", "--in", "sim_cp.csv", "--h", "cv", "--bands", "0.05",
         "--cv-out", "cv.csv", "--out", "curve_cp.csv"),
    lljd("estimate", "--in", "sim_vg.csv", "--bands", "0.05", "--out", "curve_vg.csv"),
    [str(ROOT / "scripts" / "make_empirical_standin.py"),
     "--days", "5", "--seed", "2015", "--out", "prices.csv"],
    lljd("empirical", "--in", "prices.csv", "--price-col", "close", "--bands", "0.05",
         "--proxy-out", "proxy.csv", "--out", "curve_emp.csv"),
    lljd("mc-study", "--example", "1", "--t", "2", "--n", "200", "--reps", "25",
         "--seed", "4", "--grid-n", "21", "--csv-prefix", "mc", "--out", "mc.json"),
    lljd("mc-study", "--table", "2", "--reps", "20", "--seed", "7", "--out", "table2.json"),
]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir", type=Path, help="directory for the artifacts (must be empty)")
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    if any(args.outdir.iterdir()):
        ap.error(f"{args.outdir} is not empty")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    for argv in COMMANDS:
        proc = subprocess.run([sys.executable, *argv], cwd=args.outdir, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"failed ({proc.returncode}): {' '.join(argv)}\n{proc.stderr.strip()}",
                  file=sys.stderr)
            return 1
    for path in sorted(args.outdir.iterdir()):
        if not path.name.endswith(".manifest.json"):
            print(f"{sha256(path)}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
