"""The benchmark's workloads: the inputs each makes from a seed, the CLI
command it times, and how its outputs are read back and checked.

Why these three: each serves the CLI the way a desk user does, and each puts
a different layer on the critical path.

- ``estimate_large``: one large fit with bands on a simulated compound
  Poisson path of 200k observations. Fitting and bands do nearly all the
  work and set the peak RSS; there is no cross-validation and no simulation
  inside the timed command.
- ``empirical_cv``: a price CSV of 4.8k rows, ingested, turned into the log
  proxy and fitted with a cross-validated bandwidth. The O(n^2 H) CV loop
  dominates.
- ``mc_table2``: the nine-config RMSE table of the Monte Carlo study, with a
  replicate count that lets several invocations fit in one run. Path
  simulation dominates; the rest is many small fits. There is no ingest, no
  CV and no bands.

Inputs come from a panel of PANEL_SIZE entries: a seed selects entry
``seed % PANEL_SIZE`` and that entry's inputs are generated from it through
the public ``lljd`` API. The reference outputs of every entry, made with
``perfbench/make_refs.py``, live in ``perfbench/refs``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lljd.io import write_path_csv
from lljd.mcstudy import example_model
from lljd.simulate import PathConfig, simulate_path

PANEL_SIZE = 16
REFS = Path(__file__).resolve().parent / "refs"

# Outputs must match the reference to this share of each column's largest
# magnitude: rounding-level changes in summation order pass, a changed
# computation does not.
RTOL = 1e-6
# The CLI prints the bandwidth with six significant digits.
H_RTOL = 1e-5

ESTIMATE_SPAN, ESTIMATE_N = 2000.0, 200_000
STANDIN_DAYS, STANDIN_PER_DAY = 100, 48
MC_REPLICATES = 20


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple  # arguments after ``python3 -m lljd``, run in the work dir
    outputs: tuple  # files the command writes, removed before each invocation
    make_inputs: Callable  # (panel entry, work dir) -> list of input files
    extract: Callable  # (work dir, stdout) -> dict of checked outputs
    accuracy: Callable  # outputs or reference -> drift RMSE against the truth

    def command(self, entry: int) -> list:
        return [a.format(entry=entry) for a in self.cli_args]

    def reference(self, entry: int) -> dict:
        return json.loads((REFS / f"{self.name}.json").read_text())[str(entry)]

    def check(self, work: Path, stdout: str, reference: dict) -> tuple:
        """(problems, outputs): no problems when the outputs in ``work`` match
        the reference; outputs is None when they cannot be read."""
        try:
            got = self.extract(work, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"], None
        return mismatches(got, reference), got


def _make_path(entry: int, work: Path) -> list:
    path = simulate_path(
        example_model(1), PathConfig(t_span=ESTIMATE_SPAN, n=ESTIMATE_N, seed=entry)
    )
    out = work / "path.csv"
    write_path_csv(out, path)
    return [out]


def _make_prices(entry: int, work: Path) -> list:
    # as scripts/make_empirical_standin.py builds its stand-in
    model = dataclasses.replace(example_model(2), x0=0.0, y0=math.log(2000.0))
    path = simulate_path(
        model,
        PathConfig(t_span=STANDIN_DAYS, n=STANDIN_DAYS * STANDIN_PER_DAY, seed=entry),
    )
    rows = ["t,close"]
    rows += [f"{i * path.delta!r},{float(p)!r}" for i, p in enumerate(np.exp(path.y))]
    out = work / "prices.csv"
    out.write_text("\n".join(rows) + "\n")
    return [out]


def _curve_outputs(work: Path, stdout: str) -> dict:
    match = re.search(r"\(h=([-+0-9.eE]+)", stdout)
    if match is None:
        raise ValueError("no bandwidth in the command's output")
    with open(work / "curve.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    out = {"h": float(match.group(1))}
    for j, col in enumerate(header):
        out[col] = [float(row[j]) for row in rows]
    return out


def _study_outputs(work: Path, stdout: str) -> dict:
    configs = json.loads((work / "table2.json").read_text())["configs"]
    return {
        "rmse_ll": [c["rmse"]["local_linear"] for c in configs],
        "rmse_nw": [c["rmse"]["nadaraya_watson"] for c in configs],
        "skipped": [c["skipped"] for c in configs],
    }


def _curve_rmse(which: int) -> Callable:
    def rmse(out: dict) -> float:
        x = np.asarray(out["x"], dtype=float)
        mu_hat = np.asarray(out["mu_hat"], dtype=float)
        ok = np.isfinite(mu_hat)
        diff = mu_hat[ok] - example_model(which).mu(x[ok])
        return float(np.sqrt(np.mean(diff * diff)))

    return rmse


def _study_rmse(out: dict) -> float:
    return float(np.mean(out["rmse_ll"]))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="estimate_large",
            cli_args=("estimate", "--in", "path.csv", "--h", "auto",
                      "--bands", "0.05", "--out", "curve.csv"),
            outputs=("curve.csv", "curve.csv.manifest.json"),
            make_inputs=_make_path,
            extract=_curve_outputs,
            accuracy=_curve_rmse(1),
        ),
        Workload(
            name="empirical_cv",
            cli_args=("empirical", "--in", "prices.csv", "--price-col", "close",
                      "--delta", "1/48", "--h", "cv", "--bands", "0.05",
                      "--out", "curve.csv"),
            outputs=("curve.csv", "curve.csv.manifest.json"),
            make_inputs=_make_prices,
            extract=_curve_outputs,
            accuracy=_curve_rmse(2),
        ),
        Workload(
            name="mc_table2",
            cli_args=("mc-study", "--table", "2", "--reps", str(MC_REPLICATES),
                      "--seed", "{entry}", "--out", "table2.json"),
            outputs=("table2.json", "table2.json.manifest.json"),
            make_inputs=lambda entry, work: [],
            extract=_study_outputs,
            accuracy=_study_rmse,
        ),
    )
}


def mismatches(got: dict, ref: dict) -> list:
    """Descriptions of every output that is missing or off the reference;
    empty when the outputs pass. NaN must sit where the reference has it."""
    bad = []
    for key, want in ref.items():
        if key not in got:
            bad.append(f"{key}: missing")
            continue
        want = np.atleast_1d(np.asarray(want, dtype=float))  # None reads as NaN
        have = np.atleast_1d(np.asarray(got[key], dtype=float))
        if have.shape != want.shape:
            bad.append(f"{key}: {have.size} values, reference has {want.size}")
            continue
        nan = np.isnan(want)
        if not np.array_equal(nan, np.isnan(have)):
            bad.append(f"{key}: undefined entries differ from the reference")
            continue
        if nan.all():
            continue
        tol = (H_RTOL if key == "h" else RTOL) * float(np.max(np.abs(want[~nan])))
        dev = float(np.max(np.abs(have[~nan] - want[~nan])))
        if not dev <= tol:
            bad.append(f"{key}: deviates by {dev:.3g} (tolerance {tol:.3g})")
    return bad


def as_reference(outputs: dict) -> dict:
    """Outputs in the stored form: NaN becomes null so the file is strict JSON."""
    return {
        key: [None if math.isnan(v) else v for v in value]
        if isinstance(value, list)
        else value
        for key, value in outputs.items()
    }
