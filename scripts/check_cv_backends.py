#!/usr/bin/env python3
"""Compare the binned and exact kernel sums: of cross-validation on price
stand-ins, and of the curve fit with bands on the benchmark's large paths.

Builds each stand-in with scripts/make_empirical_standin.py (the
mean-reverting benchmark model with Variance Gamma jumps at step 1/48, one
seed per stand-in), takes its log-price proxy as `lljd empirical` does, and
cross-validates the default grid around the rule of thumb twice, for each
kernel (Gaussian, Epanechnikov) and method (local linear, Nadaraya-Watson):
as `cross_validate` chooses its sums, and with exact sums at every h, its
oracle (`lljd.estimators.CV_BINS_PER_H` set to infinity). Prints one row per
kernel and method: on how many stand-ins the chosen h and the degenerate
counts agree, the largest relative difference of the CV values, the (h,
term) pairs binned CV rescored exactly, the seconds of the oracle and of
binned CV over all stand-ins, and the seeds of any stand-in that failed:

    python scripts/check_cv_backends.py --days 100 --seeds 16

--alignment (aligned by default, or as_written) sets the index alignment of
every CV and fit below.

Then, for each of the first --entries inputs of the `estimate_large`
benchmark workload (200k-observation paths, built by perfbench/workloads.py),
fits the curves with bands as `lljd estimate --h auto --bands 0.05` does,
once with the binned sums the fit takes at that size and once with the exact
engine at every grid point. Prints one row per path: the bin counts of the
curve and the pilot pass, the grid points rescored exactly, the largest
deviation of each output column as a share of that column's largest
magnitude, and whether NaN sits in the same places.

Exits with status 1 when, for any pair, a stand-in's chosen h or degenerate
counts differ, or a CV value is off by more than --rtol relative; or when a
fit column is off by more than --fit-rtol or its NaN places differ.
"""

import argparse
import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no cache files beside the benchmark

import workloads  # noqa: E402
from lljd import estimators  # noqa: E402
from lljd.bandwidth import cross_validate, default_cv_grid, rule_of_thumb  # noqa: E402
from lljd.estimators import (  # noqa: E402
    ALIGNMENTS,
    LOCAL_LINEAR,
    NADARAYA_WATSON,
    EstimatorConfig,
    default_grid,
    estimate_curve,
)
from lljd.inference import attach_bands  # noqa: E402
from lljd.io import read_columns_csv  # noqa: E402
from lljd.kernels import EPANECHNIKOV, GAUSSIAN  # noqa: E402
from lljd.proxy import build_log_proxy, build_proxy  # noqa: E402
from make_empirical_standin import standin_path  # noqa: E402

FIT_COLUMNS = ("mu_hat", "m_hat", "n_eff", "lo_mu", "hi_mu", "lo_m", "hi_m")


def standin_proxy(days: float, per_day: int, seed: int):
    path = standin_path(days, per_day, seed)
    return build_log_proxy(np.exp(path.y), 1.0 / per_day)


def timed_cv(series, grid, cfg, exact: bool):
    """cross_validate, with exact sums at every h when `exact`, and its seconds."""
    saved = estimators.CV_BINS_PER_H
    if exact:
        estimators.CV_BINS_PER_H = math.inf
    start = time.perf_counter()
    try:
        choice = cross_validate(series, grid, cfg)
    finally:
        estimators.CV_BINS_PER_H = saved
    return choice, time.perf_counter() - start


def compare(proxies, cfg, rtol):
    """The summary row of one kernel and method over every stand-in."""
    same_h = same_degen = fallbacks = 0
    worst, exact_s, binned_s, failed = 0.0, 0.0, 0.0, []
    for seed, series in enumerate(proxies):
        grid = default_cv_grid(rule_of_thumb(series).h)
        exact, seconds = timed_cv(series, grid, cfg, True)
        exact_s += seconds
        binned, seconds = timed_cv(series, grid, cfg, False)
        binned_s += seconds
        want = np.array([c for _, c in exact.cv_curve])
        got = np.array([c for _, c in binned.cv_curve])
        ok = np.isfinite(want)
        rel = float(np.max(np.abs(got[ok] - want[ok]) / want[ok]))
        worst = max(worst, rel)
        same_h += exact.h == binned.h
        same_degen += exact.cv_degenerate == binned.cv_degenerate
        fallbacks += binned.cv_exact_terms
        if (exact.h != binned.h or exact.cv_degenerate != binned.cv_degenerate
                or not rel <= rtol or not np.array_equal(ok, np.isfinite(got))):
            failed.append(seed)
    n = len(proxies)
    row = (f"| {cfg.kernel.id} | {cfg.method} | {same_h}/{n} | {same_degen}/{n} "
           f"| {worst:.2e} | {fallbacks} | {exact_s:.1f} | {binned_s:.2f} "
           f"| {', '.join(map(str, failed)) or '-'} |")
    return row, not failed


def large_path_proxy(entry: int):
    """The proxy series `lljd estimate` fits on an `estimate_large` input."""
    with tempfile.TemporaryDirectory() as tmp:
        (path,) = workloads.WORKLOADS["estimate_large"].make_inputs(entry, Path(tmp))
        cols = read_columns_csv(path, ["t", "y"])
    return build_proxy(cols["y"], float(np.diff(cols["t"]).mean()))


def fit_with_bands(series, binned: bool, alignment: str):
    """The output columns of `lljd estimate --h auto --bands 0.05`, and the
    estimate; binned=False takes exact sums at every grid point."""
    saved = estimators.BINNED_MIN_TERMS
    if not binned:
        estimators.BINNED_MIN_TERMS = sys.maxsize
    try:
        est = estimate_curve(series, default_grid(series),
                             EstimatorConfig(rule_of_thumb(series).h,
                                             index_alignment=alignment))
        attach_bands(est, series, alpha=0.05)
    finally:
        estimators.BINNED_MIN_TERMS = saved
    cols = {"mu_hat": est.mu_hat, "m_hat": est.m_hat, "n_eff": est.n_eff}
    cols.update({name: getattr(est.bands, name) for name in FIT_COLUMNS[3:]})
    return cols, est


def compare_fit(entry: int, rtol: float, alignment: str):
    """The row of one large path, the largest deviation of each column, and
    whether it passes."""
    series = large_path_proxy(entry)
    got, est = fit_with_bands(series, True, alignment)
    want, _ = fit_with_bands(series, False, alignment)
    devs, same_nan = [], True
    for name in FIT_COLUMNS:
        nan = np.isnan(want[name])
        same_nan &= bool(np.array_equal(nan, np.isnan(got[name])))
        scale = np.max(np.abs(want[name][~nan]), initial=0.0)
        dev = np.max(np.abs(got[name][~nan] - want[name][~nan]), initial=0.0)
        devs.append(dev / scale if scale > 0 else dev)
    curve, pilot = est.sums, est.bands.pilot_sums
    row = (f"| {entry} | {est.h:.4g} | {curve['bins']} / {pilot['bins']} "
           f"| {curve['rescored']} / {pilot['rescored']} | "
           + " | ".join(f"{d:.1e}" for d in devs) + f" | {'yes' if same_nan else 'NO'} |")
    return row, devs, same_nan and max(devs) <= rtol


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--days", type=float, default=100.0, help="trading days per stand-in")
    ap.add_argument("--per-day", type=int, default=48, help="observations per day")
    ap.add_argument("--seeds", type=int, default=16, help="stand-ins, seeded 0..N-1")
    ap.add_argument("--rtol", type=float, default=1e-4)
    ap.add_argument("--entries", type=int, default=workloads.PANEL_SIZE,
                    help="estimate_large inputs to fit, 0..N-1")
    ap.add_argument("--fit-rtol", type=float, default=5e-7,
                    help="largest fit deviation, as a share of the column's largest magnitude")
    ap.add_argument("--alignment", default="aligned", choices=ALIGNMENTS,
                    help="index alignment of every CV and fit")
    args = ap.parse_args()

    proxies = [standin_proxy(args.days, args.per_day, seed) for seed in range(args.seeds)]
    print("| kernel | method | h equal | degenerate equal | max CV rel. diff "
          "| fallback terms | exact s | binned s | failed seeds |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    passed = True
    for kernel in (GAUSSIAN, EPANECHNIKOV):
        for method in (LOCAL_LINEAR, NADARAYA_WATSON):
            cfg = EstimatorConfig(1.0, kernel, method, args.alignment)
            row, ok = compare(proxies, cfg, args.rtol)
            print(row, flush=True)
            passed &= ok

    print("\n| entry | h | bins (curve / pilot) | rescored (curve / pilot) | "
          + " | ".join(FIT_COLUMNS) + " | NaN equal |")
    print("| --- " * (len(FIT_COLUMNS) + 5) + "|")
    worst = np.zeros(len(FIT_COLUMNS))
    for entry in range(args.entries):
        row, devs, ok = compare_fit(entry, args.fit_rtol, args.alignment)
        print(row, flush=True)
        worst = np.maximum(worst, devs)
        passed &= ok
    if args.entries:
        print("| max | | | | " + " | ".join(f"{d:.1e}" for d in worst) + " | |")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
