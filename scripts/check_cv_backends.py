#!/usr/bin/env python3
"""Compare the binned and exact cross-validation backends on price stand-ins.

Builds each stand-in with scripts/make_empirical_standin.py (the
mean-reverting benchmark model with Variance Gamma jumps at step 1/48, one
seed per stand-in), takes its log-price proxy as `lljd empirical` does, and
cross-validates the default grid around the rule of thumb with both
backends, for each kernel (Gaussian, Epanechnikov) and method (local linear,
Nadaraya-Watson). Prints one row per kernel and method: on how many
stand-ins the chosen h and the degenerate counts agree, the largest relative
difference of the CV values, the (h, term) pairs the binned backend rescored
exactly, the seconds of each backend over all stand-ins, and the seeds of
any stand-in that failed:

    python scripts/check_cv_backends.py --days 100 --seeds 16

Exits with status 1 when, for any pair, a stand-in's chosen h or degenerate
counts differ, or a CV value is off by more than --rtol relative.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lljd.bandwidth import cross_validate, default_cv_grid, rule_of_thumb  # noqa: E402
from lljd.estimators import LOCAL_LINEAR, NADARAYA_WATSON, EstimatorConfig  # noqa: E402
from lljd.kernels import EPANECHNIKOV, GAUSSIAN  # noqa: E402
from lljd.proxy import build_log_proxy  # noqa: E402
from make_empirical_standin import standin_path  # noqa: E402


def standin_proxy(days: float, per_day: int, seed: int):
    path = standin_path(days, per_day, seed)
    return build_log_proxy(np.exp(path.y), 1.0 / per_day)


def timed_cv(series, grid, cfg, backend):
    start = time.perf_counter()
    choice = cross_validate(series, grid, cfg, backend)
    return choice, time.perf_counter() - start


def compare(proxies, cfg, rtol):
    """The summary row of one kernel and method over every stand-in."""
    same_h = same_degen = fallbacks = 0
    worst, exact_s, binned_s, failed = 0.0, 0.0, 0.0, []
    for seed, series in enumerate(proxies):
        grid = default_cv_grid(rule_of_thumb(series).h)
        exact, seconds = timed_cv(series, grid, cfg, "exact")
        exact_s += seconds
        binned, seconds = timed_cv(series, grid, cfg, "binned")
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


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--days", type=float, default=100.0, help="trading days per stand-in")
    ap.add_argument("--per-day", type=int, default=48, help="observations per day")
    ap.add_argument("--seeds", type=int, default=16, help="stand-ins, seeded 0..N-1")
    ap.add_argument("--rtol", type=float, default=1e-4)
    args = ap.parse_args()

    proxies = [standin_proxy(args.days, args.per_day, seed) for seed in range(args.seeds)]
    print("| kernel | method | h equal | degenerate equal | max CV rel. diff "
          "| fallback terms | exact s | binned s | failed seeds |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    passed = True
    for kernel in (GAUSSIAN, EPANECHNIKOV):
        for method in (LOCAL_LINEAR, NADARAYA_WATSON):
            row, ok = compare(proxies, EstimatorConfig(1.0, kernel, method), args.rtol)
            print(row, flush=True)
            passed &= ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
