#!/usr/bin/env python3
"""Compare the binned and exact cross-validation backends on price stand-ins.

Builds each stand-in as scripts/make_empirical_standin.py does (the
mean-reverting benchmark model with Variance Gamma jumps at step 1/48, one
seed per stand-in), takes its log-price proxy as `lljd empirical` does, and
cross-validates the default grid around the rule of thumb with both
backends. Prints, per stand-in, the h each backend chooses, the largest
relative difference of their CV values, whether their degenerate counts
agree, the number of (h, term) pairs the binned backend rescored exactly and
the time of each backend:

    python scripts/check_cv_backends.py --days 100 --seeds 16

Exits with status 1 when a stand-in's chosen h or degenerate counts differ,
or a CV value is off by more than --rtol relative.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lljd.bandwidth import cross_validate, default_cv_grid, rule_of_thumb  # noqa: E402
from lljd.estimators import LOCAL_LINEAR, EstimatorConfig  # noqa: E402
from lljd.kernels import get_kernel  # noqa: E402
from lljd.mcstudy import example_model  # noqa: E402
from lljd.proxy import build_log_proxy  # noqa: E402
from lljd.simulate import PathConfig, simulate_path  # noqa: E402


def standin_proxy(days: float, per_day: int, seed: int):
    model = dataclasses.replace(example_model(2), x0=0.0, y0=np.log(2000.0))
    path = simulate_path(model, PathConfig(t_span=days, n=int(round(days * per_day)),
                                           seed=seed))
    return build_log_proxy(np.exp(path.y), 1.0 / per_day)


def timed_cv(series, grid, cfg, backend):
    start = time.perf_counter()
    choice = cross_validate(series, grid, cfg, backend)
    return choice, time.perf_counter() - start


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--days", type=float, default=100.0, help="trading days per stand-in")
    ap.add_argument("--per-day", type=int, default=48, help="observations per day")
    ap.add_argument("--seeds", type=int, default=16, help="stand-ins, seeded 0..N-1")
    ap.add_argument("--kernel", default="gaussian", choices=["gaussian", "epanechnikov"])
    ap.add_argument("--method", default=LOCAL_LINEAR,
                    choices=["local_linear", "nadaraya_watson"])
    ap.add_argument("--rtol", type=float, default=1e-4)
    args = ap.parse_args()

    cfg = EstimatorConfig(1.0, get_kernel(args.kernel), args.method)
    print("| seed | h exact | h binned | max CV rel. diff | degenerate equal "
          "| fallback terms | exact s | binned s |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    failed = False
    for seed in range(args.seeds):
        series = standin_proxy(args.days, args.per_day, seed)
        grid = default_cv_grid(rule_of_thumb(series).h)
        exact, exact_s = timed_cv(series, grid, cfg, "exact")
        binned, binned_s = timed_cv(series, grid, cfg, "binned")
        want = np.array([c for _, c in exact.cv_curve])
        got = np.array([c for _, c in binned.cv_curve])
        ok = np.isfinite(want)
        rel = float(np.max(np.abs(got[ok] - want[ok]) / want[ok]))
        same_degen = exact.cv_degenerate == binned.cv_degenerate
        failed |= (exact.h != binned.h or not same_degen or not rel <= args.rtol
                   or not np.array_equal(ok, np.isfinite(got)))
        print(f"| {seed} | {exact.h:.6g} | {binned.h:.6g} | {rel:.2e} | {same_degen} "
              f"| {binned.cv_exact_terms} | {exact_s:.2f} | {binned_s:.3f} |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
