#!/usr/bin/env python3
"""Generate a synthetic stand-in for a five-minute index price series.

The real data pipeline expects a CSV of positive prices observed 48 times per
trading day. Exchange data is not redistributable, so this script simulates
the mean-reverting benchmark model with Variance Gamma jumps at step 1/48 and
writes exp(integrated state) as the price column. The result exercises the
`lljd empirical` command end to end:

    python scripts/make_empirical_standin.py --days 250 --seed 2015 --out prices.csv
    lljd empirical --in prices.csv --price-col close --delta 1/48 \\
        --bands 0.05 --out curve.csv
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lljd.io import write_table  # noqa: E402
from lljd.mcstudy import example_model  # noqa: E402
from lljd.simulate import PathConfig, simulate_path  # noqa: E402


def standin_path(days: float, per_day: int, seed: int, log_price0: float = np.log(2000.0)):
    """The simulated path behind a stand-in: example 2's model started at
    x0 = 0 and log price log_price0, observed per_day times a day."""
    model = dataclasses.replace(example_model(2), x0=0.0, y0=log_price0)
    return simulate_path(model, PathConfig(t_span=days, n=int(round(days * per_day)),
                                           seed=seed))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--days", type=float, default=250.0, help="trading days to simulate")
    ap.add_argument("--per-day", type=int, default=48, help="observations per day")
    ap.add_argument("--seed", type=int, default=2015)
    ap.add_argument("--log-price0", type=float, default=np.log(2000.0))
    ap.add_argument("--out", default="prices.csv")
    args = ap.parse_args()

    path = standin_path(args.days, args.per_day, args.seed, args.log_price0)
    prices = np.exp(path.y)
    write_table(args.out, {"t": lambda r0, r1: np.arange(r0, r1) * path.delta, "close": prices})
    print(f"wrote {args.out}: {len(prices)} prices, delta=1/{args.per_day}")


if __name__ == "__main__":
    main()
