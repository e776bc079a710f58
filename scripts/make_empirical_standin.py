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
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lljd.io import write_table  # noqa: E402
from lljd.mcstudy import example_model  # noqa: E402
from lljd.simulate import PathConfig, simulate_path  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--days", type=float, default=250.0, help="trading days to simulate")
    ap.add_argument("--per-day", type=int, default=48, help="observations per day")
    ap.add_argument("--seed", type=int, default=2015)
    ap.add_argument("--log-price0", type=float, default=np.log(2000.0))
    ap.add_argument("--out", default="prices.csv")
    args = ap.parse_args()

    n = int(round(args.days * args.per_day))
    model = example_model(2)
    model = type(model)(
        mu=model.mu, sigma=model.sigma, jump=model.jump, x0=0.0, y0=args.log_price0,
        name=model.name,
    )
    path = simulate_path(model, PathConfig(t_span=args.days, n=n, seed=args.seed))
    prices = np.exp(path.y)
    write_table(args.out, {"t": np.arange(len(prices)) * path.delta, "close": prices})
    print(f"wrote {args.out}: {len(prices)} prices, delta=1/{args.per_day}")


if __name__ == "__main__":
    main()
