#!/usr/bin/env python3
"""Re-derive the fourth-moment rescaling used by the second-moment bands.

The band variance needs the local fourth jump moment. Second differences of an
integrated path soften jumps: a jump landing uniformly inside the double
observation window enters with weight s or 1-s, so squared mass keeps
E[s^2] + E[(1-s)^2] = 2/3 of its instantaneous value and fourth-power mass
keeps E[s^4] + E[(1-s)^4] = 2/5. Inverting the latter gives the 5/2 scale
stored as lljd.inference.FOURTH_MOMENT_SCALE.

This script cross-checks that constant against a simulation oracle on the
compound Poisson benchmark: it compares the replicate variance of the
second-moment estimate at x=0 with the variance the band formula implies, and
prints the empirically ideal scale

    kappa = Var_emp(M_hat(0)) * n * delta * h * p_hat(0) / V / mean(raw_c4(0))

The empirical value sits below 5/2 at desk-scale steps (the raw local fourth
moment also absorbs the diffusion's O(delta) contribution, which inflates the
plug-in), so the stored constant errs on the wide side for the bands.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lljd.bandwidth import rule_of_thumb  # noqa: E402
from lljd.errors import NumericalError  # noqa: E402
from lljd.estimators import EstimatorConfig, estimate_curve  # noqa: E402
from lljd.inference import FOURTH_MOMENT_SCALE  # noqa: E402
from lljd.kernels import GAUSSIAN  # noqa: E402
from lljd.mcstudy import example_model  # noqa: E402
from lljd.proxy import build_proxy  # noqa: E402
from lljd.simulate import PathConfig, derive_seeds, simulate_paths  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t", type=float, default=10.0)
    ap.add_argument("--n", type=int, default=2500)
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=404)
    args = ap.parse_args()

    model = example_model(1)
    v_const = GAUSSIAN.roughness
    m_at0, raw, scale = [], [], []
    lanes = [(model, PathConfig(args.t, args.n, seed=seed))
             for seed in derive_seeds(args.seed, args.reps)]
    for path in simulate_paths(lanes, record_x=False):
        if isinstance(path, NumericalError):
            raise path
        pr = build_proxy(path.y, path.delta)
        h = rule_of_thumb(pr, args.t).h
        cfg = EstimatorConfig(h)
        est = estimate_curve(pr, np.array([0.0]), cfg)
        p0 = GAUSSIAN.eval(pr.xt / h).sum() / (len(pr.xt) * h)
        m_at0.append(est.m_hat[0])
        raw.append(est.m4_hat[0])
        scale.append(est.n_terms * pr.delta * h * p0)

    m_at0, raw, scale = map(np.array, (m_at0, raw, scale))
    var_emp = m_at0.var(ddof=1)
    kappa = var_emp * scale.mean() / v_const / raw.mean()
    lam, sd = model.jump.lam, model.jump.size.scale
    jump_c4 = lam * 3.0 * sd**4
    print(f"replicates:                  {args.reps} (T={args.t:g}, n={args.n})")
    print(f"mean M_hat(0):               {m_at0.mean():.6f}")
    print(f"Var_emp(M_hat(0)):           {var_emp:.3e}")
    print(f"mean raw fourth-moment fit:  {raw.mean():.3e}")
    print(f"  of which jump part 2/5*c4: {0.4 * jump_c4:.3e}")
    print(f"moment-expansion scale:      {2.5:.3f} (stored {FOURTH_MOMENT_SCALE})")
    print(f"empirically ideal scale:     {kappa:.3f}")


if __name__ == "__main__":
    main()
