"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured statistics (run with -s to watch them live).

Stochastic criteria use pinned master seeds, so every statistic below is
deterministic and the stated tolerance bands are hard assertions.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from lljd.bandwidth import rule_of_thumb
from lljd.estimators import (
    NADARAYA_WATSON,
    EstimatorConfig,
    estimate_curve,
    fit_responses,
    second_moment_responses,
    term_points,
)
from lljd.inference import attach_bands
from lljd.kernels import GAUSSIAN, kernel_moment, moments
from lljd.mcstudy import McConfig, example_model, qq_data, run_study
from lljd.proxy import ProxySeries, build_proxy
from lljd.simulate import PathConfig, default_model, derive_seeds, simulate_path

SRC = Path(__file__).resolve().parents[1] / "src"


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def test_criterion_01_kernel_moments_match_quadrature():
    def run():
        errs = []
        for i, j in [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2)]:
            oracle, _ = integrate.quad(
                lambda u: (np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi)) ** i * u**j,
                -40.0,
                40.0,
                epsabs=1e-13,
            )
            errs.append(abs(kernel_moment(GAUSSIAN, i, j) - oracle))
        m = moments(GAUSSIAN)
        return errs, m

    (errs, m), elapsed = timed(run)
    assert max(errs) < 1e-10
    assert m.v == m.k2[0]
    assert abs(m.v - 0.2820948) < 1e-6
    report(1, f"max moment error {max(errs):.2e}, V={m.v:.7f} ({elapsed:.2f}s)")


def test_criterion_02_affine_reproduction():
    def run():
        rng = np.random.default_rng(2024)
        worst_ll = 0.0
        worst_nw = 0.0
        for _ in range(100):
            xt = ProxySeries(delta=0.05, xt=rng.normal(0.0, 1.0, rng.integers(20, 120)))
            _, ppts = term_points(xt, "aligned")
            a, b = rng.normal(0.0, 2.0, 2)
            x0 = float(rng.uniform(ppts.min(), ppts.max()))
            resp = a + b * (ppts - x0)
            h = float(rng.uniform(0.2, 2.0))
            ll, _, _ = fit_responses(xt, resp, [x0], EstimatorConfig(h))
            worst_ll = max(worst_ll, abs(ll[0] - a))
            nw, _, _ = fit_responses(
                xt, resp, [x0], EstimatorConfig(h, method=NADARAYA_WATSON)
            )
            if abs(b) > 0.1:
                worst_nw = max(worst_nw, abs(nw[0] - a))
        return worst_ll, worst_nw

    (worst_ll, worst_nw), elapsed = timed(run)
    assert worst_ll < 1e-8
    assert worst_nw > 1e-6
    report(2, f"LL worst error {worst_ll:.2e}, NW worst error {worst_nw:.2e} ({elapsed:.1f}s)")


def test_criterion_03_second_moment_rescaling_ratio():
    def run():
        path = simulate_path(example_model(1), PathConfig(10.0, 1000, seed=33))
        xt = build_proxy(path.y, path.delta)
        cfg = EstimatorConfig(rule_of_thumb(xt, 10.0).h)
        grid = np.linspace(*np.quantile(xt.xt, [0.025, 0.975]), 41)
        scaled, _, _ = fit_responses(xt, second_moment_responses(xt), grid, cfg)
        raw, _, _ = fit_responses(xt, second_moment_responses(xt, rescaled=False), grid, cfg)
        ok = np.isfinite(scaled) & np.isfinite(raw) & (raw != 0)
        return scaled[ok] / raw[ok]

    ratios, elapsed = timed(run)
    assert np.all(np.abs(ratios - 1.5) < 0.005 * 1.5)
    report(3, f"ratio range [{ratios.min():.6f}, {ratios.max():.6f}] ({elapsed:.1f}s)")


def test_criterion_04_quantile_bias_pattern():
    def run():
        passes = 0
        lead = None
        for s in range(10):
            cfg = McConfig(
                model=example_model(1),
                t_span=10.0,
                n=1000,
                replicates=100,
                master_seed=7000 + s,
            )
            r = run_study(cfg)
            ll = r.bias_at_quantiles["local_linear"]
            nw = r.bias_at_quantiles["nadaraya_watson"]
            ok = (
                abs(ll[0]) < abs(nw[0])
                and abs(ll[-1]) < abs(nw[-1])
                and 0.02 <= abs(ll[0]) <= 0.15
            )
            passes += ok
            if lead is None:
                lead = (ll[0], nw[0], ll[-1], nw[-1])
        return passes, lead

    (passes, lead), elapsed = timed(run)
    assert passes >= 8
    report(
        4,
        f"{passes}/10 seeds; first seed bias@10% LL {lead[0]:+.4f} vs NW {lead[1]:+.4f}, "
        f"bias@90% LL {lead[2]:+.4f} vs NW {lead[3]:+.4f} ({elapsed:.0f}s)",
    )


def test_criterion_05_rmse_improves_with_sample_size():
    def run():
        out = {}
        for n in (500, 1000, 2500):
            cfg = McConfig(
                model=example_model(1), t_span=10.0, n=n, replicates=100, master_seed=29
            )
            r = run_study(cfg)
            out[n] = (r.rmse["local_linear"], r.rmse["nadaraya_watson"])
        return out

    out, elapsed = timed(run)
    lls = [out[n][0] for n in (500, 1000, 2500)]
    assert lls[0] >= lls[1] >= lls[2], f"RMSE-LL not non-increasing: {lls}"
    assert all(out[n][0] < out[n][1] for n in out), f"LL does not beat NW everywhere: {out}"
    assert 0.02 <= lls[2] <= 0.15
    report(
        5,
        "RMSE-LL " + " -> ".join(f"{v:.4f}" for v in lls) + f" over n=500,1000,2500 ({elapsed:.0f}s)",
    )


def test_criterion_06_variance_gamma_rmse_pattern():
    def run():
        ll_vals, wins = [], 0
        for s in range(10):
            cfg = McConfig(
                model=example_model(2),
                t_span=10.0,
                n=2500,
                replicates=100,
                master_seed=6000 + s,
            )
            r = run_study(cfg)
            ll_vals.append(r.rmse["local_linear"])
            wins += r.rmse["local_linear"] < r.rmse["nadaraya_watson"]
        return np.array(ll_vals), wins

    (ll_vals, wins), elapsed = timed(run)
    assert wins >= 8
    med = float(np.median(ll_vals))
    assert 0.02 <= med <= 0.15
    report(6, f"LL beats NW in {wins}/10 seeds; median RMSE-LL {med:.4f} ({elapsed:.0f}s)")


def test_criterion_07_standardized_estimates_are_normal():
    def run():
        crit = 1.628 / np.sqrt(200)
        passes = 0
        stats = []
        for s in range(10):
            cfg = McConfig(
                model=example_model(1),
                t_span=10.0,
                n=1000,
                replicates=200,
                master_seed=1000 + s,
                methods=("local_linear",),
            )
            r = run_study(cfg)
            _, ks = qq_data(np.array(r.standardized["local_linear"]))
            stats.append(ks)
            passes += ks < crit
        return passes, stats, crit

    (passes, stats, crit), elapsed = timed(run)
    assert passes >= 8
    report(
        7,
        f"{passes}/10 seeds below the 1% KS critical value {crit:.4f}; "
        f"max statistic {max(stats):.4f} ({elapsed:.0f}s)",
    )


def test_criterion_08_second_moment_targets():
    def run():
        out = {}
        for which, target in ((1, 0.102592), (2, 0.1492)):
            cfg = McConfig(
                model=example_model(which),
                t_span=10.0,
                n=2500,
                replicates=100,
                master_seed=800 + which,
                methods=("local_linear",),
            )
            r = run_study(cfg)
            out[which] = (float(np.mean(r.estimates_at_x["local_linear"]["m"])), target)
        return out

    out, elapsed = timed(run)
    for which, (got, target) in out.items():
        assert abs(got - target) <= 0.15 * target, f"example {which}: {got} vs {target}"
    report(
        8,
        "; ".join(
            f"example {w}: mean M(0)={g:.4f} (target {t})" for w, (g, t) in out.items()
        )
        + f" ({elapsed:.0f}s)",
    )


def test_criterion_09_drift_band_coverage():
    def run():
        model = default_model()
        cover = total = 0
        for seed in derive_seeds(101, 200):
            path = simulate_path(model, PathConfig(10.0, 1000, seed=seed))
            pr = build_proxy(path.y, path.delta)
            est = estimate_curve(pr, np.array([0.0]), EstimatorConfig(rule_of_thumb(pr, 10.0).h))
            band = attach_bands(est, pr, alpha=0.05)
            if np.isfinite(band.lo_mu[0]):
                total += 1
                cover += band.lo_mu[0] <= 0.0 <= band.hi_mu[0]
        return cover, total

    (cover, total), elapsed = timed(run)
    rate = cover / total
    assert 0.88 <= rate <= 0.99
    report(9, f"95% band coverage at x=0: {cover}/{total} = {rate:.3f} ({elapsed:.0f}s)")


def test_criterion_10_byte_identical_reruns(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "lljd", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    def run():
        pairs = []
        # simulate twice
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        sim = ["simulate", "--t", "5", "--n", "300", "--seed", "17", "--jump", "cp"]
        cli(*sim, "--out", str(a))
        cli(*sim, "--out", str(b))
        pairs.append(("simulate", a.read_bytes() == b.read_bytes()))
        # estimate twice from the same input
        ca, cb = tmp_path / "ca.csv", tmp_path / "cb.csv"
        est = ["estimate", "--in", str(a), "--bands", "0.05"]
        cli(*est, "--out", str(ca))
        cli(*est, "--out", str(cb))
        pairs.append(("estimate", ca.read_bytes() == cb.read_bytes()))
        # mc-study: a config of a preset table, whose replicates are simulated
        # in lanes beside those of eight other configs, against the same
        # config run alone
        r1, r2, r3 = (tmp_path / f"r{i}.json" for i in (1, 2, 3))
        common = ["--reps", "8", "--seed", "3", "--grid-n", "21"]
        cli("mc-study", "--table", "6", *common, "--out", str(r1))
        cli("mc-study", "--table", "6", *common, "--out", str(r3))
        pairs.append(("mc-study", r1.read_bytes() == r3.read_bytes()))
        cli("mc-study", "--example", "2", "--t", "10", "--n", "500", *common, "--out", str(r2))
        table, alone = (json.loads(r.read_text())["configs"] for r in (r1, r2))
        assert table[0]["label"] == "vg rmse T=10 n=500"
        unlabelled = [json.dumps({**c[0], "label": None}) for c in (table, alone)]
        pairs.append(("mc-study table vs single config", unlabelled[0] == unlabelled[1]))
        return pairs

    pairs, elapsed = timed(run)
    for tag, same in pairs:
        assert same, f"{tag} outputs differ between runs that must agree"
    report(10, f"byte-identical outputs for {[t for t, _ in pairs]} ({elapsed:.0f}s)")
