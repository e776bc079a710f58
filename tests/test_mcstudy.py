import numpy as np
import pytest

from lljd.bandwidth import rule_of_thumb
from lljd.errors import NumericalError, ValidationError
from lljd.estimators import CurveEstimate, EstimatorConfig, default_grid, estimate_curve
from lljd.kernels import GAUSSIAN
from lljd.mcstudy import (
    McConfig,
    example_model,
    qq_data,
    rmse,
    run_study,
    table_presets,
)
from lljd.proxy import build_proxy
from lljd.simulate import (
    CompoundPoisson,
    JumpSizeDist,
    PathConfig,
    default_model,
    derive_seeds,
    simulate_path,
)


def make_estimate(grid, mu_hat):
    grid = np.asarray(grid, dtype=float)
    mu_hat = np.asarray(mu_hat, dtype=float)
    return CurveEstimate(
        grid=grid,
        mu_hat=mu_hat,
        m_hat=np.zeros_like(grid),
        h=0.1,
        n_eff=np.full(len(grid), 10.0),
        delta=0.01,
        n_terms=100,
        method="local_linear",
        undefined_count=int(np.isnan(mu_hat).sum()),
    )


def test_rmse_zero_when_estimate_equals_truth():
    grid = np.linspace(-1, 1, 11)
    est = make_estimate(grid, -10.0 * grid)
    assert rmse(est, lambda x: -10.0 * x) == 0.0


def test_rmse_constant_offset():
    grid = np.linspace(-1, 1, 11)
    est = make_estimate(grid, -10.0 * grid + 0.25)
    assert rmse(est, lambda x: -10.0 * x) == pytest.approx(0.25, rel=1e-12)


def test_rmse_skips_undefined_points():
    grid = np.linspace(-1, 1, 5)
    vals = -10.0 * grid
    vals[0] = np.nan
    est = make_estimate(grid, vals)
    assert rmse(est, lambda x: -10.0 * x) == 0.0
    with pytest.raises(NumericalError):
        rmse(make_estimate(grid, np.full(5, np.nan)), lambda x: -10.0 * x)


def test_single_replicate_report_matches_manual_pipeline():
    cfg = McConfig(
        model=example_model(1),
        t_span=10.0,
        n=400,
        replicates=1,
        master_seed=51,
        methods=("local_linear",),
    )
    report = run_study(cfg)
    seed = derive_seeds(51, 1)[0]
    path = simulate_path(example_model(1), PathConfig(10.0, 400, seed=seed))
    pr = build_proxy(path.y, path.delta)
    h = rule_of_thumb(pr, 10.0).h
    grid = default_grid(pr)
    pts = np.concatenate([grid, np.quantile(pr.xt, cfg.quantiles), [0.0]])
    est = estimate_curve(pr, pts, EstimatorConfig(h, GAUSSIAN))
    assert report.estimates_at_x["local_linear"]["mu"][0] == est.mu_hat[-1]
    assert report.estimates_at_x["local_linear"]["m"][0] == est.m_hat[-1]
    assert report.mc_band["local_linear"]["grid"] == [float(v) for v in grid]
    assert report.mc_band["local_linear"]["mean"] == [float(v) for v in est.mu_hat[:101]]
    assert report.standardized["local_linear"] is None  # one replicate: no spread


def test_identical_master_seed_gives_identical_report():
    cfg = dict(model=example_model(1), t_span=5.0, n=200, replicates=8, master_seed=9)
    a = run_study(McConfig(**cfg)).to_dict()
    b = run_study(McConfig(**cfg)).to_dict()
    assert a == b


def test_each_replicate_path_is_simulated_once(monkeypatch):
    import lljd.mcstudy

    calls = []

    def counting(model, cfg):
        calls.append(cfg.seed)
        return simulate_path(model, cfg)

    monkeypatch.setattr(lljd.mcstudy, "simulate_path", counting)
    cfg = McConfig(model=example_model(1), t_span=5.0, n=200, replicates=7, master_seed=3)
    run_study(cfg)
    assert calls == derive_seeds(3, 7)


def test_worker_count_does_not_change_report():
    base = dict(model=example_model(2), t_span=5.0, n=200, replicates=10, master_seed=13)
    serial = run_study(McConfig(**base, workers=1)).to_dict()
    threaded = run_study(McConfig(**base, workers=4)).to_dict()
    assert serial == threaded


def test_study_reports_partial_failures_and_continues():
    model = default_model(
        jump=CompoundPoisson(2.0, JumpSizeDist("cauchy", 0.0, 3e5))
    )
    cfg = McConfig(
        model=model,
        t_span=10.0,
        n=50,
        replicates=30,
        master_seed=1,
        methods=("local_linear",),
        burn_in=20,
    )
    report = run_study(cfg)
    assert report.skipped == 3
    assert len(report.failures) == 3
    assert all("explosion" in f for f in report.failures)
    assert np.isfinite(report.rmse["local_linear"])
    assert sum(np.isnan(report.rmse_per_replicate["local_linear"])) == 3


def test_study_aborts_when_too_many_replicates_fail():
    model = default_model(
        jump=CompoundPoisson(2.0, JumpSizeDist("cauchy", 0.0, 1e6))
    )
    cfg = McConfig(
        model=model,
        t_span=10.0,
        n=50,
        replicates=30,
        master_seed=2,
        methods=("local_linear",),
        burn_in=20,
    )
    with pytest.raises(NumericalError, match="replicates failed"):
        run_study(cfg)


def test_local_linear_beats_baseline_on_benchmark():
    cfg = McConfig(model=example_model(1), t_span=10.0, n=500, replicates=20, master_seed=77)
    report = run_study(cfg)
    assert report.rmse["local_linear"] < report.rmse["nadaraya_watson"]


def test_mc_band_contains_truth_at_central_point():
    cfg = McConfig(
        model=example_model(1),
        t_span=10.0,
        n=500,
        replicates=30,
        master_seed=5,
        methods=("local_linear",),
    )
    report = run_study(cfg)
    band = report.mc_band["local_linear"]
    mid = len(band["grid"]) // 2
    truth = -10.0 * band["grid"][mid]
    assert band["lo"][mid] <= truth <= band["hi"][mid]
    assert all(
        lo <= hi for lo, hi in zip(band["lo"], band["hi"]) if np.isfinite(lo)
    )


def test_qq_data_normal_sample_passes_ks_screen():
    # 1% critical value for the Kolmogorov distance is about 1.63/sqrt(n)
    crit = 1.63 / np.sqrt(500)
    hits = 0
    for seed in range(20):
        sample = np.random.default_rng(seed).standard_normal(500)
        pairs, ks = qq_data(sample)
        assert pairs.shape == (500, 2)
        hits += ks < crit
    assert hits >= 19


def test_qq_pairs_antisymmetric_for_symmetric_input():
    values = np.concatenate([np.arange(1, 26), -np.arange(1, 26)]).astype(float)
    pairs, _ = qq_data(values)
    assert np.allclose(pairs[:, 1], -pairs[::-1, 1], atol=1e-12)
    assert np.allclose(pairs[:, 0], -pairs[::-1, 0], atol=1e-12)


def test_qq_data_input_validation():
    with pytest.raises(ValidationError):
        qq_data(np.ones(50))  # zero variance
    with pytest.raises(ValidationError):
        qq_data(np.arange(10.0))  # too short


def test_table_presets_shapes():
    assert len(table_presets(1)) == 1
    assert len(table_presets(5)) == 1
    for t in (2, 3, 4, 6):
        configs = table_presets(t)
        assert len(configs) == 9
        labels = [c.label for c in configs]
        assert len(set(labels)) == 9
    assert {c.n for c in table_presets(2)} == {500, 1000, 2500}
    with pytest.raises(ValidationError):
        table_presets(7)


def test_example_model_jumps():
    m1 = example_model(1)
    assert isinstance(m1.jump, CompoundPoisson)
    assert m1.jump.lam == 2.0 and m1.jump.size.scale == 0.036
    m2 = example_model(2)
    assert (m2.jump.c, m2.jump.eta, m2.jump.b) == (-0.2, 0.2, 0.23)
    with pytest.raises(ValidationError):
        example_model(3)


def test_config_validation():
    model = example_model(1)
    with pytest.raises(ValidationError):
        McConfig(model=model, t_span=1.0, n=100, replicates=0, master_seed=1)
    with pytest.raises(ValidationError):
        McConfig(model=model, t_span=1.0, n=100, replicates=1, master_seed=1, quantiles=(0.0, 0.5))
    with pytest.raises(ValidationError):
        McConfig(model=model, t_span=1.0, n=100, replicates=1, master_seed=1, methods=("spline",))
    with pytest.raises(ValidationError):
        McConfig(model=model, t_span=1.0, n=100, replicates=1, master_seed=1, workers=0)
