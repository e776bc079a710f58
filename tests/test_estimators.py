import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lljd import estimators
from lljd.bandwidth import cross_validate, rule_of_thumb
from lljd.errors import ValidationError
from lljd.estimators import (
    LOCAL_LINEAR,
    NADARAYA_WATSON,
    EstimatorConfig,
    default_grid,
    density_estimate,
    drift_responses,
    estimate_curve,
    fit_responses,
    ll_weights,
    _power_sums,
    second_derivative_fit,
    second_moment_responses,
    term_points,
)
from lljd.inference import attach_bands
from lljd.kernels import EPANECHNIKOV, GAUSSIAN
from lljd.proxy import ProxySeries, build_proxy
from lljd.simulate import NoJumps, ModelSpec, PathConfig, default_model, derive_seeds, simulate_path
from lljd.mcstudy import example_model


def series(values, delta=0.1):
    return ProxySeries(delta=delta, xt=np.asarray(values, dtype=float))


def scalar_weights_oracle(xt, x, h, alignment):
    """Literal double-loop evaluation of the displayed weight formula."""
    arr = xt.xt
    n = len(arr)
    k = lambda u: np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi)
    poly = (lambda t: arr[t]) if alignment == "as_written" else (lambda t: arr[t - 1])
    s1 = sum(k((arr[j - 1] - x) / h) * (poly(j) - x) for j in range(1, n - 1))
    s2 = sum(k((arr[j - 1] - x) / h) * (poly(j) - x) ** 2 for j in range(1, n - 1))
    return np.array(
        [k((arr[i - 1] - x) / h) * (s2 - (poly(i) - x) * s1) for i in range(1, n - 1)]
    )


@pytest.mark.parametrize("alignment", ["as_written", "aligned"])
def test_ll_weights_match_scalar_oracle_on_hand_dataset(alignment):
    xt = series([0.30, -0.12, 0.05, 0.21, -0.07])
    x, h = 0.04, 0.15
    cfg = EstimatorConfig(bandwidth=h, index_alignment=alignment)
    w = ll_weights(xt, x, cfg)
    assert np.allclose(w, scalar_weights_oracle(xt, x, h, alignment), rtol=1e-12)


def test_weight_orthogonality_identities():
    rng = np.random.default_rng(0)
    xt = series(rng.normal(0.0, 1.0, 60))
    x = 0.2
    for alignment in ("as_written", "aligned"):
        cfg = EstimatorConfig(bandwidth=0.5, index_alignment=alignment)
        w = ll_weights(xt, x, cfg)
        _, ppts = term_points(xt, alignment)
        resid = np.sum(w * (ppts - x))
        assert abs(resid) < 1e-8 * np.sum(np.abs(w * (ppts - x)))


def test_flat_kernel_limit():
    rng = np.random.default_rng(1)
    xt = series(rng.normal(0.0, 1.0, 40))
    cfg = EstimatorConfig(bandwidth=1e6)
    w = ll_weights(xt, 0.1, cfg)
    kpts, ppts = term_points(xt, "aligned")
    kv = GAUSSIAN.eval((kpts - 0.1) / 1e6)
    assert kv.max() / kv.min() - 1.0 < 1e-6
    d = ppts - 0.1
    s1 = kv @ d
    s2 = kv @ (d * d)
    shape = s2 - d * s1
    ratio = w / shape
    assert np.allclose(ratio, ratio[0], rtol=1e-6)


@pytest.mark.parametrize("alignment", ["as_written", "aligned"])
def test_local_linear_reproduces_affine_responses(alignment):
    rng = np.random.default_rng(2)
    for _ in range(25):
        xt = series(rng.normal(0.0, 1.0, 50))
        _, ppts = term_points(xt, alignment)
        a, b = rng.normal(0, 2, 2)
        x0 = rng.normal(0, 0.5)
        resp = a + b * (ppts - x0)
        cfg = EstimatorConfig(bandwidth=float(rng.uniform(0.3, 2.0)), index_alignment=alignment)
        vals, _, _ = fit_responses(xt, resp, [x0], cfg)
        assert vals[0] == pytest.approx(a, abs=1e-8)


def test_nadaraya_watson_misses_sloped_truth():
    rng = np.random.default_rng(3)
    xt = series(rng.normal(0.0, 1.0, 50))
    _, ppts = term_points(xt, "aligned")
    resp = 1.0 + 2.0 * (ppts - 0.4)
    cfg = EstimatorConfig(bandwidth=0.8, method=NADARAYA_WATSON)
    vals, _, _ = fit_responses(xt, resp, [0.4], cfg)
    assert abs(vals[0] - 1.0) > 1e-3


def test_constant_responses_estimated_exactly():
    # a linear-in-index proxy sequence has constant drift responses
    c = 1.7
    delta = 0.05
    xt = series(np.arange(30) * c * delta, delta=delta)
    assert np.allclose(drift_responses(xt), c)
    for method in (LOCAL_LINEAR, NADARAYA_WATSON):
        est = estimate_curve(xt, np.linspace(0.1, 1.5, 7), EstimatorConfig(0.4, method=method))
        assert np.allclose(est.mu_hat, c, atol=1e-10)


def test_closed_form_equals_normal_equations_solution():
    rng = np.random.default_rng(4)
    xt = series(rng.normal(0.0, 1.0, 80))
    resp = rng.normal(0.0, 1.0, len(xt.xt) - 2)
    cfg = EstimatorConfig(bandwidth=0.6)
    for x in (-0.5, 0.0, 0.7):
        vals, _, _ = fit_responses(xt, resp, [x], cfg)
        kpts, ppts = term_points(xt, cfg.index_alignment)
        kv = GAUSSIAN.eval((kpts - x) / cfg.bandwidth)
        design = np.column_stack([np.ones_like(ppts), ppts - x])
        lhs = design.T @ (kv[:, None] * design)
        rhs = design.T @ (kv * resp)
        a0 = np.linalg.solve(lhs, rhs)[0]
        assert vals[0] == pytest.approx(a0, abs=1e-8)


def test_second_moment_statistic_rescaling_ratio_is_exactly_three_halves():
    path = simulate_path(example_model(1), PathConfig(t_span=5.0, n=500, seed=9))
    xt = build_proxy(path.y, path.delta)
    cfg = EstimatorConfig(bandwidth=0.05)
    grid = default_grid(xt, 21)
    with_factor, _, _ = fit_responses(xt, second_moment_responses(xt), grid, cfg)
    without, _, _ = fit_responses(xt, second_moment_responses(xt, rescaled=False), grid, cfg)
    ok = np.isfinite(with_factor)
    assert np.allclose(with_factor[ok] / without[ok], 1.5, rtol=1e-12)


def test_second_moment_vanishes_for_noiseless_drifting_state():
    # pure drift: responses shrink linearly with the step
    model = ModelSpec(mu=lambda x: 2.0, sigma=lambda x: 0.0, jump=NoJumps(), x0=0.0)
    vals = []
    for n in (100, 200, 400):
        path = simulate_path(model, PathConfig(t_span=4.0, n=n, seed=1, burn_in=0))
        xt = build_proxy(path.y, path.delta)
        est = estimate_curve(xt, np.array([path.x.mean()]), EstimatorConfig(2.0))
        vals.append(est.m_hat[0])
    assert vals[0] < 2.0 * 4.0 * (4.0 / 100)  # C * delta with C = 2 c^2
    assert vals[0] > vals[1] > vals[2]


def test_second_moment_level_on_jump_benchmark():
    # M(0) = 0.1 + 2 * 0.036^2 = 0.102592; light replicate check
    target = 0.102592
    vals = []
    for seed in derive_seeds(55, 20):
        path = simulate_path(example_model(1), PathConfig(t_span=10.0, n=2500, seed=seed))
        xt = build_proxy(path.y, path.delta)
        h = 1.06 * np.std(xt.xt, ddof=1) * 10.0 ** (-0.2)
        est = estimate_curve(xt, np.array([0.0]), EstimatorConfig(h))
        vals.append(est.m_hat[0])
    assert np.mean(vals) == pytest.approx(target, rel=0.25)


def test_density_point_mass():
    xt = series(np.zeros(25))
    h = 0.3
    p = density_estimate(xt, [0.0], GAUSSIAN, h)
    assert p[0] == pytest.approx(GAUSSIAN.eval(0.0) / h, rel=1e-12)
    assert p[0] == pytest.approx(0.39894228 / h, rel=1e-6)


def test_density_integrates_to_one():
    rng = np.random.default_rng(5)
    xt = series(rng.normal(0.0, 1.0, 400))
    grid = np.linspace(-6, 6, 601)
    p = density_estimate(xt, grid, GAUSSIAN, 0.3)
    assert np.trapezoid(p, grid) == pytest.approx(1.0, abs=0.01)


def test_density_peaks_near_stationary_mode():
    path = simulate_path(default_model(), PathConfig(t_span=10.0, n=2500, seed=3))
    xt = build_proxy(path.y, path.delta)
    grid = np.linspace(-0.2, 0.2, 81)
    p = density_estimate(xt, grid, GAUSSIAN, 0.02)
    assert abs(grid[np.argmax(p)]) < 0.05
    hist, edges = np.histogram(xt.xt, bins=40, range=(-0.2, 0.2), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    p_at_centers = density_estimate(xt, centers, GAUSSIAN, 0.02)
    assert np.corrcoef(hist, p_at_centers)[0, 1] > 0.95


def test_empty_neighbourhood_marked_undefined():
    xt = series(np.linspace(-0.1, 0.1, 40))
    est = estimate_curve(xt, np.array([0.0, 50.0]), EstimatorConfig(0.01))
    assert np.isfinite(est.mu_hat[0])
    assert np.isnan(est.mu_hat[1]) and np.isnan(est.m_hat[1])
    assert est.undefined_count == 1


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2.0, 4.0, 0.5, 0.25]))
def test_scale_equivariance_exact_for_binary_scales(seed, scale):
    rng = np.random.default_rng(seed)
    xt = series(rng.normal(0.0, 1.0, 30))
    resp = rng.normal(0.0, 1.0, 28)
    cfg = EstimatorConfig(bandwidth=0.7)
    base, _, _ = fit_responses(xt, resp, [0.0], cfg)
    scaled, _, _ = fit_responses(xt, resp * scale, [0.0], cfg)
    assert scaled[0] == base[0] * scale


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_nadaraya_watson_stays_within_response_range(seed, x):
    rng = np.random.default_rng(seed)
    xt = series(rng.normal(0.0, 1.0, 30))
    resp = rng.normal(0.0, 1.0, 28)
    cfg = EstimatorConfig(bandwidth=0.5, method=NADARAYA_WATSON)
    vals, _, _ = fit_responses(xt, resp, [x], cfg)
    if np.isfinite(vals[0]):
        assert resp.min() - 1e-12 <= vals[0] <= resp.max() + 1e-12


def test_default_grid_spans_inner_quantiles():
    rng = np.random.default_rng(6)
    xt = series(rng.normal(0.0, 1.0, 500))
    grid = default_grid(xt)
    lo, hi = np.quantile(xt.xt, [0.025, 0.975])
    assert len(grid) == 101
    assert grid[0] == pytest.approx(lo) and grid[-1] == pytest.approx(hi)
    full = default_grid(xt, 51, "full")
    assert full[0] == xt.xt.min() and full[-1] == xt.xt.max()


def test_alignment_variants_differ_on_generic_data():
    path = simulate_path(default_model(), PathConfig(t_span=5.0, n=400, seed=12))
    xt = build_proxy(path.y, path.delta)
    h = 0.05
    a = estimate_curve(xt, np.array([0.0]), EstimatorConfig(h, index_alignment="aligned"))
    b = estimate_curve(xt, np.array([0.0]), EstimatorConfig(h, index_alignment="as_written"))
    assert np.isfinite(a.mu_hat[0]) and np.isfinite(b.mu_hat[0])
    assert a.mu_hat[0] != b.mu_hat[0]


def test_config_validation():
    with pytest.raises(ValidationError):
        EstimatorConfig(bandwidth=0.0)
    with pytest.raises(ValidationError):
        EstimatorConfig(bandwidth=1.0, method="loess")
    with pytest.raises(ValidationError):
        EstimatorConfig(bandwidth=1.0, index_alignment="middle")
    with pytest.raises(ValidationError):
        fit_responses(series(np.zeros(5)), np.zeros(2), [0.0], EstimatorConfig(1.0))


def assert_agree(a, b):
    """Same NaN placement; elsewhere equal to 1e-12 of each column's largest
    magnitude. The first axis runs over evaluation points."""
    a = np.asarray(a).reshape(len(a), -1)
    b = np.asarray(b).reshape(len(b), -1)
    assert np.array_equal(np.isnan(a), np.isnan(b))
    for col_a, col_b in zip(a.T, b.T):
        ok = ~np.isnan(col_b)
        scale = np.max(np.abs(col_b[ok]), initial=0.0)
        assert np.all(np.abs(col_a[ok] - col_b[ok]) <= 1e-12 * scale)


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV], ids=["gaussian", "epanechnikov"])
def test_tiled_kernel_sums_match_single_tile(monkeypatch, kernel):
    rng = np.random.default_rng(11)
    xt = series(rng.normal(0.0, 1.0, 1002))  # 1000 terms
    kpts, ppts = term_points(xt, "as_written")
    resp = rng.normal(0.0, 1.0, (1000, 2))
    # the bulk of the data, and points whose neighbourhoods are empty
    grid = np.concatenate([np.linspace(-2.0, 2.0, 66), [-40.0, -8.0, 8.0, 40.0]])
    idx = rng.integers(0, 1000, len(grid))
    idx[:3] = (299, 300, 601)  # windows that straddle 300-term block boundaries
    window = (idx - 2, idx + 3)
    h = 0.3
    hs = np.array([0.1, h, 1.0])

    def results():
        out = []
        for p in (0, 1, 3):
            for w in (None, window):
                s, t = _power_sums(kpts, ppts, resp, grid, kernel, hs, p, w)
                assert s.shape == (3, len(grid), 2 * p + 1)
                assert t.shape == (3, len(grid), p + 1, 2)
                # a bandwidth vector gives the sums of one call per bandwidth
                for k, hk in enumerate(hs):
                    one_s, one_t = _power_sums(kpts, ppts, resp, grid, kernel, hk, p, w)
                    assert_agree(s[k], one_s[0])
                    assert_agree(t[k], one_t[0])
                out += [np.concatenate([s[k], t[k].reshape(len(grid), -1)], axis=1)
                        for k in range(3)]
        for method in (LOCAL_LINEAR, NADARAYA_WATSON):
            est = estimate_curve(xt, grid, EstimatorConfig(h, kernel, method=method))
            out += [est.mu_hat, est.m_hat, est.n_eff]
        out.append(second_derivative_fit(xt, resp.T, grid, kernel, 2 * h).T)
        out.append(density_estimate(xt, grid, kernel, h))
        cv = cross_validate(xt, [0.1, 0.3, 1.0], EstimatorConfig(1.0, kernel), "exact")
        out.append(np.array([c for _, c in cv.cv_curve]))
        return out

    # 16-point row tiles over 300-term blocks: 5 row tiles by 4 term blocks
    monkeypatch.setattr(estimators, "TILE_ROWS", 16)
    monkeypatch.setattr(estimators, "TILE_ELEMENTS", 16 * 300)
    tiled = results()
    monkeypatch.setattr(estimators, "TILE_ROWS", 10**6)
    monkeypatch.setattr(estimators, "TILE_ELEMENTS", 10**12)
    for a, b in zip(tiled, results()):
        assert_agree(a, b)
    assert any(np.isnan(a).any() for a in tiled)


def test_cubic_fit_undefined_where_fewer_than_four_regressors_carry_weight():
    rng = np.random.default_rng(12)
    isolated = np.tile([5.0, 5.1, 5.2], 5)
    xt = series(np.concatenate([isolated, np.clip(rng.normal(0.0, 1.0, 400), -3, 3)]))
    resp = drift_responses(xt)
    h = 0.3
    grid = np.array([-0.5, 5.1, 0.0, 0.5])  # only 5.0, 5.1, 5.2 lie within h of 5.1
    got = second_derivative_fit(xt, resp, grid, EPANECHNIKOV, h)
    alone = second_derivative_fit(xt, resp, grid[[0, 2, 3]], EPANECHNIKOV, h)
    assert np.isnan(got[1])
    assert np.allclose(got[[0, 2, 3]], alone, rtol=1e-12, atol=0.0)
    kpts, ppts = term_points(xt)
    for x, value in zip(grid[[0, 2, 3]], alone):
        kv = EPANECHNIKOV.eval((kpts - x) / h)
        design = np.vander((ppts - x) / h, 4, increasing=True)
        coef = np.linalg.solve(design.T @ (kv[:, None] * design), design.T @ (kv * resp))
        assert value == pytest.approx(2.0 * coef[2] / h**2, rel=1e-9)


def test_fit_and_bands_memory_does_not_grow_with_the_sample():
    # an AR(1) proxy of 200k points; dense G x n kernel matrices would need
    # about 1.2 GB here
    rng = np.random.default_rng(13)
    noise = rng.normal(0.0, 0.1, 200_000)
    x = np.empty_like(noise)
    x[0] = 0.0
    for i in range(1, len(x)):
        x[i] = 0.9 * x[i - 1] + noise[i]
    xt = series(x, delta=0.01)
    cfg = EstimatorConfig(rule_of_thumb(xt).h)
    tracemalloc.start()
    try:
        est = estimate_curve(xt, None, cfg)
        attach_bands(est, xt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(est.mu_hat).all() and np.isfinite(est.bands.lo_m).all()
    assert peak < 150e6
