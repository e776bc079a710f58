import tracemalloc
import warnings

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
    drift_responses,
    estimate_curve,
    _combine,
    _local_cubic,
    _power_sums,
    second_moment_responses,
    term_points,
)
from lljd.inference import attach_bands
from lljd.kernels import EPANECHNIKOV, GAUSSIAN
from lljd.proxy import ProxySeries, build_proxy
from lljd.simulate import NoJumps, ModelSpec, PathConfig, default_model, derive_seeds, simulate_path
from lljd.mcstudy import example_model
from oracles import exact_cv, fit_responses


def series(values, delta=0.1):
    return ProxySeries(delta=delta, xt=np.asarray(values, dtype=float))


def ll_weights(xt, x, cfg):
    """Local linear weights at a single evaluation point, one per estimating
    term: w[i] = K_i * (S_2 - d_i * S_1). The curve estimate is the weighted
    mean of the responses, and this closed form equals the intercept of the
    kernel-weighted least squares line through them."""
    kpts, ppts = term_points(xt, cfg.index_alignment)
    kv = cfg.kernel.eval((kpts - x) / cfg.bandwidth)
    d = ppts - x
    s1 = float(kv @ d)
    s2 = float(kv @ (d * d))
    return kv * (s2 - d * s1)


def with_unit(resp):
    """[1 | resp]: the weight columns of a fit of the responses `resp`."""
    return np.column_stack([np.ones(len(resp)), resp])


def power_sums(kpts, ppts, resp, grid, kernel, h, degree, window=None):
    """S_0..S_2p and T_0..T_p, p = degree, of the responses resp [n_terms, R]
    from the engine at the bandwidth h."""
    tops = [2 * degree] + [degree] * resp.shape[1]
    a = _power_sums(kpts, ppts, with_unit(resp), tops, grid, kernel, h, window)
    return _combine(a, None, degree)


def density_estimate(xt, grid, kernel, h):
    """Kernel density of the proxy sample over a grid: S_0 of a degree-0
    pass over every proxy, / (n h). The oracle of the bands' density, which
    they take from the kernel mass of the curve pass."""
    arr = xt.xt
    s, _ = power_sums(arr, arr, np.empty((len(arr), 0)), grid, kernel, h, 0)
    return s[:, 0] / (len(arr) * h)


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
    without, _, _ = fit_responses(xt, (xt.xt[2:] - xt.xt[1:-1]) ** 2 / xt.delta, grid, cfg)
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
                for hk in hs:
                    s, t = power_sums(kpts, ppts, resp, grid, kernel, hk, p, w)
                    assert s.shape == (len(grid), 2 * p + 1)
                    assert t.shape == (len(grid), p + 1, 2)
                    out.append(np.concatenate([s, t.reshape(len(grid), -1)], axis=1))
        for method in (LOCAL_LINEAR, NADARAYA_WATSON):
            est = estimate_curve(xt, grid, EstimatorConfig(h, kernel, method=method))
            out += [est.mu_hat, est.m_hat, est.n_eff]
        out.append(_local_cubic(xt, with_unit(resp), grid, kernel, 2 * h, "aligned")[0].T)
        out.append(density_estimate(xt, grid, kernel, h))
        cv = exact_cv(xt, [0.1, 0.3, 1.0], EstimatorConfig(1.0, kernel))
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


def reference_power_sums(kpts, ppts, responses, grid, kernel, h, degree, window=None):
    """The per-power formulation the engine replaced, in one untiled pass:
    weights K((kpts - x) / h) from Kernel.eval, each S_j a row sum, each T_j
    its own product with the responses, and the powers of d by w *= d."""
    grid, h = np.atleast_1d(grid), np.atleast_1d(h)
    s = np.zeros((len(h), len(grid), 2 * degree + 1))
    t = np.zeros((len(h), len(grid), degree + 1, responses.shape[1]))
    d = ppts[None, :] - grid[:, None]
    term = np.arange(len(kpts))
    for k, hk in enumerate(h):
        w = kernel.eval((kpts[None, :] - grid[:, None]) / hk)
        if window is not None:
            w[(window[0][:, None] <= term) & (term < window[1][:, None])] = 0.0
        for j in range(2 * degree + 1):
            s[k, :, j] = w.sum(axis=1)
            if j <= degree:
                t[k, :, j] = w @ responses
            if j < 2 * degree:
                w *= d
    return s, t


@pytest.mark.parametrize("alignment", ["aligned", "as_written"])
@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV], ids=["gaussian", "epanechnikov"])
def test_power_sums_match_the_per_power_reference(monkeypatch, kernel, alignment):
    rng = np.random.default_rng(21)
    xt = series(rng.normal(0.0, 1.0, 1002))  # 1000 terms
    kpts, ppts = term_points(xt, alignment)
    resp = rng.normal(0.0, 1.0, (1000, 3))
    # the bulk, the sparse tails and empty neighbourhoods
    grid = np.concatenate([np.linspace(-3.0, 3.0, 37), [-40.0, -5.0, 5.0, 40.0]])
    idx = rng.integers(0, 1000, len(grid))
    window = (idx - 1, idx + 2)
    hs = np.array([0.05, 0.3, 1.0])
    for rows, elements in ((16, 1 << 17), (16, 16 * 300), (7, 7 * 128)):
        monkeypatch.setattr(estimators, "TILE_ROWS", rows)
        monkeypatch.setattr(estimators, "TILE_ELEMENTS", elements)
        for degree in (0, 1, 3):
            for w in (None, window):
                sums = [power_sums(kpts, ppts, resp, grid, kernel, hk, degree, w) for hk in hs]
                s, t = (np.stack(x) for x in zip(*sums))
                ref_s, ref_t = reference_power_sums(kpts, ppts, resp, grid, kernel, hs,
                                                    degree, w)
                for k in range(len(hs)):
                    assert_agree(s[k], ref_s[k])
                    assert_agree(t[k], ref_t[k])
                methods = (NADARAYA_WATSON, LOCAL_LINEAR) if degree else (NADARAYA_WATSON,)
                for method in methods:
                    _, _, ok = estimators._closed_form(s, t, method, len(kpts))
                    _, _, ref_ok = estimators._closed_form(ref_s, ref_t, method, len(kpts))
                    assert np.array_equal(ok, ref_ok)
                    assert np.array_equal((~ok).sum(axis=1), (~ref_ok).sum(axis=1))
                    assert not ok.all()


@pytest.mark.parametrize("alignment", ["aligned", "as_written"])
@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV], ids=["gaussian", "epanechnikov"])
def test_power_sums_sum_each_column_to_its_own_top(monkeypatch, kernel, alignment):
    # columns in any order of their tops: each is summed up to its own top
    # power and is 0 above it, across row tiles and term blocks
    monkeypatch.setattr(estimators, "TILE_ROWS", 7)
    monkeypatch.setattr(estimators, "TILE_ELEMENTS", 7 * 128)
    rng = np.random.default_rng(22)
    xt = series(rng.normal(0.0, 1.0, 502))
    kpts, ppts = term_points(xt, alignment)
    resp = rng.normal(0.0, 1.0, (500, 3))
    grid = np.concatenate([np.linspace(-3.0, 3.0, 19), [40.0]])
    idx = rng.integers(0, 500, len(grid))
    window = (idx - 1, idx + 2)
    hs = np.array([0.1, 0.5])
    ref_s, ref_t = reference_power_sums(kpts, ppts, resp, grid, kernel, hs, 3, window)
    ref = np.concatenate([ref_s[..., :4, None], ref_t], axis=3)  # powers 0..3 of [1 | resp]
    tops = [2, 3, 0, 1]
    a = np.stack([_power_sums(kpts, ppts, with_unit(resp), tops, grid, kernel, hk, window)
                  for hk in hs])
    assert a.shape == (2, len(grid), 4, 4)
    for c, top in enumerate(tops):
        for k in range(len(hs)):
            assert_agree(a[k, :, : top + 1, c], ref[k, :, : top + 1, c])
        assert not a[:, :, top + 1 :, c].any()


@pytest.mark.parametrize("h", [1e-300, np.finfo(float).tiny])
@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV], ids=["gaussian", "epanechnikov"])
def test_power_sums_at_a_bandwidth_whose_square_underflows(kernel, h):
    # h * h underflows to 0 and 1 / h^2 overflows: the weight stays K(0) at
    # d = 0 and is 0 at every other term, with no floating-point warning
    pts = np.array([0.0, 0.5, 0.5, 1.0, 1e-3, 2.0])
    resp = np.arange(6.0)[:, None]
    grid = np.array([0.5, 1.0, 0.25, 3.0])
    with np.errstate(all="raise"):
        s, t = power_sums(pts, pts, resp, grid, kernel, h, 1)
    k0 = float(kernel.eval(0.0))
    at = pts[None, :] == grid[:, None]
    assert s[:, 0] == pytest.approx(at.sum(axis=1) * k0, rel=1e-15, abs=0.0)
    assert t[:, 0, 0] == pytest.approx(at @ resp[:, 0] * k0, rel=1e-15, abs=0.0)
    assert not s[:, 1:].any() and not t[:, 1].any()
    xt = series(np.linspace(0.0, 5.0, 30))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="bandwidth grid too narrow"):
            cross_validate(xt, np.array([h]), EstimatorConfig(1.0, kernel))


def test_cubic_fit_undefined_where_fewer_than_four_regressors_carry_weight():
    rng = np.random.default_rng(12)
    isolated = np.tile([5.0, 5.1, 5.2], 5)
    xt = series(np.concatenate([isolated, np.clip(rng.normal(0.0, 1.0, 400), -3, 3)]))
    resp = drift_responses(xt)
    h = 0.3
    grid = np.array([-0.5, 5.1, 0.0, 0.5])  # only 5.0, 5.1, 5.2 lie within h of 5.1
    (got,), _ = _local_cubic(xt, with_unit(resp), grid, EPANECHNIKOV, h, "aligned")
    (alone,), _ = _local_cubic(xt, with_unit(resp), grid[[0, 2, 3]], EPANECHNIKOV, h, "aligned")
    assert np.isnan(got[1])
    assert np.allclose(got[[0, 2, 3]], alone, rtol=1e-12, atol=0.0)
    kpts, ppts = term_points(xt)
    for x, value in zip(grid[[0, 2, 3]], alone):
        kv = EPANECHNIKOV.eval((kpts - x) / h)
        design = np.vander((ppts - x) / h, 4, increasing=True)
        coef = np.linalg.solve(design.T @ (kv[:, None] * design), design.T @ (kv * resp))
        assert value == pytest.approx(2.0 * coef[2] / h**2, rel=1e-9)


def random_walk(seed, n=66):
    """Proxies of a random walk with N(0, 0.3^2) steps: at h = 0.2 the
    Epanechnikov support of some grid points holds a single term."""
    return series(np.cumsum(np.random.default_rng(seed).normal(0.0, 0.3, n)))


def lone_term_points(xt, grid, h):
    """The grid points with exactly one kernel point inside the support."""
    kpts, _ = term_points(xt)
    return (np.abs(kpts[None, :] - grid[:, None]) < h).sum(axis=1) == 1


def test_a_local_linear_design_singular_up_to_rounding_is_undefined():
    # one term carrying all the weight: S_0 S_2 - S_1^2 is rounding noise of
    # either sign, and the fit is NaN and counted whatever the sign. Proxies
    # one apart at h = 0.2 (the drift responses are all 10), then the random
    # walk of seed 7, 22 of whose grid points hold a single term
    xt = series(np.arange(7.0))
    grid = np.array([-0.05, 0.05, 0.85, 1.1])
    est = estimate_curve(xt, grid, EstimatorConfig(0.2, EPANECHNIKOV))
    assert np.isnan(est.mu_hat).all() and np.isnan(est.m_hat).all()
    assert est.undefined_count == len(grid)
    # the local mean needs only the kernel mass
    nw = estimate_curve(xt, grid, EstimatorConfig(0.2, EPANECHNIKOV, method=NADARAYA_WATSON))
    assert np.allclose(nw.mu_hat, 10.0, rtol=1e-12) and nw.undefined_count == 0
    xt = random_walk(7)
    grid = default_grid(xt)
    lone = lone_term_points(xt, grid, 0.2)
    assert lone.sum() == 22
    est = estimate_curve(xt, grid, EstimatorConfig(0.2, EPANECHNIKOV))
    assert np.isnan(est.mu_hat[lone]).all()
    assert est.undefined_count == np.isnan(est.mu_hat).sum()


def assert_scaled(got, want, factor, rtol):
    """got = factor * want: NaN in the same places, and elsewhere within rtol
    of the largest magnitude of factor * want."""
    want = factor * np.asarray(want)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.max(np.abs(got[ok] - want[ok])) <= rtol * np.max(np.abs(want[ok]))


@pytest.mark.parametrize("alignment", ["aligned", "as_written"])
@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_the_conditioning_rule_does_not_depend_on_the_data_unit(scale, alignment):
    # proxies, grid and h in a unit scaled by c: every fit is defined at the
    # same points, and its values scale as its responses: the drift by c,
    # the second moment by c^2, and their curvatures by 1 / c and 1
    xt = random_walk(7)
    scaled = series(scale * xt.xt)
    grid = default_grid(xt)
    cols = estimators._Responses
    for kernel in (GAUSSIAN, EPANECHNIKOV):
        for method in (LOCAL_LINEAR, NADARAYA_WATSON):
            a, b = (estimate_curve(x, g, EstimatorConfig(h, kernel, method, alignment))
                    for x, g, h in ((xt, grid, 0.2), (scaled, scale * grid, 0.2 * scale)))
            assert_scaled(b.mu_hat, a.mu_hat, scale, 1e-12)
            assert_scaled(b.m_hat, a.m_hat, scale**2, 1e-12)
            assert a.undefined_count == b.undefined_count
        a, b = (_local_cubic(x, cols(x, (drift_responses, second_moment_responses)), g, kernel,
                             h, alignment)[0]
                for x, g, h in ((xt, grid, 0.4), (scaled, scale * grid, 0.4 * scale)))
        assert np.isnan(a).any() == (kernel is EPANECHNIKOV) and not np.isnan(a).all()
        # the scaled proxies differ by rounding, which the least conditioned
        # designs (det R 2e-10, condition number 3e7) amplify to 1e-9
        assert_scaled(b[0], a[0], 1 / scale, 1e-8)
        assert_scaled(b[1], a[1], 1.0, 1e-8)


def test_quantiles_are_numpys_linear_quantiles_bit_for_bit():
    rng = np.random.default_rng(21)
    fractions = ([0.025, 0.975], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9], [0.0, 0.5, 1.0])
    for n in [*range(3, 40), 100, 257, 1000, 4999, 5000]:
        for ties in (False, True):
            a = rng.normal(size=n)
            if ties:
                a = np.round(a, 1)
            for q in fractions:
                assert np.array_equal(estimators._quantiles(a, q), np.quantile(a, q)), (n, q)
            # a replicate-by-grid table, as the Monte Carlo band takes it
            table = rng.normal(size=(n, 7)).round(1 if ties else 12)
            assert np.array_equal(estimators._quantiles(table, [0.025, 0.975]),
                                  np.percentile(table, [2.5, 97.5], axis=0)), n


def test_fit_and_bands_memory_does_not_grow_with_the_sample():
    # AR(1) proxies of 200k and 800k terms; dense G x n kernel matrices would
    # need about 1.2 GB at 200k. The proxy is built before tracing starts, so
    # the peak is the fit's and the bands' alone: they work in term blocks,
    # no n x R response matrix, no list of n-vectors. What remains of n is
    # the grid's order statistics.
    for terms, alignment, bound in ((200_000, "aligned", 8e6), (800_000, "aligned", 8e6),
                                    (200_000, "as_written", 12e6)):
        xt = ar1_proxy(terms + 2)
        cfg = EstimatorConfig(rule_of_thumb(xt).h, index_alignment=alignment)
        tracemalloc.start()
        try:
            est = estimate_curve(xt, None, cfg)
            attach_bands(est, xt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.sums["backend"] == est.bands.pilot_sums["backend"] == "binned"
        assert np.isfinite(est.mu_hat).all() and np.isfinite(est.bands.lo_m).all()
        assert peak < bound, (terms, alignment, peak)


def ar1_proxy(n, seed=13):
    """An AR(1) proxy of n points."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 0.1, n)
    x = np.empty_like(noise)
    x[0] = 0.0
    for i in range(1, len(x)):
        x[i] = 0.9 * x[i - 1] + noise[i]
    return series(x, delta=0.01)


@pytest.fixture(scope="module")
def large_proxy():
    xt = ar1_proxy(70_000)  # 69,998 terms, above BINNED_MIN_TERMS
    assert len(xt.xt) - 2 >= estimators.BINNED_MIN_TERMS
    return xt


def fit_columns(xt, grid, cfg, bands):
    est = estimate_curve(xt, grid, cfg)
    cols = {"mu_hat": est.mu_hat, "m_hat": est.m_hat, "n_eff": est.n_eff}
    pilot = None
    if bands:
        b = attach_bands(est, xt)
        cols.update(lo_mu=b.lo_mu, hi_mu=b.hi_mu, lo_m=b.lo_m, hi_m=b.hi_m)
        pilot = b.pilot_sums
    return cols, est.sums, pilot


def exact_columns(monkeypatch, xt, grid, cfg, bands):
    """fit_columns from the exact engine, `_power_sums`, at every grid point."""
    with monkeypatch.context() as m:
        m.setattr(estimators, "BINNED_MIN_TERMS", 1 << 62)
        cols, sums, pilot = fit_columns(xt, grid, cfg, bands)
    assert sums["backend"] == "exact" and pilot in (None, sums)
    return cols


def assert_near_exact(got, want, rtol):
    """Same NaN places; values within rtol of each column's largest magnitude."""
    for name, col in want.items():
        assert np.array_equal(np.isnan(got[name]), np.isnan(col)), name
        ok = ~np.isnan(col)
        dev = np.max(np.abs(got[name][ok] - col[ok]), initial=0.0)
        assert dev <= rtol * np.max(np.abs(col[ok])), (name, dev)


@pytest.mark.parametrize("method", [LOCAL_LINEAR, NADARAYA_WATSON])
@pytest.mark.parametrize("kernel, alignment", [
    pytest.param(GAUSSIAN, "aligned", id="gaussian"),
    pytest.param(EPANECHNIKOV, "aligned", id="epanechnikov"),
    pytest.param(GAUSSIAN, "as_written", id="gaussian-as_written"),
])
def test_large_fit_and_bands_match_the_exact_engine(monkeypatch, large_proxy, kernel, alignment,
                                                    method):
    xt = large_proxy
    cfg = EstimatorConfig(rule_of_thumb(xt).h, kernel, method, alignment)
    grid = default_grid(xt)
    bands = method == LOCAL_LINEAR
    got, sums, pilot = fit_columns(xt, grid, cfg, bands)
    want = exact_columns(monkeypatch, xt, grid, cfg, bands)
    assert_near_exact(got, want, 5e-7)
    if kernel is GAUSSIAN:
        # 128 bins inside h and 2h, at most CV_BINS; nothing rescored inside the data
        assert sums == {"backend": "binned", "bins": 4096, "rescored": 0}
        assert pilot in (None, {"backend": "binned", "bins": 2048, "rescored": 0})
    else:
        # the kink of a compact kernel's profile is off by first order in a
        # bin: 1e-5 of a column at 128 bins per h, so it keeps exact sums
        assert sums["backend"] == "exact" and pilot in (None, sums)
        for name, col in want.items():
            assert np.array_equal(got[name], col, equal_nan=True), name


def past_the_data_grid(xt, h):
    """The default grid, and 25 points on each side out to 12 h past the data."""
    lo, hi = xt.xt.min(), xt.xt.max()
    return np.concatenate([default_grid(xt), np.linspace(hi, hi + 12 * h, 25),
                           np.linspace(lo - 12 * h, lo, 25)])


def test_large_fit_past_the_data_is_undefined_where_the_exact_fit_is(monkeypatch, large_proxy):
    # Gaussian weights underflow some 6 h past the data, where the exact kernel
    # mass falls below the degeneracy floor; the binned mass there is not
    # exact, and the mass test sends those points to the exact engine, at the
    # regressor points of either alignment
    xt = large_proxy
    h = rule_of_thumb(xt).h
    grid = past_the_data_grid(xt, h)
    for alignment in ("aligned", "as_written"):
        cfg = EstimatorConfig(h, index_alignment=alignment)
        got, sums, pilot = fit_columns(xt, grid, cfg, True)
        want = exact_columns(monkeypatch, xt, grid, cfg, True)
        assert sums["backend"] == pilot["backend"] == "binned"
        assert sums["rescored"] > 0 and pilot["rescored"] > 0
        assert np.isnan(want["mu_hat"]).any() and np.isnan(want["lo_mu"]).any()
        assert_near_exact(got, want, 5e-7)


def column_tops(degree, responses, alignment):
    """The top power of each weight column of a binned pass of `responses`
    response columns: [1 | responses] aligned; as written, e^m to power
    2 degree - m, then e^m r to power degree - m."""
    if alignment == "aligned":
        return [2 * degree] + [degree] * responses
    return ([2 * degree - m for m in range(2 * degree + 1)]
            + [degree - m for m in range(degree + 1) for _ in range(responses)])


def test_binned_fits_take_their_sums_from_the_tile_engine(monkeypatch, large_proxy):
    # each binned pass hands its bin centres to `_power_sums` as the terms,
    # with its binned columns to their tops and the same columns weighted by
    # f g two powers further, and no bare unit column; then its poorly binned
    # grid points to one exact call over the terms with [1 | responses]
    calls = []
    engine = estimators._power_sums

    def spy(kpts, ppts, cols, tops, grid, *args, **kwargs):
        calls.append((len(kpts), len(grid), ppts is kpts, cols.shape[1], list(tops)))
        return engine(kpts, ppts, cols, tops, grid, *args, **kwargs)

    monkeypatch.setattr(estimators, "_power_sums", spy)
    xt = large_proxy
    h = rule_of_thumb(xt).h
    grid = past_the_data_grid(xt, h)
    for alignment in ("aligned", "as_written"):
        calls.clear()
        _, sums, pilot = fit_columns(xt, grid, EstimatorConfig(h, index_alignment=alignment),
                                     True)
        want = []
        # the curve pass fits 3 responses at degree 1, the pilot pass 2 at degree 3
        for p, responses, degree in ((sums, 3, 1), (pilot, 2, 3)):
            assert p["backend"] == "binned" and p["rescored"] > 0
            tops = column_tops(degree, responses, alignment)
            want += [(p["bins"], len(grid), True, 2 * len(tops), tops + [t + 2 for t in tops]),
                     (len(xt.xt) - 2, p["rescored"], alignment == "aligned",
                      1 + responses, [2 * degree] + [degree] * responses)]
        assert (sums["bins"], pilot["bins"]) == (4096, 2048)
        assert calls == want, alignment


@pytest.mark.parametrize("terms", [(1 << 16) - 1, 1 << 16])
def test_fits_below_the_binning_threshold_are_the_exact_engine_bit_for_bit(terms):
    xt = ar1_proxy(terms + 2, seed=14)
    h = rule_of_thumb(xt).h
    grid = default_grid(xt)
    est = estimate_curve(xt, grid, EstimatorConfig(h))
    kpts, ppts = term_points(xt)
    resp = np.column_stack([drift_responses(xt), second_moment_responses(xt),
                            estimators.fourth_moment_responses(xt)])
    s, t = power_sums(kpts, ppts, resp, grid, GAUSSIAN, h, 1)
    (mu_hat, m_hat, _), n_eff, _ = estimators._closed_form(s, t, LOCAL_LINEAR, terms)
    same = [np.array_equal(a, b, equal_nan=True)
            for a, b in ((est.mu_hat, mu_hat), (est.m_hat, m_hat), (est.n_eff, n_eff))]
    if terms < estimators.BINNED_MIN_TERMS:
        assert est.sums == {"backend": "exact", "bins": None, "rescored": None}
        assert all(same)
    else:
        assert est.sums["backend"] == "binned" and not any(same)
