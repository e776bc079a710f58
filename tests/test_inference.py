from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from lljd.bandwidth import rule_of_thumb
from lljd.errors import ValidationError
from lljd import estimators
from lljd.estimators import (
    NADARAYA_WATSON,
    EstimatorConfig,
    density_estimate,
    drift_responses,
    estimate_curve,
    fit_responses,
    second_derivative_fit,
    second_moment_responses,
)
from lljd.inference import (
    FOURTH_MOMENT_SCALE,
    _normal_critical,
    attach_bands,
    fourth_moment_responses,
)
from lljd.kernels import EPANECHNIKOV, GAUSSIAN, bias_constant, moments
from lljd.proxy import build_proxy
from lljd.simulate import PathConfig, default_model, derive_seeds, simulate_path
from lljd.mcstudy import example_model


def fitted(seed=0, n=800, t_span=10.0, model=None, grid=None):
    path = simulate_path(model or default_model(), PathConfig(t_span, n, seed=seed))
    pr = build_proxy(path.y, path.delta)
    h = rule_of_thumb(pr, t_span).h
    est = estimate_curve(pr, grid, EstimatorConfig(h))
    return est, pr


def test_normal_quantile_value():
    assert stats.norm.ppf(1 - 0.05 / 2) == pytest.approx(1.959964, abs=1e-5)
    for alpha in (0.001, 0.01, 0.05, 0.1, 0.32, 0.5, 0.9):
        z = stats.norm.ppf(1.0 - alpha / 2.0)
        assert _normal_critical(alpha) == pytest.approx(z, rel=1e-14)


def test_half_width_scales_exactly_with_observation_budget():
    est, pr = fitted(seed=1)
    base = attach_bands(est, pr, alpha=0.05)
    more = attach_bands(replace(est, n_terms=4 * est.n_terms), pr, alpha=0.05)
    ok = np.isfinite(base.lo_mu) & np.isfinite(more.lo_mu)
    hw_base = (base.hi_mu - base.lo_mu)[ok]
    hw_more = (more.hi_mu - more.lo_mu)[ok]
    # the halving is exact in the half-width; reconstructing it from the band
    # endpoints only reintroduces one rounding of the centre
    assert np.allclose(hw_base, 2.0 * hw_more, rtol=1e-12)


def test_bands_are_ordered_and_nested_in_alpha():
    est, pr = fitted(seed=2)
    wide = attach_bands(est, pr, alpha=0.05)
    assert est.bands is wide
    narrow = attach_bands(est, pr, alpha=0.32)
    assert est.bands is narrow
    for lo, hi in ((wide.lo_mu, wide.hi_mu), (wide.lo_m, wide.hi_m)):
        ok = np.isfinite(lo)
        assert np.all(lo[ok] <= hi[ok])
    ok = np.isfinite(wide.lo_m) & np.isfinite(narrow.lo_m)
    assert np.all(wide.lo_m[ok] <= narrow.lo_m[ok])
    assert np.all(narrow.hi_m[ok] <= wide.hi_m[ok])
    ok = np.isfinite(wide.lo_mu) & np.isfinite(narrow.lo_mu)
    assert np.all(wide.lo_mu[ok] <= narrow.lo_mu[ok])


def test_bias_correction_shifts_center_by_exactly_the_curvature_term():
    est, pr = fitted(seed=3)
    corrected = attach_bands(est, pr, alpha=0.05)
    plain = attach_bands(est, pr, alpha=0.05, bias_corrected=False)
    mu2 = second_derivative_fit(
        pr, drift_responses(pr), est.grid, est.kernel, corrected.pilot_h, est.index_alignment
    )
    bias = 0.5 * est.h**2 * mu2 * bias_constant(moments(est.kernel).k1)
    ok = np.isfinite(corrected.lo_mu) & np.isfinite(plain.lo_mu)
    assert np.allclose((plain.lo_mu - corrected.lo_mu)[ok], bias[ok], rtol=1e-10)
    assert np.allclose((plain.hi_mu - corrected.hi_mu)[ok], bias[ok], rtol=1e-10)


def test_linear_drift_band_covers_truth_at_center():
    # mu'' = 0 for the linear benchmark drift: the correction is near zero and
    # the 95% band at the stationary mean should cover at typical rates
    cover = total = 0
    for seed in derive_seeds(71, 60):
        est, pr = fitted(seed=seed, n=1000, grid=np.array([0.0]))
        band = attach_bands(est, pr, alpha=0.05)
        if np.isfinite(band.lo_mu[0]):
            total += 1
            cover += band.lo_mu[0] <= 0.0 <= band.hi_mu[0]
    assert total > 50
    assert 0.80 <= cover / total <= 1.0


@pytest.mark.slow
def test_m_band_covers_diffusion_variance_without_jumps():
    # sigma^2(0) = 0.1; step fine enough that the residual discretization bias
    # of the second-moment statistic stays well inside the band
    cover = total = 0
    for seed in derive_seeds(404, 200):
        est, pr = fitted(seed=seed, n=10_000, grid=np.array([0.0]))
        band = attach_bands(est, pr, alpha=0.05)
        if np.isfinite(band.lo_m[0]):
            total += 1
            cover += band.lo_m[0] <= 0.1 <= band.hi_m[0]
    assert cover / total >= 0.85


@pytest.mark.slow
def test_m_band_covers_total_second_moment_with_vg_jumps():
    # M(0) = 0.1 + (0.04 * 0.23 + 0.04) = 0.1492. The data-driven curvature
    # correction absorbs an O(step) drift artifact that pushes the center away
    # from the truth at this step size, so the uncorrected band is the honest
    # coverage object here.
    target = 0.1492
    cover = total = 0
    for seed in derive_seeds(303, 200):
        est, pr = fitted(seed=seed, n=2500, model=example_model(2), grid=np.array([0.0]))
        band = attach_bands(est, pr, alpha=0.05, bias_corrected=False)
        if np.isfinite(band.lo_m[0]):
            total += 1
            cover += band.lo_m[0] <= target <= band.hi_m[0]
    assert cover / total >= 0.80


def test_band_undefined_outside_data_support():
    est, pr = fitted(seed=5, grid=np.array([0.0, 30.0]))
    band = attach_bands(est, pr, alpha=0.05)
    assert np.isfinite(band.lo_mu[0]) and np.isnan(band.lo_mu[1])
    assert band.undefined_mu == 1 and band.undefined_m == 1


def test_band_requires_local_linear_fit():
    path = simulate_path(default_model(), PathConfig(10.0, 500, seed=6))
    pr = build_proxy(path.y, path.delta)
    est = estimate_curve(pr, None, EstimatorConfig(0.05, method=NADARAYA_WATSON))
    with pytest.raises(ValidationError, match="local linear"):
        attach_bands(est, pr, alpha=0.05)


def test_alpha_validation():
    est, pr = fitted(seed=7, n=400)
    for bad in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(ValidationError):
            attach_bands(est, pr, alpha=bad)


def oracle_bands(est, pr, alpha, pilot_h):
    """The bands from separate passes: the density and the fourth-moment fit
    of their own, as the band formula reads in the module docstring."""
    mom = moments(est.kernel)
    z = _normal_critical(alpha)
    p_hat = density_estimate(pr, est.grid, est.kernel, est.h)
    cfg = EstimatorConfig(est.h, est.kernel, index_alignment=est.index_alignment)
    c4_raw, _, _ = fit_responses(pr, fourth_moment_responses(pr), est.grid, cfg)
    rate = np.sqrt(est.n_terms * est.delta * est.h)
    out = {}
    for name, resp, estimate, spread in (
        ("mu", drift_responses(pr), est.mu_hat, est.m_hat),
        ("m", second_moment_responses(pr), est.m_hat, FOURTH_MOMENT_SCALE * c4_raw),
    ):
        c2 = second_derivative_fit(pr, resp, est.grid, est.kernel, pilot_h, est.index_alignment)
        center = estimate - 0.5 * est.h**2 * c2 * bias_constant(mom.k1)
        ok = np.isfinite(center) & (p_hat > 1e-10) & np.isfinite(spread) & (spread >= 0.0)
        half = z * np.sqrt(mom.v * np.where(ok, spread, np.nan) / p_hat) / rate
        out[f"lo_{name}"], out[f"hi_{name}"] = center - half, center + half
    return out


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV])
@pytest.mark.parametrize("alignment", ["aligned", "as_written"])
def test_bands_from_the_curve_pass_match_separate_density_and_fourth_moment_passes(
    kernel, alignment
):
    path = simulate_path(example_model(1), PathConfig(10.0, 1500, seed=8))
    pr = build_proxy(path.y, path.delta)
    h = rule_of_thumb(pr).h
    # the inner grid, and points where some or every kernel weight vanishes
    grid = np.concatenate([np.linspace(-0.6, 0.6, 41), [-30.0, 30.0]])
    est = estimate_curve(pr, grid, EstimatorConfig(h, kernel, index_alignment=alignment))
    cfg = EstimatorConfig(h, kernel, index_alignment=alignment)
    m4_oracle, _, _ = fit_responses(pr, fourth_moment_responses(pr), grid, cfg)
    assert_column_agree(est.m4_hat, m4_oracle)
    bands = attach_bands(est, pr, alpha=0.05, pilot_h=2.0 * h)
    for name, want in oracle_bands(est, pr, 0.05, 2.0 * h).items():
        assert_column_agree(getattr(bands, name), want)
    assert np.isnan(bands.lo_m[-2:]).all() and np.isfinite(bands.lo_m[:-2]).any()


def assert_column_agree(got, want):
    """Same NaN pattern, values within 1e-12 of the column's largest magnitude."""
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = np.isfinite(want)
    scale = np.max(np.abs(want[ok]))
    assert np.max(np.abs(got[ok] - want[ok])) <= 1e-12 * scale


def test_bands_add_only_the_local_cubic_kernel_pass(monkeypatch):
    est, pr = fitted(seed=9, n=400)
    degrees = []
    power_sums = estimators._power_sums

    def counted(*args, **kwargs):
        degrees.append(args[6])
        return power_sums(*args, **kwargs)

    monkeypatch.setattr(estimators, "_power_sums", counted)
    attach_bands(est, pr, alpha=0.05)
    assert degrees == [3]
    estimate_curve(pr, est.grid, EstimatorConfig(est.h))
    assert degrees == [3, 1]


def test_band_needs_the_fourth_moment_fit_of_the_estimate():
    est, pr = fitted(seed=10, n=400)
    with pytest.raises(ValidationError, match="fourth-moment"):
        attach_bands(replace(est, m4_hat=None), pr)
