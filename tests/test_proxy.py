import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lljd.errors import ValidationError
from lljd.proxy import ProxySeries, build_log_proxy, build_proxy
from lljd.simulate import PathConfig, default_model, derive_seeds, simulate_path


def test_linear_integrated_series_gives_constant_proxy():
    pr = build_proxy([0.0, 1.0, 2.0, 3.0], delta=1.0)
    assert np.array_equal(pr.xt, [1.0, 1.0, 1.0])


def test_sampled_linear_ramp_recovers_slope():
    t = np.arange(8) * 0.5
    pr = build_proxy(2.5 + 3.0 * t, delta=0.5)
    assert np.allclose(pr.xt, 3.0, atol=1e-12)


def test_non_finite_entry_reports_index():
    y = np.array([0.0, 1.0, np.nan, 3.0])
    with pytest.raises(ValidationError, match="index 2"):
        build_proxy(y, delta=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_proxy_entry_is_named_by_its_index(bad):
    with pytest.raises(ValidationError, match=r"^non-finite proxy entry at index 1$"):
        ProxySeries(delta=0.1, xt=np.array([0.2, bad, 0.3, bad]))


def test_proxy_series_must_be_one_dimensional():
    with pytest.raises(ValidationError, match="one-dimensional"):
        ProxySeries(delta=0.1, xt=np.zeros((4, 2)))


@pytest.mark.parametrize("delta", [0.0, -1.0, np.inf, np.nan])
def test_bad_delta_is_reported_before_a_bad_entry(delta):
    with pytest.raises(ValidationError, match="delta must be positive and finite"):
        ProxySeries(delta=delta, xt=np.array([0.2, np.nan, 0.3]))


def test_proxy_that_overflows_is_named_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^non-finite proxy entry at index 1$"):
            build_proxy([0.0, 1.0, 1e308, 1e308], delta=1e-3)


@settings(max_examples=50)
@given(
    st.lists(st.floats(-50, 50), min_size=3, max_size=40),
    st.floats(0.01, 4.0),
)
def test_cumulative_identity(values, delta):
    y = np.asarray(values)
    pr = build_proxy(y, delta)
    assert np.sum(pr.xt) * delta == pytest.approx(y[-1] - y[0], abs=1e-9)


@settings(max_examples=50)
@given(
    st.lists(st.floats(-50, 50), min_size=3, max_size=40),
    st.floats(-100, 100),
)
def test_shift_equivariance(values, shift):
    y = np.asarray(values)
    a = build_proxy(y, 0.5).xt
    b = build_proxy(y + shift, 0.5).xt
    assert np.allclose(a, b, atol=1e-9)


def test_log_proxy_flat_prices():
    pr = build_log_proxy([100.0, 100.0, 100.0], delta=1.0)
    assert np.array_equal(pr.xt, [0.0, 0.0])


def test_log_proxy_single_return_value():
    prices = [100.0, 100.0 * np.exp(0.01), 100.0 * np.exp(0.01)]
    pr = build_log_proxy(prices, delta=1.0 / 48.0)
    assert pr.xt[0] == pytest.approx(0.48, rel=1e-12)


def test_log_proxy_rejects_nonpositive_price_with_row():
    with pytest.raises(ValidationError, match="row 1"):
        build_log_proxy([100.0, 0.0, 101.0], delta=1.0)


def test_proxy_tracks_latent_state_at_vanishing_step():
    # halving the step (same span) should shrink the proxy gap roughly like
    # sqrt(step * log(1/step)): ratio of RMS gaps in [1.2, 2.0]
    model = default_model()
    ratios = []
    for seed in derive_seeds(11, 20):
        gaps = []
        for n in (500, 1000):
            path = simulate_path(model, PathConfig(t_span=5.0, n=n, seed=seed))
            pr = build_proxy(path.y, path.delta)
            gaps.append(np.sqrt(np.mean((pr.xt - path.x[:-1]) ** 2)))
        ratios.append(gaps[0] / gaps[1])
    assert 1.2 <= np.mean(ratios) <= 2.0
