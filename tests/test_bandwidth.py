import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lljd import bandwidth, estimators
from lljd.bandwidth import cross_validate, default_cv_grid, rule_of_thumb
from lljd.errors import ValidationError
from lljd.estimators import (
    CV_BINS,
    CV_H_BINS,
    DEGENERACY_FLOOR,
    LOCAL_LINEAR,
    NADARAYA_WATSON,
    EstimatorConfig,
    drift_responses,
    term_points,
)
from lljd.kernels import EPANECHNIKOV, GAUSSIAN
from lljd.mcstudy import example_model
from lljd.proxy import ProxySeries, build_log_proxy, build_proxy
from lljd.simulate import ModelSpec, NoJumps, PathConfig, simulate_path
from oracles import exact_cv


def series(values, delta=0.1):
    return ProxySeries(delta=delta, xt=np.asarray(values, dtype=float))


def test_rule_of_thumb_arithmetic():
    xt = series([0.0, 1.0, 2.0])  # sample sd exactly 1
    choice = rule_of_thumb(xt, t_span=10.0)
    assert choice.h == pytest.approx(1.06 * 10.0 ** (-0.2), rel=1e-15)
    assert choice.h == pytest.approx(0.66881, abs=1e-4)
    assert choice.method == "rule_of_thumb"


def test_rule_of_thumb_linear_in_spread():
    a = rule_of_thumb(series([0.0, 1.0, 2.0]), 10.0).h
    b = rule_of_thumb(series([0.0, 0.5, 1.0]), 10.0).h
    assert b == pytest.approx(0.5 * a, rel=1e-14)


def test_rule_of_thumb_unit_span():
    xt = series([0.0, 1.0, 2.0])
    assert rule_of_thumb(xt, 1.0).h == pytest.approx(1.06, rel=1e-15)


def test_rule_of_thumb_default_span_from_series():
    xt = series(np.arange(50.0), delta=0.2)
    assert rule_of_thumb(xt).h == rule_of_thumb(xt, 50 * 0.2).h


@pytest.mark.parametrize("t_span", [0.0, -1.0, math.nan, math.inf])
def test_rule_of_thumb_rejects_a_span_that_is_not_finite_and_positive(t_span):
    with pytest.raises(ValidationError, match="positive and finite"):
        rule_of_thumb(series([0.0, 1.0, 2.0]), t_span)


def test_rule_of_thumb_degenerate_sample():
    with pytest.raises(ValidationError, match="degenerate sample"):
        rule_of_thumb(series(np.ones(10)), 10.0)


@pytest.mark.parametrize("values", [[0.5], [0.5, 1.5]], ids=["one", "two"])
def test_rule_of_thumb_names_a_too_short_series_without_a_warning(values):
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^proxy series must have length >= 3$"):
            rule_of_thumb(series(values))


@settings(max_examples=30)
@given(st.floats(-50, 50))
def test_rule_of_thumb_shift_invariant(shift):
    rng = np.random.default_rng(7)
    values = rng.normal(0.0, 1.0, 40)
    a = rule_of_thumb(series(values), 10.0).h
    b = rule_of_thumb(series(values + shift), 10.0).h
    assert b == pytest.approx(a, rel=1e-9)


def brute_force_cv(xt, h_grid, cfg):
    """Independent scalar-loop recomputation of the leave-one-out score."""
    kpts, ppts = term_points(xt, cfg.index_alignment)
    resp = drift_responses(xt)
    n = len(resp)
    mean = resp.mean()
    k = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)  # the Gaussian kernel
    out = []
    for h in h_grid:
        sse = 0.0
        for i in range(n):
            drop = {i - 1, i, i + 1}
            s0 = s1 = s2 = t0 = t1 = 0.0
            for j in range(n):
                if j in drop:
                    continue
                kv = k((kpts[j] - ppts[i]) / h)
                d = ppts[j] - ppts[i]
                s0 += kv
                s1 += kv * d
                s2 += kv * d * d
                t0 += kv * resp[j]
                t1 += kv * d * resp[j]
            if cfg.method == NADARAYA_WATSON:  # degree 0: the local mean
                defined = s0 >= DEGENERACY_FLOOR * n
                pred = t0 / s0 if defined else mean
            else:
                det = s0 * s2 - s1 * s1
                defined = s0 >= DEGENERACY_FLOOR * n and det > 0
                pred = (s2 * t0 - s1 * t1) / det if defined else mean
            sse += (resp[i] - pred) ** 2
        out.append(sse / n)
    return np.array(out)


def oracle_case():
    model = ModelSpec(
        mu=lambda x: -x + 3.0 * np.sin(3.0 * x), sigma=lambda x: 1.0, jump=NoJumps()
    )
    path = simulate_path(model, PathConfig(t_span=60.0, n=300, seed=21, burn_in=50))
    return build_proxy(path.y, path.delta), np.geomspace(0.05, 5.0, 8)


@pytest.mark.parametrize("method", [LOCAL_LINEAR, NADARAYA_WATSON])
@pytest.mark.parametrize("alignment", ["aligned", "as_written"])
def test_cv_matches_brute_force_oracle_and_is_u_shaped(alignment, method):
    xt, h_grid = oracle_case()
    cfg = EstimatorConfig(bandwidth=1.0, method=method, index_alignment=alignment)
    choice = exact_cv(xt, h_grid, cfg)
    oracle = brute_force_cv(xt, h_grid, cfg)
    got = np.array([c for _, c in choice.cv_curve])
    assert np.allclose(got, oracle, rtol=1e-10)
    assert choice.h == h_grid[np.argmin(oracle)]
    # U shape: the optimum is interior
    best = int(np.argmin(oracle))
    assert 0 < best < len(h_grid) - 1


def test_cv_matches_brute_force_oracle_under_tiny_tiles(monkeypatch):
    # 298 terms in 16-point row tiles by 100-term blocks: the deletion window
    # of CV crosses both row and term block boundaries
    monkeypatch.setattr(estimators, "TILE_ROWS", 16)
    monkeypatch.setattr(estimators, "TILE_ELEMENTS", 16 * 100)
    xt, h_grid = oracle_case()
    cfg = EstimatorConfig(bandwidth=1.0)
    got = np.array([c for _, c in exact_cv(xt, h_grid, cfg).cv_curve])
    assert np.allclose(got, brute_force_cv(xt, h_grid, cfg), rtol=1e-10)


@pytest.mark.parametrize("n_grid", [1, 5, 25])
def test_exact_cv_calls_the_engine_once_per_bandwidth(monkeypatch, n_grid):
    calls = []
    engine = estimators._power_sums

    def counted(kpts, ppts, cols, tops, grid, kernel, h, window):
        calls.append((grid, h, window))
        return engine(kpts, ppts, cols, tops, grid, kernel, h, window)

    monkeypatch.setattr(estimators, "_power_sums", counted)
    rng = np.random.default_rng(14)
    xt = series(np.cumsum(rng.normal(0.0, 0.1, 80)))
    h_grid = np.geomspace(0.05, 1.0, n_grid)
    choice = exact_cv(xt, h_grid, EstimatorConfig(1.0))
    assert len(calls) == len(choice.cv_curve) == n_grid
    # each call: every term's regressor point, with the deletion window of its term
    ppts = term_points(xt)[1]
    terms = np.arange(len(ppts))
    for (grid, h, (lo, hi)), want in zip(calls, h_grid):
        assert h == want and np.array_equal(grid, ppts)
        assert np.array_equal(lo, terms - 1) and np.array_equal(hi, terms + 2)


def test_cv_working_memory_stays_small():
    # 1,000 terms and default grids of 25 and 100 bandwidths: 16 MB kernel
    # tiles, a 1000 x 1000 matrix (8 MB) or the sums of every h at once
    # (4.8 MB at 100 h) would each break the bound
    rng = np.random.default_rng(15)
    noise = rng.normal(0.0, 0.1, 1002)
    x = np.empty_like(noise)
    x[0] = 0.0
    for i in range(1, len(x)):
        x[i] = 0.9 * x[i - 1] + noise[i]
    xt = series(x, delta=0.01)
    for n_points in (25, 100):
        grid = default_cv_grid(rule_of_thumb(xt).h, n_points)
        tracemalloc.start()
        try:
            choice = exact_cv(xt, grid, EstimatorConfig(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(choice.cv_curve) == n_points
        assert peak < 3e6


def test_cv_near_zero_for_noiseless_affine_relation():
    # proxy recursion engineered so drift responses are exactly affine in the state
    delta = 0.1
    a, b = 0.7, -0.4
    xt = [1.0]
    for _ in range(60):
        xt.append(xt[-1] + delta * (a + b * xt[-1]))
    xt = series(xt, delta=delta)
    grid = np.array([0.05, 0.1, 0.2])
    cfg = EstimatorConfig(1.0, index_alignment="as_written")
    choice = exact_cv(xt, grid, cfg)
    assert all(cv < 1e-16 for _, cv in choice.cv_curve)
    # binned sums reproduce an affine relation only up to their binning error
    choice = cross_validate(xt, grid, cfg)
    assert all(cv < 1e-8 * drift_responses(xt).var() for _, cv in choice.cv_curve)


def test_cv_exact_tie_returns_smaller_bandwidth():
    rng = np.random.default_rng(8)
    xt = series(rng.normal(0.0, 1.0, 50))
    h = 0.6
    choice = cross_validate(xt, np.array([h, h]), EstimatorConfig(1.0))
    assert choice.h == h
    assert choice.cv_curve[0][1] == choice.cv_curve[1][1]


def test_cv_single_element_grid():
    rng = np.random.default_rng(9)
    xt = series(rng.normal(0.0, 1.0, 40))
    choice = cross_validate(xt, np.array([0.5]), EstimatorConfig(1.0))
    assert choice.h == 0.5


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_cv_result_belongs_to_grid_and_is_nonnegative(seed):
    rng = np.random.default_rng(seed)
    xt = series(rng.normal(0.0, 1.0, 35))
    grid = np.sort(rng.uniform(0.05, 3.0, 5))
    choice = cross_validate(xt, grid, EstimatorConfig(1.0))
    assert choice.h in grid
    assert all(cv >= 0.0 for _, cv in choice.cv_curve if np.isfinite(cv))


def test_cv_refined_grid_does_not_worsen_optimum():
    rng = np.random.default_rng(10)
    xt = series(np.cumsum(rng.normal(0.0, 0.1, 60)))
    coarse = np.geomspace(0.05, 1.6, 6)
    refined = np.sort(np.concatenate([coarse, np.sqrt(coarse[:-1] * coarse[1:])]))
    cfg = EstimatorConfig(1.0)
    best_coarse = min(cv for _, cv in cross_validate(xt, coarse, cfg).cv_curve)
    best_refined = min(cv for _, cv in cross_validate(xt, refined, cfg).cv_curve)
    assert best_refined <= best_coarse + 1e-12


def test_cv_penalises_degenerate_leave_one_out_fits():
    # far outliers: deleting their neighbourhood leaves nothing local, so those
    # terms fall back to the global-mean penalty; a bandwidth at which every
    # term degenerates is undefined outright
    xt = series(np.concatenate([np.linspace(0, 1, 30), [50.0, 50.001, 50.002, 50.003]]))
    grid = np.array([1e-4, 0.2])
    choice = cross_validate(xt, grid, EstimatorConfig(1.0))
    assert np.isnan(choice.cv_curve[0][1])
    assert np.isfinite(choice.cv_curve[1][1])
    assert choice.cv_degenerate[1] > 0
    assert choice.h == 0.2


def test_cv_rejects_fully_degenerate_grid():
    xt = series(np.linspace(0.0, 5.0, 30))
    with pytest.raises(ValidationError, match="bandwidth grid too narrow"):
        cross_validate(xt, np.array([1e-300]), EstimatorConfig(1.0))


def test_cv_grid_validation():
    xt = series(np.linspace(0.0, 5.0, 30))
    with pytest.raises(ValidationError):
        cross_validate(xt, np.array([]), EstimatorConfig(1.0))
    with pytest.raises(ValidationError):
        cross_validate(xt, np.array([0.5, 0.1]), EstimatorConfig(1.0))
    with pytest.raises(ValidationError):
        cross_validate(xt, np.array([-0.5, 0.1]), EstimatorConfig(1.0))
    # a non-finite entry is rejected, not scored as undefined or chosen
    for grid in ([0.05, math.inf], [0.05, math.nan], [math.nan, 0.5], [math.nan] * 3):
        with pytest.raises(ValidationError, match="must be finite, positive"):
            cross_validate(xt, np.array(grid), EstimatorConfig(1.0))
    # and so is a default grid around a non-finite or non-positive pilot
    for h_center, span in ((math.nan, 5.0), (math.inf, 5.0), (0.0, 5.0), (0.5, math.inf),
                           (0.5, math.nan), (0.5, 1.0)):
        with pytest.raises(ValidationError, match="finite positive pilot"):
            default_cv_grid(h_center, span=span)


def test_default_cv_grid_brackets_pilot():
    grid = default_cv_grid(0.5)
    assert len(grid) == 25
    assert grid[0] == pytest.approx(0.1) and grid[-1] == pytest.approx(2.5)
    assert np.all(np.diff(grid) > 0)


def binned_panel():
    """Pinned simulated paths: the five-minute benchmark model over 30 days
    and the mean-reverting compound Poisson model over T = 10."""
    out = []
    for which, t_span, n in ((2, 30.0, 1440), (1, 10.0, 1000)):
        for seed in (1, 2):
            path = simulate_path(example_model(which), PathConfig(t_span=t_span, n=n, seed=seed))
            out.append(build_proxy(path.y, path.delta))
    return out


def both_alignments(values, ids):
    """(value, alignment) parameters at both index alignments; an aligned
    one is identified by its value's id alone."""
    return [pytest.param(v, a, id=i if a == "aligned" else f"{i}-{a}")
            for a in ("aligned", "as_written") for v, i in zip(values, ids)]


def assert_backends_agree(xt, grid, cfg):
    """Binned CV against its exact oracle: the same h and degenerate counts,
    NaN in the same places and every CV value within 1e-4 relative."""
    exact = exact_cv(xt, grid, cfg)
    binned = cross_validate(xt, grid, cfg)
    assert binned.h == exact.h and binned.cv_degenerate == exact.cv_degenerate
    want = np.array([c for _, c in exact.cv_curve])
    got = np.array([c for _, c in binned.cv_curve])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.allclose(got, want, rtol=1e-4, atol=0.0, equal_nan=True)
    return exact, binned


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV])
@pytest.mark.parametrize("method, alignment", both_alignments([LOCAL_LINEAR, NADARAYA_WATSON],
                                                              [LOCAL_LINEAR, NADARAYA_WATSON]))
def test_binned_cv_agrees_with_exact_on_a_pinned_panel(kernel, method, alignment):
    fallbacks = degenerate = 0
    cfg = EstimatorConfig(1.0, kernel, method, alignment)
    for xt in binned_panel():
        grid = default_cv_grid(rule_of_thumb(xt).h)
        exact, binned = assert_backends_agree(xt, grid, cfg)
        fallbacks += binned.cv_exact_terms
        degenerate += sum(exact.cv_degenerate)
    # the panel reaches the fallback and the degenerate penalty
    assert fallbacks > 0 and degenerate > 0


@pytest.mark.parametrize("kernel, alignment", both_alignments([GAUSSIAN, EPANECHNIKOV],
                                                              ["kernel0", "kernel1"]))
def test_binned_leave_out_sums_drop_exactly_the_deleted_terms(kernel, alignment):
    # a hand-built series with ties, a wide gap and points in the first and
    # last bins: at each regressor i the binned leave-out sums must be the
    # binned sums of the terms k outside {i-1, i, i+1}, each term taken in the
    # bilinear form of the two bins of its kernel point against the two bins
    # of regressor i, with the power (u + e_k)^j, e_k = ppts[k] - kpts[k]
    xt = series([0.0, 0.3, 0.3, 1.7, 0.9, 2.5, 2.5, 0.05, 3.0, 1.1, 1.15, 0.3, 2.2,
                 2.9, 0.6, 1.7, 3.0, 0.0, 1.4, 2.45, 0.75, 0.3])
    kpts, ppts = term_points(xt, alignment)
    resp = drift_responses(xt)
    n = len(resp)
    lo = min(kpts.min(), ppts.min())
    span = max(kpts.max(), ppts.max()) - lo
    binning = estimators._Binning(kpts, ppts, resp, 1, 64, lo, span / 63, bandwidth.DELETED)
    h = 6.0 * binning.width
    s, t = np.empty((n, 3)), np.empty((n, 2, 1))
    binning.sums(h, kernel, s, t)
    (bk, fk, _), (bp, fp, _), width = binning.kbins, binning.pbins, binning.width
    e = ppts - kpts
    want_s, want_t = np.zeros((n, 3)), np.zeros((n, 2, 1))
    for i in range(n):
        for k in range(n):
            if k in (i - 1, i, i + 1):
                continue
            for a, wa in ((bp[i], 1.0 - fp[i]), (bp[i] + 1, fp[i])):
                for c, wc in ((bk[k], 1.0 - fk[k]), (bk[k] + 1, fk[k])):
                    u = (c - a) * width
                    kv = wa * wc * float(kernel.eval(u / h))
                    want_s[i] += kv * (u + e[k]) ** np.arange(3)
                    want_t[i, :, 0] += kv * (u + e[k]) ** np.arange(2) * resp[k]
    for got, want in ((s, want_s), (t, want_t)):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=0))


def test_binned_cv_bins_each_bandwidth_at_its_own_resolution():
    # each h gets the fewest bins, a power of two up to CV_BINS, that put
    # CV_H_BINS bins inside it; along the ascending grid the count never rises
    for xt in binned_panel():
        span = float(np.ptp(term_points(xt, "aligned")[0]))
        grid = default_cv_grid(rule_of_thumb(xt).h)
        bins = cross_validate(xt, grid, EstimatorConfig(1.0)).cv_bins
        assert len(bins) == len(grid) and None not in bins
        assert all(a >= b for a, b in zip(bins, bins[1:])) and bins[0] <= CV_BINS
        for h, m in zip(grid, bins):
            if m < CV_BINS:
                assert h * (m - 1) / span >= CV_H_BINS > h * (m // 2 - 1) / span
        assert len(set(bins)) > 1


def test_binned_cv_keeps_the_degenerate_penalty_pattern():
    # the far outliers of the penalty test: h = 1e-4 is too narrow for the
    # bins and is scored exactly; at the wider h the outliers' leave-out fits
    # are empty and fall back to the exact engine, which finds them degenerate
    xt = series(np.concatenate([np.linspace(0, 1, 30), [50.0, 50.001, 50.002, 50.003]]))
    grid = np.array([1e-4, 0.2, 0.5, 1.0])
    _, binned = assert_backends_agree(xt, grid, EstimatorConfig(1.0))
    assert binned.cv_degenerate[0] == 32 and min(binned.cv_degenerate[1:]) > 0
    assert binned.cv_bins[0] is None and None not in binned.cv_bins[1:]
    assert np.isnan(binned.cv_curve[0][1])
    # 32 terms at h = 1e-4, then the two outlier terms at each wider h
    assert binned.cv_exact_terms >= 32 + 2 * 3


@pytest.mark.parametrize("n_terms", [2_000, 20_000])
def test_binned_cv_working_memory_stays_small(n_terms):
    # the bins and one bandwidth's sums: O(n + bins), no [H, n] arrays; the
    # 25 x 20,000 float64 arrays of a whole-grid pass would be 4 MB each
    rng = np.random.default_rng(16)
    noise = rng.normal(0.0, 0.1, n_terms + 2)
    x = np.empty_like(noise)
    x[0] = 0.0
    for i in range(1, len(x)):
        x[i] = 0.9 * x[i - 1] + noise[i]
    xt = series(x, delta=0.01)
    grid = default_cv_grid(rule_of_thumb(xt).h)
    cross_validate(xt, grid[:1], EstimatorConfig(1.0))  # first-call imports
    tracemalloc.start()
    try:
        choice = cross_validate(xt, grid, EstimatorConfig(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(choice.cv_curve) == 25
    assert peak < 8e6


def test_the_cv_oracle_scores_every_term_exactly():
    xt = series(np.cumsum(np.random.default_rng(17).normal(0.0, 0.1, 80)))
    grid = np.geomspace(0.05, 1.0, 3)
    for alignment in ("aligned", "as_written"):
        cfg = EstimatorConfig(1.0, index_alignment=alignment)
        binned = cross_validate(xt, grid, cfg)
        assert None not in binned.cv_bins and binned.cv_exact_terms < 3 * 78
        choice = exact_cv(xt, grid, cfg)
        assert (choice.cv_bins, choice.cv_exact_terms) == ((None,) * 3, 3 * 78)


def test_binned_cv_scores_bandwidths_below_the_bin_resolution_exactly():
    # one far outlier stretches the bins to ~0.06 wide: the two smaller h
    # span fewer than CV_BINS_PER_H bins and are scored by the exact engine
    rng = np.random.default_rng(18)
    xt = series(np.insert(rng.normal(0.0, 1.0, 1500), 700, 1000.0))
    exact, binned = assert_backends_agree(xt, np.array([0.05, 0.3, 3.0]),
                                          EstimatorConfig(1.0))
    assert binned.cv_exact_terms >= 2 * 1499
    # those two h are the oracle's, bit for bit
    assert binned.cv_bins[:2] == (None, None) and binned.cv_bins[2] is not None
    assert binned.cv_curve[:2] == exact.cv_curve[:2]
    assert binned.cv_degenerate[:2] == exact.cv_degenerate[:2]


def test_binned_cv_matches_exact_at_epanechnikov_support_edges():
    # five-minute stand-in (panel entry 12 of the benchmark), smallest three h
    # of its default grid: sparse-tail terms keep one term inside the support
    # after deletion, which exactly is a degenerate design, and terms just
    # beyond the support enter the binned sums with small weights; without
    # the kernel-mass test those fits looked well conditioned, and the
    # degenerate counts and CV values (7e-4 relative) differed from exact
    model = dataclasses.replace(example_model(2), x0=0.0, y0=math.log(2000.0))
    path = simulate_path(model, PathConfig(t_span=100.0, n=4800, seed=12))
    xt = build_log_proxy(np.exp(path.y), 1.0 / 48)
    grid = default_cv_grid(rule_of_thumb(xt).h)[:3]
    exact, _ = assert_backends_agree(xt, grid, EstimatorConfig(1.0, EPANECHNIKOV))
    assert min(exact.cv_degenerate) > 0


def lone_designs(xt, h, alignment):
    """The terms whose Epanechnikov leave-out design at h has fewer than two
    distinct regressor values inside the support."""
    kpts, ppts = term_points(xt, alignment)
    count = 0
    for i, x in enumerate(ppts):
        j = np.flatnonzero(np.abs(kpts - x) < h)
        count += len(set(ppts[j[np.abs(j - i) > 1]])) < 2
    return count


@pytest.mark.parametrize("alignment", ["aligned", "as_written"])
def test_cv_counts_a_design_singular_up_to_rounding_as_degenerate(alignment):
    # 10.0 and 10.1, far apart in the series: deleting either leaves the
    # other one term inside the support, whose S_0 S_2 - S_1^2 is rounding
    # noise. Binned CV and its oracle count every such term as degenerate
    rng = np.random.default_rng(12)
    bulk = np.clip(rng.normal(0.0, 1.0, 200), -3, 3)
    xt = series(np.concatenate([bulk[:100], [10.0], bulk[100:], [10.1, 0.0, 0.1]]))
    grid = np.array([0.2, 0.3])
    exact, _ = assert_backends_agree(xt, grid, EstimatorConfig(1.0, EPANECHNIKOV,
                                                               index_alignment=alignment))
    assert exact.cv_degenerate == tuple(lone_designs(xt, h, alignment) for h in grid)
    assert min(exact.cv_degenerate) >= 2


@pytest.mark.parametrize("kernel", [GAUSSIAN, EPANECHNIKOV])
def test_binned_cv_matches_exact_on_tied_tail_points(kernel):
    # six tied values in the tail: a leave-out fit there rests on five terms
    # at one place, an exactly collinear design, but their bins spread them
    # by up to a bin; the spread test hands those fits to the exact engine
    rng = np.random.default_rng(20)
    x = rng.normal(0.0, 1.0, 600)
    x[[100, 200, 300, 400, 500, 550]] = 6.0
    x[250] = 9.0  # keeps the tied value off the last bin
    grid = np.geomspace(0.05, 0.5, 4)
    exact, _ = assert_backends_agree(series(x), grid, EstimatorConfig(1.0, kernel))
    assert max(exact.cv_degenerate) >= 7
