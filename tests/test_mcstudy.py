import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lljd.mcstudy

from lljd.bandwidth import rule_of_thumb
from lljd.errors import NumericalError, ValidationError
from lljd.estimators import EstimatorConfig, default_grid, estimate_curve
from lljd.kernels import GAUSSIAN
from lljd.mcstudy import (
    QUANTILES,
    McConfig,
    example_model,
    qq_data,
    run_studies,
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
    simulate_paths,
)


def test_single_replicate_report_matches_manual_pipeline():
    cfg = McConfig(
        model=example_model(1),
        t_span=10.0,
        n=400,
        replicates=1,
        master_seed=51,
    )
    report = run_study(cfg)
    seed = derive_seeds(51, 1)[0]
    path = simulate_path(example_model(1), PathConfig(10.0, 400, seed=seed))
    pr = build_proxy(path.y, path.delta)
    h = rule_of_thumb(pr, 10.0).h
    grid = default_grid(pr)
    pts = np.concatenate([grid, np.quantile(pr.xt, QUANTILES), [0.0]])
    # both methods come from one pass of the kernel sums, with the bits of
    # their own estimate_curve
    for method in ("local_linear", "nadaraya_watson"):
        est = estimate_curve(pr, pts, EstimatorConfig(h, GAUSSIAN, method=method))
        assert report.estimates_at_x[method]["mu"][0] == est.mu_hat[-1]
        assert report.estimates_at_x[method]["m"][0] == est.m_hat[-1]
        assert report.mc_band[method]["grid"] == [float(v) for v in grid]
        assert report.mc_band[method]["mean"] == [float(v) for v in est.mu_hat[:101]]
        assert report.standardized[method] is None  # one replicate: no spread


def test_identical_master_seed_gives_identical_report():
    cfg = dict(model=example_model(1), t_span=5.0, n=200, replicates=8, master_seed=9)
    a = run_study(McConfig(**cfg)).to_dict()
    b = run_study(McConfig(**cfg)).to_dict()
    assert a == b


def test_each_replicate_path_is_simulated_once(monkeypatch):
    lanes = []

    def counting(batch, record_x=True):
        batch = list(batch)
        lanes.extend(cfg.seed for _, cfg in batch)
        return simulate_paths(batch, record_x)

    monkeypatch.setattr(lljd.mcstudy, "simulate_paths", counting)
    cfg = McConfig(model=example_model(1), t_span=5.0, n=200, replicates=7, master_seed=3)
    run_study(cfg)
    assert lanes == derive_seeds(3, 7)


def payloads(reports):
    return [json.dumps(r.to_dict()) for r in reports]


def test_lane_grouping_does_not_change_report(monkeypatch):
    a = McConfig(model=example_model(2), t_span=5.0, n=200, replicates=10, master_seed=13)
    b = McConfig(model=example_model(1), t_span=3.0, n=150, replicates=6, master_seed=4,
                 methods=("nadaraya_watson",))
    c = McConfig(model=default_model(x0=0.5), t_span=4.0, n=120, replicates=5, master_seed=8)
    alone = payloads([run_study(a), run_study(b), run_study(c)])
    assert payloads(run_studies([a, b, c])) == alone
    assert payloads(run_studies([c, a, b])) == [alone[2], alone[0], alone[1]]
    # batches of at most two lanes of a, so a config spans several batches
    monkeypatch.setattr(lljd.mcstudy, "LANE_SAMPLES", 2 * (a.n + 2))
    assert payloads(run_studies([a, b, c])) == alone


def batches_of(cfgs):
    lanes = [(c, r, seed) for c, cfg in enumerate(cfgs)
             for r, seed in enumerate(derive_seeds(cfg.master_seed, cfg.replicates))]
    return lanes, list(lljd.mcstudy._lane_batches(cfgs, lanes))


def test_lane_batches_keep_a_seeds_lanes_together_within_the_bound(monkeypatch):
    # replicate r of the nine table-2 configs is one seed, whose lanes hold
    # 12,018 samples; a tenth config has seeds of its own, 302 samples a lane
    cfgs = table_presets(2, replicates=7, master_seed=3) + [
        McConfig(model=example_model(1), t_span=5.0, n=300, replicates=4, master_seed=8)]
    for bound in (3 * 12_018, 30_000, 2_000):
        monkeypatch.setattr(lljd.mcstudy, "LANE_SAMPLES", bound)
        lanes, batches = batches_of(cfgs)
        assert sorted(lane for batch in batches for lane in batch) == sorted(lanes)
        batch_of_seed, first_batch = {}, {}
        for k, batch in enumerate(batches):
            assert sum(cfgs[c].n + 2 for c, _, _ in batch) <= bound or len(batch) == 1
            for c, r, seed in batch:
                batch_of_seed.setdefault(seed, set()).add(k)
                first_batch.setdefault(c, (k, r))
        # every config's replicate 0 is simulated first, in the first batch
        # whenever replicate 0 of all configs fits in one
        assert all(r == 0 for _, r in first_batch.values())
        if bound >= 12_018 + 302:
            assert all(len(ks) == 1 for ks in batch_of_seed.values())
            assert {k for k, _ in first_batch.values()} == {0}
    assert max(len(ks) for ks in batch_of_seed.values()) > 1  # a split inside a seed


def test_each_seed_places_its_jump_streams_in_one_pass(monkeypatch):
    # replicate r of three CP, three VG and one jump-free config share a seed:
    # one discard pass over the seed's normals places all six jump streams,
    # and each VG lane places its clock's normals by a pass of its own
    calls = []
    placed_after = lljd.simulate._placed_after

    def counting(rng, draw, counts):
        calls.append((draw, list(counts)))
        return placed_after(rng, draw, counts)

    monkeypatch.setattr(lljd.simulate, "_placed_after", counting)
    cfgs = table_presets(2, 3, 5)[:3] + table_presets(6, 3, 5)[3:6] + [
        McConfig(model=default_model(), t_span=10.0, n=500, replicates=3, master_seed=5)]
    run_studies([replace(c, methods=("local_linear",), grid_n=11) for c in cfgs])
    normals = [counts for draw, counts in calls if draw is np.random.Generator.standard_normal]
    assert len(normals) == 3 and all(len(counts) == 6 for counts in normals)
    assert all(counts == sorted(counts) for counts in normals)
    assert len(calls) == 3 + 3 * 3


def test_lane_batch_memory_does_not_grow_with_replicates(monkeypatch):
    import tracemalloc

    # batches of 16 lanes: 48 replicates take three batches, which must not
    # be held at once
    n = 2000
    monkeypatch.setattr(lljd.mcstudy, "LANE_SAMPLES", 16 * (n + 2))
    batch_bytes = 8 * 16 * (n + 2)

    def peak(replicates):
        cfg = McConfig(model=example_model(1), t_span=4.0, n=n, replicates=replicates,
                       master_seed=6, methods=("local_linear",), grid_n=11)
        tracemalloc.start()
        run_study(cfg)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    peak(1)  # first-call imports and caches
    one_batch, three_batches = peak(16), peak(48)
    assert three_batches < one_batch + 0.5 * batch_bytes


def test_study_reports_partial_failures_and_continues():
    model = default_model(
        jump=CompoundPoisson(2.0, JumpSizeDist("cauchy", 0.0, 1e5))
    )
    cfg = McConfig(
        model=model,
        t_span=10.0,
        n=50,
        replicates=30,
        master_seed=1,
        methods=("local_linear",),
    )
    report = run_study(cfg)
    assert report.skipped == 2
    assert len(report.failures) == 2
    assert all("explosion" in f for f in report.failures)
    assert np.isfinite(report.rmse["local_linear"])
    assert sum(np.isnan(report.rmse_per_replicate["local_linear"])) == 2


def test_study_aborts_when_too_many_replicates_fail():
    model = default_model(
        jump=CompoundPoisson(2.0, JumpSizeDist("cauchy", 0.0, 5e5))
    )
    cfg = McConfig(
        model=model,
        t_span=10.0,
        n=50,
        replicates=30,
        master_seed=2,
        methods=("local_linear",),
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


def test_mc_band_percentiles_match_nan_aware_percentiles():
    # the band takes plain percentiles when no replicate curve has NaN; they
    # must equal the NaN-aware ones bit for bit, and NaN must still be skipped
    cfg = McConfig(model=example_model(1), t_span=10.0, n=50, replicates=40,
                   master_seed=1, methods=("local_linear",))
    grid = np.linspace(-0.5, 0.5, 7)
    curves = np.random.default_rng(3).normal(size=(40, 7))
    holed = curves.copy()
    holed[::3, 2] = np.nan
    for mu in (curves, holed):
        results = [{"local_linear": {"mu_grid": row, "bias_q": np.zeros(len(QUANTILES)),
                                     "mu_at_x": float(i), "m_at_x": 0.0}}
                   for i, row in enumerate(mu)]
        band = lljd.mcstudy._aggregate(cfg, results, grid).mc_band["local_linear"]
        lo, hi = np.nanpercentile(mu, [2.5, 97.5], axis=0)
        assert band["lo"] == lo.tolist() and band["hi"] == hi.tolist()
    assert np.all(np.isfinite(band["lo"]))


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


@pytest.mark.parametrize("n", [20, 101, 2000])
def test_qq_data_matches_scipy_quantiles_and_ks_distance(n):
    from scipy import stats

    rng = np.random.default_rng(n)
    for values in (rng.normal(size=n), rng.standard_t(3, n), rng.exponential(size=n)):
        pairs, ks = qq_data(values)
        std = (values - values.mean()) / values.std(ddof=1)
        theo = stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n)
        assert np.allclose(pairs[:, 0], theo, rtol=0.0, atol=1e-12)
        assert np.array_equal(pairs[:, 1], np.sort(std))
        assert ks == pytest.approx(stats.kstest(std, "norm").statistic, rel=0.0, abs=1e-12)


def test_qq_data_needs_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, numpy as np; from lljd.mcstudy import qq_data; "
            "qq_data(np.arange(30.0) ** 2); sys.exit('scipy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
        McConfig(model=model, t_span=1.0, n=100, replicates=1, master_seed=1, methods=("spline",))


def test_config_rejects_an_empty_grid_and_an_unknown_range_before_simulating(monkeypatch):
    calls = []
    monkeypatch.setattr(lljd.mcstudy, "simulate_paths", lambda *a, **k: calls.append(a))
    cfg = McConfig(model=example_model(1), t_span=1.0, n=100, replicates=2, master_seed=1)
    for bad, match in (({"grid_n": 0}, "grid_n"), ({"grid_n": -3}, "grid_n"),
                       ({"range_mode": "edge"}, "range mode 'edge'")):
        with pytest.raises(ValidationError, match=match):
            run_study(replace(cfg, **bad))
    assert calls == []
