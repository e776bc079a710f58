import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lljd.simulate

from lljd.errors import NumericalError, ValidationError
from lljd.simulate import (
    CompoundPoisson,
    JumpSizeDist,
    ModelSpec,
    NoJumps,
    PathConfig,
    VarianceGamma,
    default_model,
    derive_seeds,
    simulate_path,
    simulate_paths,
)
from lljd.simulate import _cp_jumps, _vg_increments


def cp_increments(lam, size, dt, rng, k):
    at, inc = _cp_jumps(lam, size, dt, rng, k)
    out = np.zeros(k)
    out[at] = inc
    return out


def test_cp_zero_intensity_is_always_zero():
    rng = np.random.default_rng(0)
    size = JumpSizeDist("normal", 0.0, 1.0)
    assert np.array_equal(cp_increments(0.0, size, 1.0, rng, 50), np.zeros(50))


def test_cp_mean_jump_count_matches_poisson_oracle():
    rng = np.random.default_rng(1)
    counts = rng.poisson(2.0, 100_000)
    assert abs(counts.mean() - 2.0) < 3.0 * np.sqrt(2.0 / 100_000)


def test_cp_increment_variance_identity():
    # over unit time, Var = lam * E[Z^2] = 2 * 0.036^2 = 0.002592
    rng = np.random.default_rng(2)
    size = JumpSizeDist("normal", 0.0, 0.036)
    draws = cp_increments(2.0, size, 1.0, rng, 100_000)
    assert draws.var() == pytest.approx(0.002592, rel=0.05)


def test_vg_pure_gamma_increment_mean():
    rng = np.random.default_rng(3)
    draws = _vg_increments(1.0, 0.0, 0.23, 1.0, rng, 100_000)
    assert draws.mean() == pytest.approx(1.0, rel=0.01)


def test_vg_increment_variance_identity():
    # Var(J_1) = c^2 b + eta^2 = 0.04*0.23 + 0.04 = 0.0492
    rng = np.random.default_rng(4)
    draws = _vg_increments(-0.2, 0.2, 0.23, 1.0, rng, 100_000)
    assert draws.var() == pytest.approx(0.0492, rel=0.05)


def test_vg_increments_deterministic_given_seed():
    a = _vg_increments(-0.2, 0.2, 0.23, 0.01, np.random.default_rng(9), 50)
    b = _vg_increments(-0.2, 0.2, 0.23, 0.01, np.random.default_rng(9), 50)
    assert np.array_equal(a, b)


def test_jump_spec_validation():
    with pytest.raises(ValidationError):
        VarianceGamma(c=0.0, eta=0.1, b=0.0)
    with pytest.raises(ValidationError):
        CompoundPoisson(lam=-1.0, size=JumpSizeDist("normal", 0.0, 1.0))
    with pytest.raises(ValidationError):
        JumpSizeDist("normal", 0.0, 0.0)
    with pytest.raises(ValidationError):
        JumpSizeDist("uniform", 0.0, 1.0)
    with pytest.raises(ValidationError):
        VarianceGamma(c=0.0, eta=0.1, b=-1.0)


def test_degenerate_dynamics_give_exact_linear_integral():
    model = ModelSpec(mu=lambda x: 0.0, sigma=lambda x: 0.0, jump=NoJumps(), x0=3.0, y0=1.0)
    cfg = PathConfig(t_span=2.0, n=10, seed=5, burn_in=0, substeps=4)
    path = simulate_path(model, cfg)
    assert np.allclose(path.x, 3.0, atol=0.0)
    expected = 1.0 + 3.0 * path.delta * np.arange(len(path.y))
    assert np.allclose(path.y, expected, atol=1e-12)


def test_identical_seed_gives_bitwise_identical_path():
    model = default_model(jump=CompoundPoisson(2.0, JumpSizeDist("normal", 0.0, 0.036)))
    cfg = PathConfig(t_span=5.0, n=300, seed=123)
    a = simulate_path(model, cfg)
    b = simulate_path(model, cfg)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_no_jump_stationary_variance_matches_moment_equation():
    # 2*(-10)*m2 + (0.1 + 0.1*m2) = 0  =>  m2 = 0.1/19.9
    path = simulate_path(default_model(), PathConfig(t_span=500.0, n=5000, seed=6))
    assert path.x.var() == pytest.approx(0.1 / 19.9, rel=0.10)


@pytest.mark.parametrize(
    "jump,rate",
    [
        (CompoundPoisson(2.0, JumpSizeDist("normal", 0.0, 0.036)), 2 * 0.036**2),
        (VarianceGamma(-0.2, 0.2, 0.23), 0.0492),
    ],
    ids=["cp", "vg"],
)
def test_jump_quadratic_variation_identity(jump, rate):
    # with mu = sigma = 0 the state increments are exactly the jump component;
    # realized quadratic variation over [0, T] averages to rate * T
    model = ModelSpec(mu=lambda x: 0.0, sigma=lambda x: 0.0, jump=jump)
    qvs = []
    for seed in derive_seeds(77, 20):
        path = simulate_path(model, PathConfig(t_span=50.0, n=1000, seed=seed, burn_in=0))
        qvs.append(np.sum(np.diff(path.x) ** 2))
    assert np.mean(qvs) == pytest.approx(rate * 50.0, rel=0.10)


def test_replicate_streams_are_uncorrelated():
    seeds = derive_seeds(31415, 2)
    assert seeds[0] != seeds[1]
    a = np.random.default_rng(seeds[0]).standard_normal(10_000)
    b = np.random.default_rng(seeds[1]).standard_normal(10_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_derive_seeds_stable_prefix():
    assert derive_seeds(42, 3) == derive_seeds(42, 5)[:3]


def test_explosion_reports_step_index():
    model = ModelSpec(mu=lambda x: 1e6 * (1.0 + x * x), sigma=lambda x: 0.0, jump=NoJumps())
    with pytest.raises(NumericalError, match="observation"):
        simulate_path(model, PathConfig(t_span=10.0, n=50, seed=0, burn_in=0))


def test_burn_in_discards_leading_observations():
    model = default_model(x0=5.0)
    with_burn = simulate_path(model, PathConfig(t_span=1.0, n=50, seed=8, burn_in=100))
    without = simulate_path(model, PathConfig(t_span=1.0, n=50, seed=8, burn_in=0))
    assert without.x[0] == 5.0
    assert abs(with_burn.x[0]) < 1.0  # mean reversion has pulled it in
    assert len(with_burn.x) == 52 and len(with_burn.y) == 52


def test_path_config_validation():
    with pytest.raises(ValidationError):
        PathConfig(t_span=0.0, n=10, seed=1)
    with pytest.raises(ValidationError):
        PathConfig(t_span=1.0, n=1, seed=1)
    with pytest.raises(ValidationError):
        PathConfig(t_span=1.0, n=10, seed=1, substeps=0)
    with pytest.raises(ValidationError):
        PathConfig(t_span=1.0, n=10, seed=1, burn_in=-1)


def upfront_path(spec, cfg):
    """Oracle: the Euler path with every draw taken up front from one
    generator (all diffusion normals, then the jump component) and stepped
    one scalar at a time."""
    n_obs = cfg.burn_in + cfg.n + 2
    m = cfg.substeps
    k_total = (n_obs - 1) * m
    dt = cfg.delta / m
    rng = np.random.default_rng(cfg.seed)
    z = (rng.standard_normal(k_total) * math.sqrt(dt)).tolist()
    jump = spec.jump
    j = np.zeros(k_total)
    if isinstance(jump, CompoundPoisson) and jump.lam > 0:
        j = cp_increments(jump.lam, jump.size, dt, rng, k_total)
    elif isinstance(jump, VarianceGamma):
        j = _vg_increments(jump.c, jump.eta, jump.b, dt, rng, k_total) - jump.c * dt
    j = j.tolist()
    xs, ys = [float(spec.x0)], [float(spec.y0)]
    x, y = xs[0], ys[0]
    for i in range(1, n_obs):
        for k in range((i - 1) * m, i * m):
            y += x * dt
            x += spec.mu(x) * dt + spec.sigma(x) * z[k] + j[k]
            if not -1e8 <= x <= 1e8:
                raise NumericalError(f"state explosion at observation {i} (substep {k + 1}): "
                                     f"x = {x!r}")
        xs.append(x)
        ys.append(y)
    return np.array(xs[cfg.burn_in:]), np.array(ys[cfg.burn_in:])


def mixed_lanes():
    cp = CompoundPoisson(2.0, JumpSizeDist("normal", 0.0, 0.036))
    cauchy = CompoundPoisson(5.0, JumpSizeDist("cauchy", 0.01, 0.02))
    return [
        (default_model(), PathConfig(t_span=3.0, n=211, seed=1, burn_in=0)),
        (default_model(jump=cp), PathConfig(t_span=10.0, n=433, seed=2, burn_in=37)),
        (default_model(jump=cauchy), PathConfig(t_span=4.0, n=97, seed=3, burn_in=5)),
        (default_model(jump=CompoundPoisson(0.0, JumpSizeDist("normal", 0.0, 1.0))),
         PathConfig(t_span=2.0, n=150, seed=4, burn_in=11)),
        (default_model(jump=VarianceGamma(-0.2, 0.2, 0.23)),
         PathConfig(t_span=6.0, n=389, seed=5, burn_in=200)),
        (default_model(jump=cp), PathConfig(t_span=1.0, n=2, seed=6, burn_in=0)),
    ]


def test_lanes_match_single_lane_paths_and_the_upfront_oracle(monkeypatch):
    lanes = mixed_lanes()
    oracle = [upfront_path(spec, cfg) for spec, cfg in lanes]
    # blocks of 7 observations (one lane) or one and two (several lanes), and
    # discards of 999 draws, divide no step count
    monkeypatch.setattr(lljd.simulate, "BLOCK_VALUES", 75)
    monkeypatch.setattr(lljd.simulate, "DISCARD_BLOCK", 999)
    for (spec, cfg), (x, y) in zip(lanes, oracle):
        path = simulate_path(spec, cfg)
        assert np.array_equal(path.x, x) and np.array_equal(path.y, y)
    order = list(range(len(lanes)))
    for shuffle_seed in (None, 0, 1):
        if shuffle_seed is not None:
            random.Random(shuffle_seed).shuffle(order)
        paths = simulate_paths([lanes[i] for i in order])
        for i, path in zip(order, paths):
            x, y = oracle[i]
            assert np.array_equal(path.x, x) and np.array_equal(path.y, y)
            assert (path.delta, path.seed) == (lanes[i][1].delta, lanes[i][1].seed)
    y_only = simulate_paths(lanes, record_x=False)
    assert all(p.x is None and np.array_equal(p.y, y) for p, (_, y) in zip(y_only, oracle))


def test_exploding_lane_fails_alone_and_leaves_its_neighbours_unchanged():
    boom = default_model(jump=CompoundPoisson(2.0, JumpSizeDist("cauchy", 0.0, 3e5)))
    calm = default_model(jump=CompoundPoisson(2.0, JumpSizeDist("normal", 0.0, 0.036)))
    lanes = [(boom, PathConfig(t_span=10.0, n=50, seed=s, burn_in=20))
             for s in derive_seeds(1, 30)]
    lanes += [(calm, PathConfig(t_span=10.0, n=n, seed=n, burn_in=20)) for n in (50, 80)]
    alone = []
    for spec, cfg in lanes:
        try:
            alone.append(simulate_path(spec, cfg))
        except NumericalError as exc:
            alone.append(exc)
    failed = [str(a) for a in alone if isinstance(a, NumericalError)]
    assert len(failed) == 3 and all("explosion at observation" in f for f in failed)
    for together, single in zip(simulate_paths(lanes), alone):
        if isinstance(single, NumericalError):
            assert isinstance(together, NumericalError) and str(together) == str(single)
        else:
            assert np.array_equal(together.x, single.x) and np.array_equal(together.y, single.y)


def test_lanes_must_share_the_state_equation():
    cfg = PathConfig(t_span=1.0, n=10, seed=1)
    with pytest.raises(ValidationError, match="share"):
        simulate_paths([(default_model(), cfg), (default_model(x0=1.0), cfg)])
    with pytest.raises(ValidationError, match="share"):
        simulate_paths([(default_model(), cfg),
                        (default_model(), PathConfig(t_span=1.0, n=10, seed=1, substeps=5))])
    assert simulate_paths([]) == []


def test_long_path_memory_is_its_retained_arrays():
    # 200k observations, 2M Euler steps; the retained x and y take 3.2 MB.
    # Measured as the growth of a fresh interpreter's peak RSS: tracemalloc
    # traces every float of the Python step loop and would take a minute.
    code = (
        "import resource, lljd.simulate as s\n"
        "model = s.default_model(jump=s.CompoundPoisson(2.0, s.JumpSizeDist('normal', 0.0, 0.036)))\n"
        "s.simulate_path(model, s.PathConfig(t_span=1.0, n=2, seed=1))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "path = s.simulate_path(model, s.PathConfig(t_span=2000.0, n=200_000, seed=3))\n"
        "assert len(path.y) == 200_002\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(lljd.simulate.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    growth_kb = int(proc.stdout)
    assert growth_kb < 16 * 1024
