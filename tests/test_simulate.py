import numpy as np
import pytest

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
)
from lljd.simulate import _cp_increments, _vg_increments


def test_cp_zero_intensity_is_always_zero():
    rng = np.random.default_rng(0)
    size = JumpSizeDist("normal", 0.0, 1.0)
    assert np.array_equal(_cp_increments(0.0, size, 1.0, rng, 50), np.zeros(50))


def test_cp_mean_jump_count_matches_poisson_oracle():
    rng = np.random.default_rng(1)
    counts = rng.poisson(2.0, 100_000)
    assert abs(counts.mean() - 2.0) < 3.0 * np.sqrt(2.0 / 100_000)


def test_cp_increment_variance_identity():
    # over unit time, Var = lam * E[Z^2] = 2 * 0.036^2 = 0.002592
    rng = np.random.default_rng(2)
    size = JumpSizeDist("normal", 0.0, 0.036)
    draws = _cp_increments(2.0, size, 1.0, rng, 100_000)
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
