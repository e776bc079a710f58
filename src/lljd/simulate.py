"""Simulation of integrated jump-diffusions.

Generates discretely observed trajectories of the coupled system

    dY = X dt,
    dX = mu(X) dt + sigma(X) dW + dJ,

where J is either a compound Poisson process (finite activity), a Variance
Gamma process (infinite activity), or absent. X is advanced by Euler steps on
a refined internal grid; Y is advanced by the left-point rule on the same
grid, matching the left-limit form of the state equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "JumpSizeDist",
    "NoJumps",
    "CompoundPoisson",
    "VarianceGamma",
    "JumpSpec",
    "ModelSpec",
    "PathConfig",
    "SamplePath",
    "default_model",
    "simulate_path",
    "derive_seeds",
]

EXPLOSION_BOUND = 1e8


@dataclass(frozen=True)
class JumpSizeDist:
    """Jump size distribution: 'normal' or 'cauchy' with location/scale."""

    family: str
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in ("normal", "cauchy"):
            raise ValidationError(f"unknown jump size family {self.family!r}")
        if self.scale <= 0 or not math.isfinite(self.scale):
            raise ValidationError(f"jump size scale must be positive, got {self.scale}")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.family == "normal":
            return rng.normal(self.loc, self.scale, n)
        return self.loc + self.scale * rng.standard_cauchy(n)

    @property
    def second_moment(self) -> float:
        """E[Z^2]; infinite for Cauchy sizes."""
        if self.family == "normal":
            return self.loc**2 + self.scale**2
        return math.inf


@dataclass(frozen=True)
class NoJumps:
    pass


@dataclass(frozen=True)
class CompoundPoisson:
    lam: float
    size: JumpSizeDist

    def __post_init__(self):
        if self.lam < 0 or not math.isfinite(self.lam):
            raise ValidationError(f"jump intensity must be >= 0, got {self.lam}")


@dataclass(frozen=True)
class VarianceGamma:
    """Brownian motion with drift c and volatility eta run on an independent
    Gamma clock with unit mean rate and variance parameter b."""

    c: float
    eta: float
    b: float

    def __post_init__(self):
        if self.b <= 0 or not math.isfinite(self.b):
            raise ValidationError(f"Gamma variance parameter b must be > 0, got {self.b}")
        if self.eta < 0:
            raise ValidationError(f"subordinated volatility eta must be >= 0, got {self.eta}")


JumpSpec = Union[NoJumps, CompoundPoisson, VarianceGamma]


@dataclass(frozen=True)
class ModelSpec:
    """Drift, diffusion and jump specification of the latent state."""

    mu: Callable
    sigma: Callable
    jump: JumpSpec = field(default_factory=NoJumps)
    x0: float = 0.0
    y0: float = 0.0
    name: str = "custom"


def _mean_reverting_mu(x):
    return -10.0 * x


def _smile_sigma(x):
    return (0.1 + 0.1 * x * x) ** 0.5


def default_model(jump: JumpSpec = NoJumps(), x0: float = 0.0, y0: float = 0.0) -> ModelSpec:
    """Mean-reverting benchmark model: mu(x) = -10x, sigma(x) = sqrt(0.1 + 0.1 x^2)."""
    return ModelSpec(
        mu=_mean_reverting_mu, sigma=_smile_sigma, jump=jump, x0=x0, y0=y0, name="default"
    )


@dataclass(frozen=True)
class PathConfig:
    """Observation grid: n observations over t_span, internal Euler substeps,
    and burn-in observations discarded before recording starts."""

    t_span: float
    n: int
    seed: int
    burn_in: int = 200
    substeps: int = 10

    def __post_init__(self):
        if self.t_span <= 0 or not math.isfinite(self.t_span):
            raise ValidationError(f"t_span must be positive, got {self.t_span}")
        if self.n < 2:
            raise ValidationError(f"need n >= 2 observations, got {self.n}")
        if self.substeps < 1:
            raise ValidationError(f"substeps must be >= 1, got {self.substeps}")
        if self.burn_in < 0:
            raise ValidationError(f"burn_in must be >= 0, got {self.burn_in}")

    @property
    def delta(self) -> float:
        return self.t_span / self.n


@dataclass(frozen=True)
class SamplePath:
    """Retained trajectory: n+2 observations of the latent state x and the
    integrated series y (estimators consume triples of neighbouring indices),
    plus seed provenance."""

    delta: float
    x: np.ndarray
    y: np.ndarray
    seed: int
    substeps: int


def _cp_increments(lam: float, size: JumpSizeDist, dt: float, rng, k: int) -> np.ndarray:
    """Compound Poisson increments over k consecutive intervals of length dt.

    Draw order is pinned (counts, then all sizes) so paths are reproducible.
    """
    if lam == 0.0:
        return np.zeros(k)
    counts = rng.poisson(lam * dt, k)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(k)
    sizes = size.draw(rng, total)
    out = np.zeros(k)
    ends = np.cumsum(counts)
    starts = ends - counts
    nz = np.flatnonzero(counts)
    out[nz] = np.add.reduceat(sizes, starts[nz])
    return out


def _vg_increments(c: float, eta: float, b: float, dt: float, rng, k: int) -> np.ndarray:
    """Variance Gamma increments over k intervals: c*dG + eta*sqrt(dG)*Z with
    dG ~ Gamma(dt/b, b), so E[dG] = dt."""
    dg = rng.gamma(dt / b, b, k)
    z = rng.standard_normal(k)
    return c * dg + eta * np.sqrt(dg) * z


def _jump_increments(jump: JumpSpec, dt: float, rng, k: int) -> np.ndarray:
    """Jump increments as they enter the state equation.

    The Variance Gamma component is compensated (its unconditional drift c
    per unit time is removed) so that mu stays the drift of the state; the
    jump integral in the state equation is a martingale. Compound Poisson
    increments enter as drawn: the bundled presets use mean-zero sizes, for
    which the compensator vanishes; sizes with nonzero mean shift the
    effective drift by lam*E[Z].
    """
    if isinstance(jump, NoJumps):
        return np.zeros(k)
    if isinstance(jump, CompoundPoisson):
        return _cp_increments(jump.lam, jump.size, dt, rng, k)
    if isinstance(jump, VarianceGamma):
        return _vg_increments(jump.c, jump.eta, jump.b, dt, rng, k) - jump.c * dt
    raise ValidationError(f"unknown jump specification {jump!r}")


def simulate_path(spec: ModelSpec, cfg: PathConfig) -> SamplePath:
    """Euler path of (X, Y) at step delta/substeps, recorded every delta.

    The first cfg.burn_in observations are dropped and n+2 observations are
    retained. All randomness (diffusion normals first, then the jump
    component) is drawn up front from a generator seeded with cfg.seed, so
    identical (spec, cfg) inputs give bitwise-identical paths.

    Raises NumericalError, naming the step, if the state leaves
    [-1e8, 1e8] or becomes non-finite.
    """
    n_obs = cfg.burn_in + cfg.n + 2
    m = cfg.substeps
    k_total = (n_obs - 1) * m
    dt = cfg.delta / m
    rng = np.random.default_rng(cfg.seed)

    z = (rng.standard_normal(k_total) * math.sqrt(dt)).tolist()
    j = _jump_increments(spec.jump, dt, rng, k_total).tolist()

    xs = np.empty(n_obs)
    ys = np.empty(n_obs)
    x = float(spec.x0)
    y = float(spec.y0)
    xs[0] = x
    ys[0] = y
    mu = spec.mu
    sigma = spec.sigma
    k = 0
    for i in range(1, n_obs):
        for _ in range(m):
            y += x * dt
            x += mu(x) * dt + sigma(x) * z[k] + j[k]
            k += 1
            if not (-EXPLOSION_BOUND <= x <= EXPLOSION_BOUND):
                raise NumericalError(
                    f"state explosion at observation {i} (substep {k}): x = {x!r}"
                )
        xs[i] = x
        ys[i] = y

    lo = cfg.burn_in
    return SamplePath(
        delta=cfg.delta,
        x=xs[lo:].copy(),
        y=ys[lo:].copy(),
        seed=cfg.seed,
        substeps=m,
    )


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Independent integer seeds for replicate streams, derived from one
    master seed. Deterministic in (master_seed, count) and stable under any
    execution order of the replicates."""
    state = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]
