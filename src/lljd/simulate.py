"""Simulation of integrated jump-diffusions.

Generates discretely observed trajectories of the coupled system

    dY = X dt,
    dX = mu(X) dt + sigma(X) dW + dJ,

where J is either a compound Poisson process (finite activity), a Variance
Gamma process (infinite activity), or absent. X is advanced by Euler steps on
a refined internal grid; Y is advanced by the left-point rule on the same
grid, matching the left-limit form of the state equation.

One Euler loop serves every path: simulate_paths advances many lanes (one
path each) in lockstep as numpy vectors, and simulate_path is its one-lane
case, whose state stays in Python floats. Each lane draws its random streams
block by block, in the order one upfront draw would take them, so a lane's
path is the same bits alone or beside any other lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

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
    "simulate_paths",
    "derive_seeds",
]

EXPLOSION_BOUND = 1e8

# The lanes draw their random streams in blocks of whole observations that
# hold at most BLOCK_VALUES draws per stream across the active lanes (one
# observation if that is more), and a generator is placed at the start of a
# later draw phase by discarding the earlier phases DISCARD_BLOCK values at a
# time. Both bound the working memory of a call, however long its paths are.
BLOCK_VALUES = 1 << 15
DISCARD_BLOCK = 1 << 14
_BOUND_SQUARED = EXPLOSION_BOUND * EXPLOSION_BOUND


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
    """Drift, diffusion and jump specification of the latent state.

    mu and sigma are called on a Python float (one lane) and on a float64
    array of lane states (simulate_paths), and must give the same bits in
    both forms, so that a lane reproduces its one-lane path. For a square
    root that means math.sqrt on floats and np.sqrt on arrays: a float's
    ** 0.5 calls pow, which can differ from the correctly rounded root in
    the last bit.
    """

    mu: Callable
    sigma: Callable
    jump: JumpSpec = field(default_factory=NoJumps)
    x0: float = 0.0
    y0: float = 0.0
    name: str = "custom"


def _mean_reverting_mu(x):
    return -10.0 * x


def _smile_sigma(x):
    v = 0.1 + 0.1 * x * x
    return math.sqrt(v) if isinstance(v, float) else np.sqrt(v)


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
    plus seed provenance. x is None when the caller recorded y only."""

    delta: float
    x: Optional[np.ndarray]
    y: np.ndarray
    seed: int
    substeps: int


def _cp_jumps(lam: float, size: JumpSizeDist, dt: float, rng, k: int):
    """Compound Poisson jumps over k consecutive intervals of length dt, kept
    sparse: (indices, increments) of the intervals with at least one jump.

    Draw order is pinned (all counts, drawn DISCARD_BLOCK at a time, then all
    sizes) so paths are reproducible.
    """
    at, counts = [], []
    for k0 in range(0, k, DISCARD_BLOCK):
        block = rng.poisson(lam * dt, min(DISCARD_BLOCK, k - k0))
        nz = np.flatnonzero(block)
        at.append(nz + k0)
        counts.append(block[nz])
    at, counts = np.concatenate(at), np.concatenate(counts)
    sizes = size.draw(rng, int(counts.sum()))
    if not len(at):
        return at, sizes
    return at, np.add.reduceat(sizes, np.cumsum(counts) - counts)


def _vg_increments(c: float, eta: float, b: float, dt: float, rng, k: int,
                   normal_rng=None) -> np.ndarray:
    """Variance Gamma increments over k intervals: c*dG + eta*sqrt(dG)*Z with
    dG ~ Gamma(dt/b, b), so E[dG] = dt; dG from `rng`, then Z from
    `normal_rng` (default `rng`, which draws all of dG before any Z)."""
    dg = rng.gamma(dt / b, b, k)
    z = (rng if normal_rng is None else normal_rng).standard_normal(k)
    return c * dg + eta * np.sqrt(dg) * z


def _placed_after(rng, draw, count: int):
    """A generator that continues where `draw(rng, count)` would leave `rng`,
    which itself is not advanced: a copy draws and discards `count` values of
    `draw` in blocks of DISCARD_BLOCK."""
    bits = type(rng.bit_generator)()
    bits.state = rng.bit_generator.state
    twin = np.random.Generator(bits)
    for k0 in range(0, count, DISCARD_BLOCK):
        draw(twin, min(DISCARD_BLOCK, count - k0))
    return twin


def _lane_streams(jump: JumpSpec, dt: float, seed: int, steps: int):
    """The random streams of one lane: a generator of its diffusion normals
    (unscaled), and jumps(out), which adds the next len(out) jump increments
    to `out`, a row of zeros; jumps is None for a lane without jumps.

    The draws are those of one generator seeded with `seed` that takes, in
    order, all `steps` diffusion normals, then the jump component: all jump
    counts and then all sizes (compound Poisson), or all Gamma clock
    increments and then all their normals (Variance Gamma). Each phase that
    is drawn block by block gets its own generator, placed at the start of
    the phase. A compound Poisson lane draws its sparse jumps up front: they
    cost memory per jump, not per step.

    The Variance Gamma component is compensated (its unconditional drift c
    per unit time is removed) so that mu stays the drift of the state; the
    jump integral in the state equation is a martingale. Compound Poisson
    increments enter as drawn: the bundled presets use mean-zero sizes, for
    which the compensator vanishes; sizes with nonzero mean shift the
    effective drift by lam*E[Z].
    """
    rng = np.random.default_rng(seed)
    if isinstance(jump, NoJumps) or (isinstance(jump, CompoundPoisson) and jump.lam == 0.0):
        return rng, None
    if not isinstance(jump, (CompoundPoisson, VarianceGamma)):
        raise ValidationError(f"unknown jump specification {jump!r}")
    after = _placed_after(rng, np.random.Generator.standard_normal, steps)
    if isinstance(jump, CompoundPoisson):
        at, inc = _cp_jumps(jump.lam, jump.size, dt, after, steps)
        done = lo = 0

        def jumps(out):
            nonlocal done, lo
            hi = at.searchsorted(done + len(out))
            out[at[lo:hi] - done] = inc[lo:hi]
            done, lo = done + len(out), hi

        return rng, jumps
    c, eta, b = jump.c, jump.eta, jump.b
    gauss = _placed_after(after, lambda g, k: g.gamma(dt / b, b, k), steps)

    def jumps(out):
        out += _vg_increments(c, eta, b, dt, after, len(out), gauss) - c * dt

    return rng, jumps


def _euler(x, y, dt, z, j, m, mu, sigma, xs, ys, escaped):
    """Euler steps of one block, m per observation: z[k] and j[k] are step
    k's scaled normal and jump increment, and the state after observation o
    goes to xs[o] and ys[o]. The state is Python floats for one lane and
    arrays, advanced in place, for several. After a step that may have left
    the bounds, escaped(x, o, k) handles it (k steps into the block) and
    returns the state to go on from; lanes are screened by their sum of
    squares, which exceeds the squared bound (or is NaN) whenever one of them
    is out."""
    lanes = not isinstance(x, float)
    k = 0
    for o in range(len(xs)):
        for _ in range(m):
            y += x * dt
            x += mu(x) * dt + sigma(x) * z[k] + j[k]
            k += 1
            if not (x @ x <= _BOUND_SQUARED if lanes
                    else -EXPLOSION_BOUND <= x <= EXPLOSION_BOUND):
                x = escaped(x, o, k)
        xs[o] = x
        ys[o] = y
    return x, y


def simulate_paths(lanes, record_x: bool = True) -> list:
    """Euler paths of many lanes, advanced in lockstep as numpy vectors.

    A lane is a (ModelSpec, PathConfig) pair. The lanes of one call share mu,
    sigma, x0, y0 and substeps; jumps, span, n, burn-in and seed are their
    own. Every lane's path is bit-identical to simulate_path of that lane,
    whatever the other lanes and their order: the steps are elementwise and
    each lane draws its own streams block by block (see _lane_streams).

    Lanes run longest first, so a finished lane drops out of the active
    prefix. Returns one entry per lane, in the order given: its SamplePath
    (x is None unless record_x), or the NumericalError of a lane whose state
    left [-1e8, 1e8] or became non-finite; the other lanes carry on.
    """
    lanes = list(lanes)
    if not lanes:
        return []
    first, m = lanes[0][0], lanes[0][1].substeps
    shared = (first.mu, first.sigma, first.x0, first.y0, m)
    if any((s.mu, s.sigma, s.x0, s.y0, c.substeps) != shared for s, c in lanes):
        raise ValidationError("lanes of one call must share mu, sigma, x0, y0 and substeps")
    order = sorted(range(len(lanes)), key=lambda i: -(lanes[i][1].burn_in + lanes[i][1].n))
    cfgs = [lanes[i][1] for i in order]
    n_obs = [c.burn_in + c.n + 2 for c in cfgs]
    dts = [c.delta / m for c in cfgs]
    scales = np.sqrt(dts)[:, None]
    streams = [_lane_streams(lanes[i][0].jump, dt, c.seed, (n - 1) * m)
               for i, c, dt, n in zip(order, cfgs, dts, n_obs)]
    ys = [np.empty(c.n + 2) for c in cfgs]
    xs = [np.empty(c.n + 2) for c in cfgs] if record_x else None
    for p, c in enumerate(cfgs):
        if c.burn_in == 0:
            ys[p][0] = first.y0
            if record_x:
                xs[p][0] = first.x0
    one = len(lanes) == 1
    x = float(first.x0) if one else np.full(len(lanes), float(first.x0))
    y = float(first.y0) if one else np.full(len(lanes), float(first.y0))
    dt = dts[0] if one else np.array(dts)
    failed = {}
    o0, a = 1, len(lanes)

    def escaped(x, o, k):
        where = f"state explosion at observation {o0 + o} (substep {(o0 - 1) * m + k})"
        if one:
            raise NumericalError(f"{where}: x = {x!r}")
        out = ~(np.abs(x) <= EXPLOSION_BOUND)
        if not out.any():
            return x
        for p in np.flatnonzero(out).tolist():
            failed.setdefault(p, NumericalError(f"{where}: x = {float(x[p])!r}"))
        x[out] = 0.0  # a failed lane goes on from 0, so its arithmetic stays finite
        return x

    with np.errstate(all="ignore"):
        while o0 < n_obs[0]:
            while n_obs[a - 1] <= o0:
                a -= 1
            o1 = min(o0 + max(1, BLOCK_VALUES // (a * m)), n_obs[a - 1])
            z, j = np.empty((a, (o1 - o0) * m)), np.zeros((a, (o1 - o0) * m))
            for (rng, jumps), zp, jp in zip(streams, z, j):
                rng.standard_normal(out=zp)
                if jumps is not None:
                    jumps(jp)
            z *= scales[:a]
            xb, yb = np.empty((o1 - o0, a)), np.empty((o1 - o0, a))
            if one:
                try:
                    x, y = _euler(x, y, dt, z[0].tolist(), j[0].tolist(), m,
                                  first.mu, first.sigma, xb[:, 0], yb[:, 0], escaped)
                except NumericalError as exc:
                    failed[0] = exc
                    break
            else:
                _euler(x[:a], y[:a], dt[:a], z.T, j.T, m, first.mu, first.sigma, xb, yb, escaped)
            for p, c in enumerate(cfgs[:a]):
                lo = max(o0, c.burn_in)
                if lo < o1:
                    ys[p][lo - c.burn_in : o1 - c.burn_in] = yb[lo - o0 :, p]
                    if record_x:
                        xs[p][lo - c.burn_in : o1 - c.burn_in] = xb[lo - o0 :, p]
            o0 = o1

    out = [None] * len(lanes)
    for p, (i, c) in enumerate(zip(order, cfgs)):
        out[i] = failed.get(p) or SamplePath(
            delta=c.delta, x=xs[p] if record_x else None, y=ys[p], seed=c.seed, substeps=m
        )
    return out


def simulate_path(spec: ModelSpec, cfg: PathConfig) -> SamplePath:
    """Euler path of (X, Y) at step delta/substeps, recorded every delta.

    The first cfg.burn_in observations are dropped and n+2 observations are
    retained. The randomness is that of a generator seeded with cfg.seed that
    draws all diffusion normals first, then the jump component, so identical
    (spec, cfg) inputs give bitwise-identical paths. The draws are taken in
    blocks, in the same order within each stream, so the working memory does
    not grow with the path; this is the one-lane case of simulate_paths.

    Raises NumericalError, naming the step, if the state leaves
    [-1e8, 1e8] or becomes non-finite.
    """
    (path,) = simulate_paths([(spec, cfg)])
    if isinstance(path, NumericalError):
        raise path
    return path


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Independent integer seeds for replicate streams, derived from one
    master seed. Deterministic in (master_seed, count) and stable under any
    execution order of the replicates."""
    state = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]
