"""Simulation of integrated jump-diffusions.

Generates discretely observed trajectories of the coupled system

    dY = X dt,
    dX = mu(X) dt + sigma(X) dW + dJ,

where J is either a compound Poisson process (finite activity), a Variance
Gamma process (infinite activity), or absent. X is advanced by Euler steps on
a refined internal grid; Y is advanced by the left-point rule on the same
grid, matching the left-limit form of the state equation.

simulate_paths advances many lanes (one path each) a block of steps at a
time: it fills a buffer with every step's state, as numpy vectors or on
Python floats while one lane is active, then screens the buffer for states
out of bounds and takes y from one cumulative sum; simulate_path is its
one-lane case. Each lane draws its random streams block by block, in the
order one upfront draw would take them, so a lane's path is the same bits
alone or beside other lanes. Lanes that share a seed share its stream of
diffusion normals, drawn once per block for all of them.
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
# observation if that is more); compound Poisson counts, and the discards that
# place a generator at a later draw phase, go BLOCK_VALUES values at a time.
# Draws do not depend on the chunk, which bounds a call's working memory.
BLOCK_VALUES = 1 << 15


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
        if not math.isfinite(self.loc):
            raise ValidationError(f"jump size location must be finite, got {self.loc}")

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
        if not 0 <= self.eta < math.inf:
            raise ValidationError(f"subordinated volatility eta must be >= 0, got {self.eta}")
        if not math.isfinite(self.c):
            raise ValidationError(f"subordinated drift c must be finite, got {self.c}")


JumpSpec = Union[NoJumps, CompoundPoisson, VarianceGamma]


@dataclass(frozen=True)
class ModelSpec:
    """Drift, diffusion and jump specification of the latent state.

    mu and sigma are called on a Python float while one lane is active and
    on a float64 array of lane states otherwise, and must give the same bits
    in both forms, so that a lane's path does not depend on its neighbours.
    For a square root that means math.sqrt on floats and np.sqrt on arrays:
    a float's ** 0.5 calls pow, which can differ from the correctly rounded
    root in the last bit.
    """

    mu: Callable
    sigma: Callable
    jump: JumpSpec = field(default_factory=NoJumps)
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x0) and math.isfinite(self.y0)):
            raise ValidationError(f"x0 and y0 must be finite, got x0={self.x0}, y0={self.y0}")


def _mean_reverting_mu(x):
    return -10.0 * x


def _smile_sigma(x):
    v = 0.1 + 0.1 * x * x
    return math.sqrt(v) if isinstance(v, float) else np.sqrt(v)


def default_model(jump: JumpSpec = NoJumps(), x0: float = 0.0, y0: float = 0.0) -> ModelSpec:
    """Mean-reverting benchmark model: mu(x) = -10x, sigma(x) = sqrt(0.1 + 0.1 x^2)."""
    return ModelSpec(mu=_mean_reverting_mu, sigma=_smile_sigma, jump=jump, x0=x0, y0=y0)


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


def _cp_jumps(lam: float, size: JumpSizeDist, dt: float, rng, k: int):
    """Compound Poisson jumps over k consecutive intervals of length dt, kept
    sparse: (indices, increments) of the intervals with at least one jump.

    Draw order is pinned (all counts, drawn BLOCK_VALUES at a time, then all
    sizes) so paths are reproducible.
    """
    at, counts = [], []
    for k0 in range(0, k, BLOCK_VALUES):
        block = rng.poisson(lam * dt, min(BLOCK_VALUES, k - k0))
        nz = np.flatnonzero(block)
        at.append(nz + k0)
        counts.append(block[nz])
    at, counts = np.concatenate(at), np.concatenate(counts)
    sizes = size.draw(rng, int(counts.sum()))
    if not len(at):
        return at, sizes
    return at, np.add.reduceat(sizes, np.cumsum(counts) - counts)


def _vg_increments(c: float, eta: float, b: float, dt: float, rng, k: int,
                   normal_rng) -> np.ndarray:
    """Variance Gamma increments over k intervals: c*dG + eta*sqrt(dG)*Z with
    dG ~ Gamma(dt/b, b), so E[dG] = dt; dG from `rng`, then Z from
    `normal_rng` (which may be `rng`: it then draws all of dG before any Z)."""
    dg = rng.gamma(dt / b, b, k)
    z = normal_rng.standard_normal(k)
    return c * dg + eta * np.sqrt(dg) * z


def _placed_after(rng, draw, counts):
    """Generators that continue where `draw(rng, count)` would leave `rng`,
    which itself is not advanced, one per count of the ascending `counts`: a
    copy draws and discards values of `draw` in blocks of BLOCK_VALUES, and
    is copied at each count."""
    twins = [rng]
    for done, count in zip([0, *counts], counts):
        bits = type(rng.bit_generator)()
        bits.state = twins[-1].bit_generator.state
        twins.append(np.random.Generator(bits))
        for k0 in range(done, count, BLOCK_VALUES):
            draw(twins[-1], min(BLOCK_VALUES, count - k0))
    return twins[1:]


def _lane_streams(lanes):
    """The random streams of lanes given as (jump, dt, steps, seed) tuples.
    Returns (normals, jumps). normals pairs each seed's generator of unscaled
    diffusion normals with the lanes that share it, in the order given, each
    taking the first `steps`. jumps holds each lane's: None for a lane
    without jumps, the sparse (at, inc) of _cp_jumps over all `steps` for
    compound Poisson, or, for Variance Gamma, jumps(out), which adds the next
    len(out) jump increments to `out`, a column of zeros.

    A lane's draws are those of one generator seeded with its seed that
    takes, in order, all `steps` diffusion normals, then the jump component:
    all jump counts and then all sizes (compound Poisson), or all Gamma clock
    increments and then all their normals (Variance Gamma). Each phase that
    is drawn block by block gets its own generator, placed at the start of
    the phase: one discard pass over a seed's normals places the jump
    generators of all its lanes. A compound Poisson lane draws its sparse
    jumps up front: they cost memory per jump, not per step.

    The Variance Gamma component is compensated (its unconditional drift c
    per unit time is removed) so that mu stays the drift of the state; the
    jump integral in the state equation is a martingale. Compound Poisson
    increments enter as drawn: the bundled presets use mean-zero sizes, for
    which the compensator vanishes; sizes with nonzero mean shift the
    effective drift by lam*E[Z].
    """
    seeds, jumps = {}, [None] * len(lanes)
    for p, (jump, _, _, seed) in enumerate(lanes):
        if not isinstance(jump, (NoJumps, CompoundPoisson, VarianceGamma)):
            raise ValidationError(f"unknown jump specification {jump!r}")
        seeds.setdefault(seed, []).append(p)
    for seed, same in seeds.items():
        rng = np.random.default_rng(seed)
        jumpy = sorted((lanes[p][2], p) for p in same
                       if isinstance(lanes[p][0], VarianceGamma) or getattr(lanes[p][0], "lam", 0))
        placed = _placed_after(rng, np.random.Generator.standard_normal, [s for s, _ in jumpy])
        for (steps, p), after in zip(jumpy, placed):
            jumps[p] = _lane_jumps(*lanes[p][:2], after, steps)
        seeds[seed] = rng, same
    return list(seeds.values()), jumps


def _lane_jumps(jump, dt: float, rng, steps: int):
    """The jumps of a lane (see _lane_streams), drawn from `rng`."""
    if isinstance(jump, CompoundPoisson):
        return _cp_jumps(jump.lam, jump.size, dt, rng, steps)
    c, eta, b = jump.c, jump.eta, jump.b
    (gauss,) = _placed_after(rng, lambda g, k: g.gamma(dt / b, b, k), [steps])

    def jumps(out):
        out += _vg_increments(c, eta, b, dt, rng, len(out), gauss) - c * dt

    return jumps


def _float_steps(X, dt, z, j, mu, sigma):
    """Euler steps of one lane on Python floats from X[0]: step k's state
    goes to X[k + 1], and the steps stop after the first state outside the
    bounds, leaving the later rows as they were."""
    x, xs = float(X[0]), []
    for zk, jk in zip(z, j):
        x += mu(x) * dt + sigma(x) * zk + jk
        xs.append(x)
        if not -EXPLOSION_BOUND <= x <= EXPLOSION_BOUND:
            break
    X[1 : len(xs) + 1] = xs


def simulate_paths(lanes, record_x: bool = True) -> list:
    """Euler paths of many lanes, advanced in lockstep a block at a time.

    A lane is a (ModelSpec, PathConfig) pair. The lanes of one call share mu,
    sigma, x0, y0 and substeps; jumps, span, n, burn-in and seed are their
    own. Every lane's path is bit-identical to simulate_path of that lane,
    whatever the other lanes and their order: the steps are elementwise and
    each lane draws its own streams block by block (see _lane_streams). The
    lanes of a seed take the same normals: its longest lane draws them, and
    its other active lanes copy them before the scale by their own sqrt(dt).

    Lanes run longest first, so a finished lane drops out of the active
    prefix. A block's draws are laid out step-major, its compound Poisson
    jumps scattered in one assignment from all lanes' jumps merged in step
    order. The steps fill a buffer X with a row of lane states per step, as
    numpy vectors or, while one lane is active, on Python floats: numpy calls
    on one-element arrays cost far more than the step. Then one test of X
    screens the bounds, a lane that left them fails at its first row outside
    and goes on from 0, and y follows from one cumulative sum of X * dt,
    which adds in step order as y += x * dt does. Returns one entry per lane,
    in the order given: its SamplePath (x is None unless record_x), or the
    NumericalError of a lane whose state left [-1e8, 1e8] or became
    non-finite; the others carry on until every active lane has failed.
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
    scales = np.sqrt(dts)
    normals, jumps = _lane_streams([(lanes[i][0].jump, dt, (n - 1) * m, c.seed)
                                    for i, c, dt, n in zip(order, cfgs, dts, n_obs)])
    sparse = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))] + [
        (jp[0], np.full(len(jp[0]), p), jp[1])
        for p, jp in enumerate(jumps) if isinstance(jp, tuple)]
    at, lane, inc = map(np.concatenate, zip(*sparse))
    by_step = np.argsort(at, kind="stable")
    at, lane, inc = at[by_step], lane[by_step], inc[by_step]
    ys = [np.empty(c.n + 2) for c in cfgs]
    xs = [np.empty(c.n + 2) for c in cfgs] if record_x else None
    for p, c in enumerate(cfgs):
        if c.burn_in == 0:
            ys[p][0] = first.y0
            if record_x:
                xs[p][0] = first.x0
    x = np.full(len(lanes), float(first.x0))
    y = np.full(len(lanes), float(first.y0))
    failed = {}
    o0, a, done = 1, len(lanes), 0
    # a block holds at most max(BLOCK_VALUES, a * m) values per stream: the
    # lane-major normals (then the screen and y), z, j and X reuse four rows
    buf = np.empty((4, max(BLOCK_VALUES, a * m) + a))

    with np.errstate(all="ignore"):
        while o0 < n_obs[0]:
            while n_obs[a - 1] <= o0:
                a -= 1
            if all(p in failed for p in range(a)):
                break
            o1 = min(o0 + max(1, BLOCK_VALUES // (a * m)), n_obs[a - 1])
            s0, steps = (o0 - 1) * m, (o1 - o0) * m
            size = steps * a
            lz, X = buf[0, :size].reshape(a, steps), buf[3, : size + a].reshape(steps + 1, a)
            w, z, j = (b[:size].reshape(steps, a) for b in buf[:3])
            j[:] = 0.0
            for rng, (p, *same) in normals:
                if p < a:  # the seed's longest lane draws, its other active lanes copy
                    rng.standard_normal(out=lz[p])
                    lz[[q for q in same if q < a]] = lz[p]
            for p, jp in enumerate(jumps[:a]):
                if callable(jp):
                    jp(j[:, p])
            np.multiply(lz.T, scales[:a], out=z)
            k, done = done, at.searchsorted(s0 + steps)
            j[at[k:done] - s0, lane[k:done]] = inc[k:done]
            X[0], dt = x[:a], np.array(dts[:a])
            if a == 1:
                # a memoryview yields Python floats without a list of the block
                _float_steps(X[:, 0], dts[0], memoryview(z[:, 0]), memoryview(j[:, 0]),
                             first.mu, first.sigma)
            else:  # the float operations of _float_steps, in order, on lane vectors
                for xk, x1, zk, jk in zip(X[:-1], X[1:], z, j):
                    t = first.mu(xk) * dt
                    t += first.sigma(xk) * zk
                    t += jk
                    np.add(xk, t, out=x1)
            left = []
            if not np.abs(X[1:], out=w).max() <= EXPLOSION_BOUND:
                outside = ~(w <= EXPLOSION_BOUND)
                left = np.flatnonzero(outside.any(axis=0)).tolist()
                for p, k in zip(left, outside.argmax(axis=0)[left].tolist()):
                    failed.setdefault(p, NumericalError(
                        f"state explosion at observation {o0 + k // m} "
                        f"(substep {s0 + k + 1}): x = {float(X[k + 1, p])!r}"))
            P = np.multiply(X[:-1], dt, out=w)
            P[0] += y[:a]
            np.cumsum(P, axis=0, out=P)
            x[:a], y[:a] = X[-1], P[-1]
            x[left] = 0.0
            for p, c in enumerate(cfgs[:a]):
                lo = max(o0, c.burn_in)
                if lo < o1:
                    ys[p][lo - c.burn_in : o1 - c.burn_in] = P[m - 1 :: m][lo - o0 :, p]
                    if record_x:
                        xs[p][lo - c.burn_in : o1 - c.burn_in] = X[m::m][lo - o0 :, p]
            o0 = o1

    out = [None] * len(lanes)
    for p, (i, c) in enumerate(zip(order, cfgs)):
        out[i] = failed.get(p) or SamplePath(
            delta=c.delta, x=xs[p] if record_x else None, y=ys[p], seed=c.seed
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
