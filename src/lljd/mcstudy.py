"""Monte Carlo benchmark harness: RMSE, quantile biases, replicate bands and
normality diagnostics for the local linear fit against the Nadaraya-Watson
baseline.

Replicates are independent work units: each derives its own stream from the
master seed, and results are reduced in replicate order. Every replicate of
every config studied together is a lane of the lockstep simulator, and a
lane's path does not depend on the lanes beside it, so a config's report is
byte-identical however its replicates are grouped into lane batches: alone
or with other configs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import groupby
from statistics import NormalDist

import numpy as np

from .bandwidth import rule_of_thumb
from .errors import LljdError, NumericalError, ValidationError
from .estimators import (
    LOCAL_LINEAR,
    NADARAYA_WATSON,
    RANGE_MODES,
    EstimatorConfig,
    _quantiles,
    default_grid,
    estimate_curve,  # noqa: F401  (kept bound here for perfbench/spans.py)
    estimate_curves,
)
from .io import Stages
from .kernels import GAUSSIAN, Kernel
from .proxy import ProxySeries, build_proxy
from .simulate import (
    CompoundPoisson,
    JumpSizeDist,
    ModelSpec,
    PathConfig,
    VarianceGamma,
    default_model,
    derive_seeds,
    simulate_path,  # noqa: F401  (kept bound here for perfbench/spans.py)
    simulate_paths,
)

__all__ = [
    "McConfig",
    "McReport",
    "run_study",
    "run_studies",
    "qq_data",
    "example_model",
    "table_presets",
]

# The sample quantiles of the bias table, and the point of the
# standardized-estimate diagnostics, of every replicate.
QUANTILES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
EVAL_X = 0.0
METHOD_ALIASES = {"ll": LOCAL_LINEAR, "nw": NADARAYA_WATSON}

# Samples (retained y values, 8 bytes each) that one lane batch keeps: the
# replicates of a study are simulated in batches of at most this many, so its
# memory does not grow with the replicate count.
LANE_SAMPLES = 1 << 18


@dataclass(frozen=True)
class McConfig:
    model: ModelSpec
    t_span: float
    n: int
    replicates: int
    master_seed: int
    methods: tuple = (LOCAL_LINEAR, NADARAYA_WATSON)
    kernel: Kernel = GAUSSIAN
    grid_n: int = 101
    range_mode: str = "inner"
    label: str = ""

    def __post_init__(self):
        if self.replicates < 1:
            raise ValidationError("need at least one replicate")
        unknown = [m for m in self.methods if m not in METHOD_ALIASES.values()]
        if unknown:
            raise ValidationError(f"unknown methods {unknown}")
        if self.grid_n < 1:
            raise ValidationError(f"grid_n must be at least 1, got {self.grid_n}")
        if self.range_mode not in RANGE_MODES:
            raise ValidationError(f"unknown range mode {self.range_mode!r}")


@dataclass
class McReport:
    """Aggregated study results (see run_study); the run's time travels in
    the run manifest, so identical seeds give byte-identical reports."""

    label: str
    t_span: float
    n: int
    replicates: int
    master_seed: int
    methods: tuple
    quantiles: tuple
    eval_x: float
    rmse: dict  # method -> RMSE of the replicate-mean curve against the truth
    rmse_per_replicate: dict  # method -> list (NaN for skipped replicates)
    bias_at_quantiles: dict  # method -> list aligned with quantiles
    mc_band: dict  # method -> {"grid": [...], "lo": [...], "hi": [...], "mean": [...]}
    estimates_at_x: dict  # method -> {"mu": [...], "m": [...]}
    standardized: dict  # method -> list or None when the spread degenerates
    skipped: int
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready payload; it shares the report's containers."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _replicate(cfg: McConfig, pr: ProxySeries, common_grid: np.ndarray):
    h = rule_of_thumb(pr, cfg.t_span).h
    qpts = _quantiles(pr.xt, QUANTILES)
    pts = np.concatenate([common_grid, qpts, [EVAL_X]])
    g = len(common_grid)
    ests = estimate_curves(pr, pts, EstimatorConfig(h, cfg.kernel), cfg.methods)
    out = {}
    for method, est in ests.items():
        mu, m = est.mu_hat, est.m_hat
        out[method] = {
            "mu_grid": mu[:g],
            "bias_q": mu[g : g + len(QUANTILES)]
            - np.asarray(cfg.model.mu(qpts), dtype=float),
            "mu_at_x": float(mu[-1]),
            "m_at_x": float(m[-1]),
        }
    return out


def _lane_batches(cfgs: list, lanes: list):
    """Lane batches of (config index, replicate, seed) triples. Lanes that
    share mu, sigma, x0 and y0 are batched together in replicate order, at
    most LANE_SAMPLES retained samples (or one lane) per batch. A seed's lanes
    are split only if they alone exceed it, so simulate_paths draws its
    normals once, and a config's replicate 0 is in its first batch."""
    groups = {}
    for lane in sorted(lanes, key=lambda lane: lane[1:]):
        cfg = cfgs[lane[0]]
        key = (cfg.model.mu, cfg.model.sigma, cfg.model.x0, cfg.model.y0)
        groups.setdefault(key, []).append(lane)
    for group in groups.values():
        batch, samples = [], 0
        for _, same in groupby(group, key=lambda lane: lane[1:]):
            same = list(same)
            sizes = [cfgs[c].n + 2 for c, _, _ in same]
            # the seed's first lane opens a batch if all of them do not fit
            for lane, size, need in zip(same, sizes, [sum(sizes)] + sizes[1:]):
                if batch and samples + need > LANE_SAMPLES:
                    yield batch
                    batch, samples = [], 0
                batch.append(lane)
                samples += size
        yield batch


def run_study(cfg: McConfig) -> McReport:
    """Simulate, estimate and aggregate over replicates.

    Per replicate: simulate a path, build the proxy, select the rule-of-thumb
    bandwidth, and evaluate every configured method on the study grid (101
    points over the inner-quantile range, fixed by the first replicate so all
    replicates are comparable), at the replicate's sample quantile points (for
    the bias table), and at EVAL_X (for the standardized-estimate
    diagnostics). All methods come from one pass of the kernel sums.

    The headline RMSE is the root mean square deviation of the pointwise
    replicate-mean curve from the truth over the study grid: averaging first
    isolates systematic error, which is what shrinks as the observation step
    refines (per-replicate RMSE saturates at the bandwidth-limited variance
    floor, which depends on the span but not on n). Per-replicate RMSEs are
    also reported.

    Replicates that fail numerically (explosions, degenerate designs) are
    recorded and skipped; the study aborts if more than 10% fail, or if the
    first replicate, which fixes the grid, cannot be simulated.
    """
    return run_studies([cfg])[0]


def run_studies(cfgs, seconds: dict | None = None) -> list[McReport]:
    """run_study of each config, with the replicates of all of them simulated
    together as lanes of simulate_paths (see _lane_batches). Each report is
    byte-identical to run_study of its config alone; the first config that
    aborts raises its error, as a loop of run_study calls would. The time of
    each stage is added to `seconds` as "simulate", "fit" and "aggregate"."""
    stages = Stages(seconds)
    cfgs = list(cfgs)
    lanes = [
        (c, r, seed)
        for c, cfg in enumerate(cfgs)
        for r, seed in enumerate(derive_seeds(cfg.master_seed, cfg.replicates))
    ]
    results = [[None] * cfg.replicates for cfg in cfgs]
    grids = [None] * len(cfgs)
    aborted = [None] * len(cfgs)
    for batch in _lane_batches(cfgs, lanes):
        _run_batch(cfgs, batch, results, grids, aborted, stages)
    reports = []
    for cfg, res, grid, exc in zip(cfgs, results, grids, aborted):
        if exc is not None:
            raise exc
        reports.append(_aggregate(cfg, res, grid))
    stages.lap("aggregate")
    return reports


def _run_batch(cfgs, batch, results, grids, aborted, stages: Stages):
    """Simulate one lane batch and fit its replicates into results[c][r]. A
    config's replicate 0 fixes grids[c], or its failure goes to aborted[c]."""
    paths = simulate_paths(
        [
            (cfgs[c].model, PathConfig(t_span=cfgs[c].t_span, n=cfgs[c].n, seed=seed))
            for c, _, seed in batch
        ],
        record_x=False,
    )
    stages.lap("simulate")
    paths.reverse()
    for c, r, _ in batch:
        cfg, path = cfgs[c], paths.pop()  # a path is freed once it is fitted
        try:
            if isinstance(path, LljdError):
                raise path
            pr = build_proxy(path.y, path.delta)
            if r == 0:
                grids[c] = default_grid(pr, cfg.grid_n, cfg.range_mode)
        except LljdError as exc:
            if r == 0:
                aborted[c] = exc
            results[c][r] = ("failed", f"{type(exc).__name__}: {exc}")
            continue
        if aborted[c] is None:
            try:
                results[c][r] = _replicate(cfg, pr, grids[c])
            except LljdError as exc:
                results[c][r] = ("failed", f"{type(exc).__name__}: {exc}")
    stages.lap("fit")


def _aggregate(cfg: McConfig, results: list, common_grid: np.ndarray) -> McReport:
    """The report of one config from its per-replicate results, in
    replicate order; ("failed", message) marks a skipped replicate."""
    failures = [r[1] for r in results if isinstance(r, tuple)]
    skipped = len(failures)
    if skipped > 0.1 * cfg.replicates:
        raise NumericalError(
            f"{skipped} of {cfg.replicates} replicates failed (>10%); "
            f"first failure: {failures[0]}"
        )

    report = McReport(
        label=cfg.label,
        t_span=cfg.t_span,
        n=cfg.n,
        replicates=cfg.replicates,
        master_seed=cfg.master_seed,
        methods=cfg.methods,
        quantiles=QUANTILES,
        eval_x=EVAL_X,
        rmse={},
        rmse_per_replicate={},
        bias_at_quantiles={},
        mc_band={},
        estimates_at_x={},
        standardized={},
        skipped=skipped,
        failures=failures,
    )
    truth = np.asarray(cfg.model.mu(common_grid), dtype=float)
    for method in cfg.methods:
        good = [r[method] for r in results if not isinstance(r, tuple)]
        mu_grid = np.vstack([g["mu_grid"] for g in good])
        bias_q = np.vstack([g["bias_q"] for g in good])
        mu_at_x = np.array([g["mu_at_x"] for g in good])
        m_at_x = np.array([g["m_at_x"] for g in good])

        rep_rmse = np.sqrt(np.nanmean((mu_grid - truth) ** 2, axis=1))
        per_rep = iter(rep_rmse)
        report.rmse_per_replicate[method] = [
            float("nan") if isinstance(r, tuple) else float(next(per_rep))
            for r in results
        ]
        mean_curve = np.nanmean(mu_grid, axis=0)
        report.rmse[method] = float(np.sqrt(np.nanmean((mean_curve - truth) ** 2)))
        report.bias_at_quantiles[method] = [float(v) for v in np.nanmean(bias_q, axis=0)]
        # nanpercentile runs a Python-level quantile per grid column; without
        # NaN, _quantiles gives the same values in one vectorised call
        if np.isnan(mu_grid).any():
            lo, hi = np.nanpercentile(mu_grid, [2.5, 97.5], axis=0)
        else:
            lo, hi = _quantiles(mu_grid, [0.025, 0.975])
        report.mc_band[method] = {
            "grid": [float(v) for v in common_grid],
            "lo": [float(v) for v in lo],
            "hi": [float(v) for v in hi],
            "mean": [float(v) for v in mean_curve],
        }
        report.estimates_at_x[method] = {
            "mu": [float(v) for v in mu_at_x],
            "m": [float(v) for v in m_at_x],
        }
        sd = float(np.std(mu_at_x, ddof=1)) if len(mu_at_x) > 1 else 0.0
        if sd > 0 and math.isfinite(sd):
            std = (mu_at_x - float(np.mean(mu_at_x))) / sd
            report.standardized[method] = [float(v) for v in std]
        else:
            report.standardized[method] = None
    return report


def qq_data(standardized) -> tuple[np.ndarray, float]:
    """Normal QQ pairs and the Kolmogorov-Smirnov distance to the standard
    normal, computed after location-scale standardization.

    Returns (pairs, ks): pairs[:, 0] are standard normal quantiles at the
    plotting positions (i - 0.5)/n, pairs[:, 1] the sorted sample values.
    The KS distance has the closed form max over i of
    max(i/n - Phi(z_(i)), Phi(z_(i)) - (i-1)/n).
    """
    values = np.asarray(standardized, dtype=float)
    if values.ndim != 1 or len(values) < 20:
        raise ValidationError("need at least 20 values for QQ diagnostics")
    sd = float(np.std(values, ddof=1))
    if sd == 0.0 or not math.isfinite(sd):
        raise ValidationError("degenerate sample: zero variance")
    std = (values - float(np.mean(values))) / sd
    srt = np.sort(std)
    n = len(srt)
    normal = NormalDist()
    rank = np.arange(1, n + 1)
    theo = np.array([normal.inv_cdf(p) for p in ((rank - 0.5) / n).tolist()])
    cdf = np.array([normal.cdf(z) for z in srt.tolist()])
    ks = float(max(np.max(rank / n - cdf), np.max(cdf - (rank - 1) / n)))
    return np.column_stack([theo, srt]), ks


def example_model(
    which: int,
    lam: float = 2.0,
    size: JumpSizeDist | None = None,
) -> ModelSpec:
    """Benchmark models: 1 = compound Poisson jumps (intensity 2, normal sizes
    with sd 0.036), 2 = Variance Gamma jumps (c=-0.2, eta=0.2, b=0.23). Both
    share the mean-reverting default drift and diffusion."""
    if which == 1:
        if size is None:
            size = JumpSizeDist("normal", 0.0, 0.036)
        return default_model(jump=CompoundPoisson(lam=lam, size=size))
    if which == 2:
        return default_model(jump=VarianceGamma(c=-0.2, eta=0.2, b=0.23))
    raise ValidationError(f"unknown example {which!r} (expected 1 or 2)")


def table_presets(
    table: int,
    replicates: int = 100,
    master_seed: int = 20150105,
) -> list[McConfig]:
    """Preset study grids for the bundled benchmark tables.

    1: compound Poisson bias table (T=10, n=1000).
    2: compound Poisson RMSE over T in {10,20,50} x n in {500,1000,2500}.
    3: jump intensity sweep, lambda in {1,2,5} at T=10.
    4: jump size sweep, N(0,0.036^2) / N(0,1) / Cauchy(0,1) at T=10.
    5: Variance Gamma bias table (T=10, n=1000).
    6: Variance Gamma RMSE over T x n.
    """
    spans = (10.0, 20.0, 50.0)
    sizes = (500, 1000, 2500)

    def mk(model, t, n, label):
        return McConfig(
            model=model,
            t_span=t,
            n=n,
            replicates=replicates,
            master_seed=master_seed,
            label=label,
        )

    if table == 1:
        return [mk(example_model(1), 10.0, 1000, "cp bias T=10 n=1000")]
    if table == 2:
        return [
            mk(example_model(1), t, n, f"cp rmse T={t:g} n={n}")
            for t in spans
            for n in sizes
        ]
    if table == 3:
        return [
            mk(example_model(1, lam=lam), 10.0, n, f"cp rmse lambda={lam:g} n={n}")
            for lam in (1.0, 2.0, 5.0)
            for n in sizes
        ]
    if table == 4:
        dists = (
            JumpSizeDist("normal", 0.0, 0.036),
            JumpSizeDist("normal", 0.0, 1.0),
            JumpSizeDist("cauchy", 0.0, 1.0),
        )
        return [
            mk(
                example_model(1, size=dist),
                10.0,
                n,
                f"cp rmse size={dist.family}({dist.loc:g},{dist.scale:g}) n={n}",
            )
            for dist in dists
            for n in sizes
        ]
    if table == 5:
        return [mk(example_model(2), 10.0, 1000, "vg bias T=10 n=1000")]
    if table == 6:
        return [
            mk(example_model(2), t, n, f"vg rmse T={t:g} n={n}")
            for t in spans
            for n in sizes
        ]
    raise ValidationError(f"unknown table {table!r} (expected 1..6)")
