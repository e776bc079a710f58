"""Command-line surface tying the modules into reproducible runs.

Commands: simulate, estimate, mc-study, empirical. Exit codes: 0 on success,
2 on validation errors and on failures to read or write a file, 3 on
numerical failures. Every output's directory is checked before any work.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .bandwidth import BandwidthChoice, cross_validate, default_cv_grid, rule_of_thumb
from .errors import NumericalError, ValidationError
from .estimators import ALIGNMENTS, RANGE_MODES, EstimatorConfig, default_grid, estimate_curve
from .inference import attach_bands, check_band_method
from .io import (
    RunManifest,
    Stages,
    csv_header,
    emit_report,
    ingest_prices,
    read_columns_csv,
    sha256_file,
    write_curve_csv,
    write_cv_csv,
    write_path_csv,
    write_proxy_csv,
    write_table,
)
from .kernels import KERNEL_NAMES, get_kernel
from .mcstudy import (
    METHOD_ALIASES,
    McConfig,
    example_model,
    qq_data,
    run_studies,
    run_study,  # noqa: F401  (kept bound here for perfbench/spans.py)
    table_presets,
)
from .proxy import ProxySeries, build_proxy
from .simulate import (
    JUMP_SIZE_FAMILIES,
    CompoundPoisson,
    JumpSizeDist,
    NoJumps,
    PathConfig,
    VarianceGamma,
    default_model,
    simulate_path,
)

__all__ = ["main"]


def _parse_delta(text: str) -> float:
    """Accept plain floats or fractions like 1/48."""
    try:
        if "/" in text:
            from fractions import Fraction

            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValidationError(f"cannot parse step {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lljd",
        description=(
            "Nonparametric drift and second-moment estimation for "
            "jump-diffusions observed through their integral"
        ),
    )
    parser.add_argument("--version", action="version", version=f"lljd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the options several commands share, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--kernel", default="gaussian", choices=KERNEL_NAMES)
    grid.add_argument("--grid-n", type=int, default=101)
    curve = argparse.ArgumentParser(add_help=False)
    curve.add_argument("--h", default="auto",
                       help="'auto' (rule of thumb), 'cv' (cross-validation) or a number")
    curve.add_argument("--bands", type=float, default=None, metavar="ALPHA",
                       help="append confidence band columns at this level")
    curve.add_argument("--pilot-mult", type=float, default=2.0,
                       help="pilot bandwidth multiple for curvature estimation")
    span = argparse.ArgumentParser(add_help=False)
    span.add_argument("--t", type=float, default=10.0, help="observation span")
    span.add_argument("--n", type=int, default=1000, help="number of observations")
    span.add_argument("--seed", type=int, default=1)

    sim = sub.add_parser("simulate", parents=[span, out],
                         help="simulate an integrated jump-diffusion path")
    sim.add_argument("--jump", default="none", choices=["none", "cp", "vg"])
    sim.add_argument("--substeps", type=int, default=10)
    sim.add_argument("--burn-in", type=int, default=200)
    sim.add_argument("--x0", type=float, default=0.0)
    sim.add_argument("--y0", type=float, default=0.0)
    sim.add_argument("--lambda", dest="lam", type=float, default=2.0,
                     help="compound Poisson intensity")
    sim.add_argument("--size-dist", default="normal", choices=JUMP_SIZE_FAMILIES)
    sim.add_argument("--size-loc", type=float, default=0.0)
    sim.add_argument("--size-scale", type=float, default=0.036)
    sim.add_argument("--vg-c", type=float, default=-0.2)
    sim.add_argument("--vg-eta", type=float, default=0.2)
    sim.add_argument("--vg-b", type=float, default=0.23)

    est = sub.add_parser("estimate", parents=[grid, curve, out],
                         help="estimate drift/second-moment curves")
    est.add_argument("--in", dest="infile", required=True,
                     help="CSV with an xtilde column (proxy) or a y column (integrated path)")
    est.add_argument("--method", default="ll", choices=list(METHOD_ALIASES))
    est.add_argument("--alignment", default="aligned", choices=ALIGNMENTS)
    est.add_argument("--delta", default=None, help="override the step (float or a/b)")
    est.add_argument("--grid-lo", type=float, default=None)
    est.add_argument("--grid-hi", type=float, default=None)
    est.add_argument("--cv-out", default=None, help="dump the CV curve to this CSV")

    mc = sub.add_parser("mc-study", parents=[span, grid, out],
                        help="Monte Carlo benchmark of the estimators")
    mc.add_argument("--example", type=int, default=1, choices=[1, 2],
                    help="1: compound Poisson jumps, 2: Variance Gamma jumps")
    mc.add_argument("--table", type=int, default=None, choices=[1, 2, 3, 4, 5, 6],
                    help="run a preset benchmark table instead of a single config")
    mc.add_argument("--reps", type=int, default=100)
    mc.add_argument("--methods", default="ll,nw")
    mc.add_argument("--range", dest="range_mode", default="inner", choices=RANGE_MODES)
    mc.add_argument("--csv-prefix", default=None,
                    help="also write per-config band and QQ CSV extracts")

    emp = sub.add_parser("empirical", parents=[grid, curve, out],
                         help="estimate from an observed price series")
    emp.add_argument("--in", dest="infile", required=True)
    emp.add_argument("--price-col", required=True)
    emp.add_argument("--delta", default="1/48",
                     help="observation step in days (default five-minute: 1/48)")
    emp.add_argument("--proxy-out", default=None)

    return parser


def _fixed_bandwidth(spec: str) -> BandwidthChoice | None:
    """A number given as --h, checked as the fit's bandwidth (EstimatorConfig)
    before any input is read; None for 'auto' and 'cv'."""
    if spec in ("auto", "cv"):
        return None
    try:
        h = float(spec)
    except ValueError:
        raise ValidationError(f"--h must be 'auto', 'cv' or a number, got {spec!r}") from None
    return BandwidthChoice(h=EstimatorConfig(h).bandwidth, method="fixed")


def _choose_bandwidth(spec: str, series: ProxySeries, cfg: EstimatorConfig):
    """The bandwidth of --h 'auto' or 'cv'; CV fits with the kernel, method
    and alignment of `cfg`."""
    if spec == "auto":
        return rule_of_thumb(series)
    return cross_validate(series, default_cv_grid(rule_of_thumb(series).h), cfg)


def _bandwidth_record(choice: BandwidthChoice) -> dict:
    """The manifest's account of the bandwidth choice. A cross-validated h at
    an edge of its grid is logged as a warning: the CV minimum may lie beyond.
    The CV flatness is (max - min) / min over the finite CV values: how much
    the choice of h matters on the grid (null when the minimum is 0)."""
    cv = choice.cv_curve
    edge = cv and choice.h in (cv[0][0], cv[-1][0])
    if edge:
        import logging  # only this warning logs; keeps it off CLI start-up

        logging.getLogger(__name__).warning(
            "cross-validation chose h=%g at an edge of its grid [%g, %g]; "
            "the CV minimum may lie beyond it", choice.h, cv[0][0], cv[-1][0])
    flatness = None
    if cv:
        finite = [c for _, c in cv if np.isfinite(c)]
        flatness = (max(finite) - min(finite)) / min(finite) if min(finite) > 0 else None
    return {"h": choice.h, "method": choice.method, "cv_grid_edge": edge,
            "cv_degenerate_max": max(choice.cv_degenerate) if cv else None,
            "cv_exact_terms": choice.cv_exact_terms, "cv_bins": choice.cv_bins,
            "cv_flatness": flatness}


def _peak_rss_mb() -> float:
    """This process's peak RSS in MiB: its own VmHWM, else ru_maxrss (KiB on
    Linux), which also keeps the spawning process's mark across exec."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _write_manifest(args, start: float, **diagnostics) -> float:
    """Write the manifest of the command's --out artifact; returns the runtime.

    The command's --seed, when it has one, is the master seed, and its --in
    file, when it has one, is digested. The diagnostics add the peak RSS,
    read after the digest, which loads OpenSSL.
    """
    runtime = time.perf_counter() - start
    infile = getattr(args, "infile", None)
    digests = {infile: sha256_file(infile)} if infile else {}
    diagnostics["peak_rss_mb"] = _peak_rss_mb()
    RunManifest(
        command=args.command,
        params={k: v for k, v in vars(args).items() if k != "command"},
        master_seed=getattr(args, "seed", None),
        input_digests=digests,
        runtime_s=runtime,
        diagnostics=diagnostics,
    ).write(args.out)
    return runtime


def _fit_and_write(args, series: ProxySeries, grid, cfg: EstimatorConfig, stages: Stages,
                   choice: BandwidthChoice, **diagnostics):
    """Shared tail of estimate and empirical: fit both curves at the chosen h,
    attach bands when --bands is given, write the curve CSV and its manifest,
    which records the seconds of each stage, how the curve pass and the bands'
    pilot pass took their kernel sums (null without that pass), the undefined
    grid points of curve and bands (null without bands) and `diagnostics`."""
    est = estimate_curve(series, grid, replace(cfg, bandwidth=choice.h))
    stages.lap("fit")
    if args.bands is not None:
        attach_bands(est, series, alpha=args.bands, pilot_h=args.pilot_mult * est.h)
        stages.lap("bands")
    write_curve_csv(args.out, est)
    stages.lap("write")
    b = est.bands
    fit = {"curve": est.sums, "pilot": b.pilot_sums if b else None,
           "undefined_count": est.undefined_count, "undefined_mu": b.undefined_mu if b else None,
           "undefined_m": b.undefined_m if b else None}
    _write_manifest(args, stages.start, bandwidth=_bandwidth_record(choice), fit=fit,
                    stages=stages.seconds, **diagnostics)
    return est


def _cmd_simulate(args) -> int:
    if args.jump == "cp":
        jump = CompoundPoisson(
            lam=args.lam,
            size=JumpSizeDist(args.size_dist, args.size_loc, args.size_scale),
        )
    elif args.jump == "vg":
        jump = VarianceGamma(c=args.vg_c, eta=args.vg_eta, b=args.vg_b)
    else:
        jump = NoJumps()
    model = default_model(jump=jump, x0=args.x0, y0=args.y0)
    cfg = PathConfig(t_span=args.t, n=args.n, seed=args.seed,
                     burn_in=args.burn_in, substeps=args.substeps)
    stages = Stages()
    path = simulate_path(model, cfg)
    stages.lap("simulate")
    write_path_csv(args.out, path)
    stages.lap("write")
    _write_manifest(args, stages.start, stages=stages.seconds)
    print(f"wrote {args.out} ({len(path.x)} observations, delta={path.delta:g})")
    return 0


def _load_series(args) -> ProxySeries:
    """The proxy series of --in. Only the columns used are parsed: xtilde (or
    else y) and, without --delta, t; any other column may hold anything. The
    step is parsed before the file is read and checked by the series."""
    delta = None if args.delta is None else _parse_delta(args.delta)
    header = csv_header(args.infile)
    names = [name for name in ("xtilde", "y") if name in header][:1]
    if not names:
        raise ValidationError(f"{args.infile}: need an 'xtilde' or 'y' column")
    if delta is None and "t" in header:
        names.append("t")
    cols = read_columns_csv(args.infile, names)
    if "t" in cols:
        if len(cols["t"]) < 2:
            raise ValidationError(f"{args.infile}: too few data rows ({len(cols['t'])})")
        bad = np.flatnonzero(~np.isfinite(cols["t"]))
        if bad.size:
            raise ValidationError(f"{args.infile}: non-finite 't' at 0-based data row "
                                  f"{bad[0]} (value {float(cols['t'][bad[0]])}); pass --delta")
        t = cols["t"]
        steps = np.diff(t)
        rising, delta = steps.min() > 0, float(steps.mean())
        del steps
        # uniform in any time unit: t strays from t_0 + i delta by at most
        # 1e-6 delta, room for its decimal rounding (formed in place)
        stray = np.arange(len(t), dtype=float)
        stray *= delta
        stray -= t
        stray += t[0]
        if not rising or np.abs(stray, out=stray).max() > 1e-6 * delta:
            raise ValidationError(
                f"{args.infile}: time column is not uniformly spaced; pass --delta"
            )
    elif delta is None:
        raise ValidationError(f"{args.infile}: no time column; pass --delta")
    if "xtilde" in cols:
        return ProxySeries(delta=delta, xt=cols["xtilde"])
    return build_proxy(cols["y"], delta)


def _cmd_estimate(args) -> int:
    lo, hi = args.grid_lo, args.grid_hi
    if (lo is None) != (hi is None):
        raise ValidationError("--grid-lo and --grid-hi must be given together")
    if lo is not None and not -math.inf < lo < hi < math.inf:
        raise ValidationError(f"need finite --grid-lo < --grid-hi, got {lo:g} and {hi:g}")
    if args.cv_out and args.h != "cv":
        raise ValidationError("--cv-out needs --h cv: there is no CV curve to write")
    if args.bands is not None:
        check_band_method(METHOD_ALIASES[args.method])
    fixed = _fixed_bandwidth(args.h)
    stages = Stages()
    series = _load_series(args)
    stages.lap("ingest")
    cfg = EstimatorConfig(1.0, get_kernel(args.kernel), METHOD_ALIASES[args.method],
                          args.alignment)
    choice = fixed or _choose_bandwidth(args.h, series, cfg)
    stages.lap("bandwidth")
    if args.cv_out:
        write_cv_csv(args.cv_out, choice)
        stages.lap("write")
    grid = default_grid(series, args.grid_n) if lo is None else np.linspace(lo, hi, args.grid_n)
    est = _fit_and_write(args, series, grid, cfg, stages, choice)
    print(
        f"wrote {args.out} (h={est.h:g}, method={est.method}, "
        f"{est.undefined_count} undefined grid points)"
    )
    return 0


def _cmd_mc_study(args) -> int:
    stages = Stages()
    names = [m.strip() for m in args.methods.split(",")]
    unknown = [m for m in names if m not in METHOD_ALIASES]
    if unknown:
        raise ValidationError(f"unknown --methods {', '.join(map(repr, unknown))}; "
                              f"expected a comma-separated list of {sorted(METHOD_ALIASES)}")
    methods = tuple(METHOD_ALIASES[m] for m in names)
    if args.table is not None:
        # argparse cannot tell a default given explicitly from an absent option
        default = _build_parser().parse_args(["mc-study", f"--out={args.out}"])
        given = [f"--{k}" for k in ("example", "t", "n") if getattr(args, k) != getattr(default, k)]
        if given:
            raise ValidationError(f"--table runs preset configs and takes no {', '.join(given)}")
        configs = table_presets(args.table, replicates=args.reps, master_seed=args.seed)
    else:
        configs = [McConfig(model=example_model(args.example), t_span=args.t, n=args.n,
                            replicates=args.reps, master_seed=args.seed,
                            label=f"example {args.example} T={args.t:g} n={args.n}")]
    reports = run_studies([
        replace(c, methods=methods, grid_n=args.grid_n, range_mode=args.range_mode,
                kernel=get_kernel(args.kernel))
        for c in configs
    ], stages.seconds)
    stages.lap("study")
    emit_report({"kind": "mc_study_report", "configs": [r.to_dict() for r in reports]},
                args.out)
    if args.csv_prefix:
        for idx, rep in enumerate(reports):
            for method in rep.methods:
                band = rep.mc_band[method]
                write_table(f"{args.csv_prefix}_band_{idx}_{method}.csv",
                            {"x": band["grid"], "lo": band["lo"], "hi": band["hi"],
                             "mean": band["mean"]})
                std = rep.standardized.get(method)
                if std is not None and len(std) >= 20:
                    pairs, _ = qq_data(np.asarray(std))
                    write_table(f"{args.csv_prefix}_qq_{idx}_{method}.csv",
                                {"theoretical": pairs[:, 0], "sample": pairs[:, 1]})
    stages.lap("write")
    runtime = _write_manifest(args, stages.start, stages=stages.seconds)
    for rep in reports:
        line = ", ".join(f"rmse[{m}]={rep.rmse[m]:.4f}" for m in rep.methods)
        print(f"{rep.label or 'study'}: {line} (skipped {rep.skipped})")
    print(f"wrote {args.out} in {runtime:.1f}s")
    return 0


def _cmd_empirical(args) -> int:
    stages = Stages()
    delta = _parse_delta(args.delta)
    fixed = _fixed_bandwidth(args.h)
    series, info = ingest_prices(args.infile, args.price_col, delta)
    stages.lap("ingest")
    if args.proxy_out:
        write_proxy_csv(args.proxy_out, series)
        stages.lap("write")
    cfg = EstimatorConfig(1.0, get_kernel(args.kernel))
    choice = fixed or _choose_bandwidth(args.h, series, cfg)
    stages.lap("bandwidth")
    est = _fit_and_write(args, series, default_grid(series, args.grid_n), cfg, stages, choice,
                         ingest=info)
    print(
        f"ingested {info['rows']} prices (delta={delta:g}, uniform steps assumed); "
        f"wrote {args.out} (h={est.h:g})"
    )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "mc-study": _cmd_mc_study,
    "empirical": _cmd_empirical,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "grid_n", 1) < 1:
            raise ValidationError(f"--grid-n must be at least 1, got {args.grid_n}")
        if getattr(args, "bands", None) is not None and not 0.0 < args.bands < 1.0:
            raise ValidationError(f"--bands must be in (0, 1), got {args.bands}")
        if not 0.0 < getattr(args, "pilot_mult", 1.0) < math.inf:
            raise ValidationError(f"--pilot-mult must be positive and finite, "
                                  f"got {args.pilot_mult}")
        for option in ("out", "cv_out", "proxy_out", "csv_prefix"):  # --out's manifest too
            target = getattr(args, option, None) or ""
            folder = os.path.dirname(target)
            if folder and not os.path.isdir(folder):
                raise ValidationError(f"--{option.replace('_', '-')} {target}: "
                                      f"no directory {folder!r}")
        return _COMMANDS[args.command](args)
    except (ValidationError, OSError) as exc:  # OSError: reading --in or writing an output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

