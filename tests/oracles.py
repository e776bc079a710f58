"""Oracles the tests share, built from the estimators' own kernel sums."""

import math

import numpy as np

from lljd import estimators
from lljd.bandwidth import cross_validate
from lljd.estimators import _closed_form, _degree, _fit_sums, term_points


def fit_responses(xt, responses, grid, cfg):
    """Fit an arbitrary response vector (one entry per estimating term) over a
    grid, alone in its pass. Returns (values, n_eff, undefined_count)."""
    kpts, ppts = term_points(xt, cfg.index_alignment)
    cols = np.column_stack([np.ones(len(kpts)), np.asarray(responses, dtype=float)])
    s, t, _ = _fit_sums(kpts, ppts, cols, grid, cfg.kernel, cfg.bandwidth, _degree(cfg.method))
    (vals,), n_eff, ok = _closed_form(s, t, cfg.method, len(kpts))
    return vals, n_eff, int((~ok).sum())


def exact_cv(xt, h_grid, cfg=None):
    """cross_validate with exact leave-out sums at every h: the oracle of its
    binned sums."""
    saved = estimators.CV_BINS_PER_H
    estimators.CV_BINS_PER_H = math.inf
    try:
        return cross_validate(xt, h_grid, cfg)
    finally:
        estimators.CV_BINS_PER_H = saved
