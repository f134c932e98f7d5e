"""Weighted-L1 matrix factorization by cyclic weighted medians.

Minimizes sum_ij w_ij |x_ij - (U V^T)_ij| over the factor pair one scalar
entry at a time.  With every other entry held fixed the problem in a single
entry is piecewise linear in one variable, and its exact minimizer is a
weighted median of residual ratios, so the objective never increases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import FactorPair, MaskedMatrix


@dataclass(frozen=True)
class WL1Options:
    """Inner-solver settings: sweep budget and relative stopping tolerance."""

    max_sweeps: int = 10
    objective_tolerance: float = 1e-6

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if not self.objective_tolerance > 0:
            raise ValueError("objective_tolerance must be positive")


def weighted_median(values, weights) -> float:
    """Exact minimizer of f(v) = sum_l weights[l] * |v - values[l]|.

    The result is always one of the input values.  Ties are broken
    deterministically: candidates are sorted ascending (stable for equal
    values) and the first value at which the cumulative weight reaches half
    of the total weight is returned.
    """
    vals = np.asarray(values, dtype=float)
    wts = np.asarray(weights, dtype=float)
    if vals.ndim != 1 or vals.shape != wts.shape:
        raise ValueError("values and weights must be 1-d arrays of equal length")
    if vals.size == 0:
        raise ValueError("weighted median of an empty set")
    if not np.isfinite(vals).all():
        raise ValueError("values must be finite")
    if not np.isfinite(wts).all() or (wts < 0).any():
        raise ValueError("weights must be finite and nonnegative")
    if not (wts > 0).any():
        raise ValueError("weighted median needs at least one positive weight")
    order = np.argsort(vals, kind="stable")
    cum = np.cumsum(wts[order])
    pick = int(np.argmax(cum >= 0.5 * cum[-1]))
    return float(vals[order[pick]])


def _column_medians(cands: np.ndarray, wts: np.ndarray):
    """Weighted median of each column of ``cands`` under column weights ``wts``.

    Columns whose weights are all zero are flagged False in the second return
    value and get an unspecified median.  Tie-breaking matches
    :func:`weighted_median` (stable ascending sort, first crossing of half the
    total weight).

    The work runs on the transposed arrays, one contiguous row per column,
    so callers that hold row-major data pass transposed views and nothing is
    copied.  Sort positions are turned into flat indices once; they gather
    the weights and then pick each median straight from ``cands``.
    """
    c = np.ascontiguousarray(cands.T)
    w = np.ascontiguousarray(wts.T)
    rows, length = c.shape
    starts = np.arange(0, rows * length, length)
    order = c.argsort(axis=1, kind="stable")
    order += starts[:, None]
    cum = np.add.accumulate(w.take(order), axis=1)
    total = cum[:, -1]
    pick = (cum >= 0.5 * total[:, None]).argmax(axis=1)
    return c.take(order.take(starts + pick)), total > 0


def wl1_objective(X: MaskedMatrix, weight_matrix: np.ndarray, factors: FactorPair) -> float:
    """Weighted L1 residual sum over observed entries."""
    resid = X.values - factors.product()
    obs = X.mask
    return float(np.sum(weight_matrix[obs] * np.abs(resid[obs])))


def _check_weight_matrix(X: MaskedMatrix, weight_matrix) -> np.ndarray:
    W = np.asarray(weight_matrix, dtype=float)
    if W.shape != X.shape:
        raise ValueError(f"weight matrix shape {W.shape} does not match data {X.shape}")
    if not np.isfinite(W[X.mask]).all() or (W[X.mask] < 0).any():
        raise ValueError("weights on observed entries must be finite and nonnegative")
    if W[~X.mask].any():
        raise ValueError("weights on unobserved entries must be zero")
    return W


def _extend_trace(trace: list, running: float, deltas: np.ndarray) -> float:
    vals = running - np.cumsum(deltas)
    trace.extend(float(t) for t in vals)
    return float(vals[-1]) if vals.size else running


def _factor_pass(R, W, obs, fixed, moving, trace, running):
    """Update every column of ``moving`` in place, ``fixed`` held constant.

    ``R``, ``W`` and ``obs`` are laid out with one row per row of ``moving``
    and one column per row of ``fixed``, so each weighted median runs over
    one contiguous row.  Returns the updated residual and running objective.
    """
    for i in range(fixed.shape[1]):
        f = fixed[:, i]
        g = moving[:, i]
        E = R + g[:, None] * f
        wts = W * np.abs(f)
        cands = np.where(wts > 0, E / f, 0.0)
        med, live = _column_medians(cands.T, wts.T)
        new = np.where(live, med, g)
        if trace is not None:
            t_old = np.where(obs, W * np.abs(E - g[:, None] * f), 0.0).sum(axis=1)
            t_new = np.where(obs, W * np.abs(E - new[:, None] * f), 0.0).sum(axis=1)
            running = _extend_trace(trace, running, t_old - t_new)
        moving[:, i] = new
        R = E - new[:, None] * f
    return R, running


def solve_wl1(
    X: MaskedMatrix,
    weight_matrix,
    factors: FactorPair,
    options: WL1Options | None = None,
    objective_trace: list | None = None,
) -> FactorPair:
    """Run cyclic weighted-median sweeps from a warm start.

    One sweep updates every entry of V (column by column of X, factor by
    factor), then every entry of U (row by row, factor by factor).  Entries
    whose candidate set carries no positive weight are left untouched.  The
    per-factor residual is maintained incrementally and the full residual is
    recomputed once per sweep to bound drift.

    Stops when the objective decrease over a sweep falls below
    ``objective_tolerance`` relative to the previous value, or after
    ``max_sweeps`` sweeps.

    When ``objective_trace`` is a list, the objective value after every
    single entry update is appended to it.

    All per-column subproblems of one factor column are independent of each
    other, so they are solved in a single vectorized batch; results are
    identical to updating the entries one at a time.
    """
    opts = options or WL1Options()
    W = _check_weight_matrix(X, weight_matrix)
    U = factors.u.copy()
    V = factors.v.copy()
    obs = X.mask
    w_obs = W[obs]
    values = X.values

    def objective(resid):
        return float(w_obs @ np.abs(resid[obs]))

    W_T = np.ascontiguousarray(W.T)
    R = values - U @ V.T
    prev_obj = objective(R)
    running = prev_obj

    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(opts.max_sweeps):
            # the V pass works on n x m arrays, the U pass on m x n ones
            R_T, running = _factor_pass(
                np.ascontiguousarray(R.T), W_T, obs.T, U, V, objective_trace, running
            )
            _factor_pass(np.ascontiguousarray(R_T.T), W, obs, V, U, objective_trace, running)
            R = values - U @ V.T
            obj = objective(R)
            done = prev_obj - obj < opts.objective_tolerance * max(prev_obj, 1e-300)
            prev_obj = obj
            running = obj
            if done:
                break
    return FactorPair(U, V)
