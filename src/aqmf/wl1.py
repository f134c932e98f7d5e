"""Weighted-L1 matrix factorization by cyclic weighted medians.

Minimizes sum_ij w_ij |x_ij - (U V^T)_ij| over the observed entries (i, j),
one weight each, by changing the factor pair one scalar entry at a time.
With every other entry held fixed the problem in a single entry is piecewise
linear in one variable, and its exact minimizer is a weighted median of
residual ratios, so the objective never increases.
"""

from __future__ import annotations

import numpy as np

from .types import FactorPair, MaskedMatrix, as_integer

# A solve stops once a sweep lowers the objective by less than this fraction.
OBJECTIVE_TOLERANCE = 1e-6


def _column_medians(cands: np.ndarray, wts: np.ndarray):
    """Weighted median of each row of ``cands`` under row weights ``wts``.

    One call updates one factor column, one entry per row.  Rows whose
    weights are all zero are flagged False in the second return value and
    get an unspecified median.  Every other row gets the value the stable
    rule picks (ascending sort, first crossing of half the total weight),
    whose scalar form is ``weighted_median`` in ``tests/oracles.py``; order
    inside tied blocks and the sign of a zero pick are unspecified.  Sort
    positions are turned into flat indices once; they gather the weights and
    then pick each median straight from ``cands``.
    """
    starts = np.arange(0, cands.size, cands.shape[1])
    order = cands.argsort(axis=1)
    order += starts[:, None]
    cum = np.add.accumulate(wts.take(order), axis=1)
    total = cum[:, -1]
    pick = (cum >= 0.5 * total[:, None]).argmax(axis=1)
    return cands.take(order.take(starts + pick)), total > 0


def _row_layout(mask):
    """Column of each row's observed entries, padded to the longest row.

    Each row lists its observed columns in order, then as many of its own
    unobserved columns as it needs to reach the common width.
    """
    width = int(mask.sum(axis=1).max())
    return np.argsort(~mask, axis=1, kind="stable")[:, :width]


def _factor_pass(R, W, fixed_at, fixed, moving):
    """Update every column of ``moving`` in place, ``fixed`` held constant.

    ``R`` and ``W`` hold one row per row of ``moving``, laid out as the pass's
    compact slots; ``fixed_at`` names the row of ``fixed`` behind each slot.
    Padding slots carry zero weight, so they never move a median.  Returns
    the updated residual.
    """
    for i in range(fixed.shape[1]):
        f = fixed[:, i].take(fixed_at)
        g = moving[:, i]
        E = R + g[:, None] * f
        wts = W * np.abs(f)
        cands = np.where(wts > 0, E / f, 0.0)
        med, live = _column_medians(cands, wts)
        new = np.where(live, med, g)
        moving[:, i] = new
        R = E - new[:, None] * f
    return R


def solve_wl1(
    X: MaskedMatrix,
    weights,
    factors: FactorPair,
    max_sweeps: int = 10,
) -> FactorPair:
    """Run cyclic weighted-median sweeps from a warm start.

    ``weights`` holds one finite, nonnegative weight per observed entry of X,
    in the row-major order of ``X.observed_values()``, shape
    ``(X.n_observed,)``; unobserved entries carry no weight.  ``max_sweeps``
    is an integer of at least 1, not a bool or a float.

    One sweep updates every entry of V (column by column of X, factor by
    factor), then every entry of U (row by row, factor by factor).  Entries
    whose candidate set carries no positive weight are left untouched.  The
    per-factor residual is maintained incrementally and the full residual is
    recomputed once per sweep to bound drift.

    Each weighted median runs over the observed entries of one row or column
    of X only, padded with zero-weight unobserved ones up to the longest such
    row or column, so a sweep's work grows with the observed count rather
    than with the full m x n size.

    Stops when the objective decrease over a sweep falls below
    ``OBJECTIVE_TOLERANCE`` relative to the previous value, or after
    ``max_sweeps`` sweeps.

    All per-column subproblems of one factor column are independent of each
    other, so they are solved in a single vectorized batch; results are
    identical to updating the entries one at a time.  The test suite checks
    this from outside: a scalar reference sweep (``tests/oracles.py``)
    records the objective after every single entry update, and one-sweep
    solves must reproduce its factors.  A dense reference that sorts every
    entry of each row and column must give equal factors.
    """
    max_sweeps = as_integer("max_sweeps", max_sweeps)
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    w_obs = np.asarray(weights, dtype=float)
    if w_obs.shape != (X.n_observed,):
        raise ValueError(f"weights must have shape ({X.n_observed},), got {w_obs.shape}")
    if not np.isfinite(w_obs).all() or (w_obs < 0).any():
        raise ValueError("weights must be finite and nonnegative")
    U = factors.u.copy()
    V = factors.v.copy()
    obs = X.mask
    values = X.values

    def objective(resid):
        return float(w_obs @ np.abs(resid[obs]))

    # The V pass runs over the columns of X, the U pass over its rows.  Each
    # holds its residual and weights at flat positions of X in compact slots.
    m, n = obs.shape
    W = np.zeros(m * n)
    W[obs.ravel()] = w_obs
    v_row = _row_layout(obs.T)
    v_at = v_row * n + np.arange(n)[:, None]
    u_col = _row_layout(obs)
    u_at = u_col + n * np.arange(m)[:, None]
    v_slot = np.zeros(m * n, dtype=np.intp)
    v_slot[v_at.ravel()] = np.arange(v_at.size)
    u_from_v = v_slot.take(u_at)  # padding reads an arbitrary slot
    v_w = W.take(v_at)
    u_w = W.take(u_at)

    R = values - U @ V.T
    prev_obj = objective(R) if max_sweeps > 1 else None

    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(1, max_sweeps + 1):
            R_v = _factor_pass(R.take(v_at), v_w, v_row, U, V)
            _factor_pass(R_v.take(u_from_v), u_w, u_col, V, U)
            if sweep == max_sweeps:
                break
            R = values - U @ V.T
            obj = objective(R)
            if prev_obj - obj < OBJECTIVE_TOLERANCE * max(prev_obj, 1e-300):
                break
            prev_obj = obj
    return FactorPair(U, V)
