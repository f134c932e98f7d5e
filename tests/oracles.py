"""Scalar reference implementations: the weighted median, the weighted-L1
objective, the observed-data log-likelihood and the factor updates.

Shared by the unit and acceptance tests; pytest does not collect this
module.  The library's vectorised kernels and EM loop are checked against
these.  Every sweep here updates one factor entry at a time, so it is slow
but easy to check against the definition of the objective.
"""

import numpy as np

from aqmf import ald
from aqmf.em import observed_residuals
from aqmf.types import FactorPair, MaskedMatrix
from aqmf.wl1 import OBJECTIVE_TOLERANCE


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


def wl1_objective(X: MaskedMatrix, weight_matrix: np.ndarray, factors: FactorPair) -> float:
    """Weighted L1 residual sum over observed entries."""
    resid = X.values - factors.product()
    obs = X.mask
    return float(np.sum(weight_matrix[obs] * np.abs(resid[obs])))


def observed_loglik(X: MaskedMatrix, factors: FactorPair, model: ald.MoALModel) -> float:
    """Total mixture log-density of the observed residuals."""
    residuals = observed_residuals(X, factors)
    return float(np.sum(ald.mixture_logpdf(residuals, model)))


def update_v_entry(j, i, X, weight_matrix, factors):
    """Optimal V[j, i] with every other factor entry held fixed.

    Rows whose combined weight w_lj * |U[l, i]| is zero are excluded from the
    median; if nothing remains the current value is returned unchanged.
    """
    U, V = factors.u, factors.v
    col = X.values[:, j] - U @ V[j, :] + U[:, i] * V[j, i]
    w = weight_matrix[:, j] * np.abs(U[:, i])
    live = w > 0
    if not live.any():
        return float(V[j, i])
    return weighted_median(col[live] / U[live, i], w[live])


def update_u_entry(j, i, X, weight_matrix, factors):
    """Optimal U[j, i] with every other factor entry held fixed."""
    U, V = factors.u, factors.v
    row = X.values[j, :] - V @ U[j, :] + V[:, i] * U[j, i]
    w = weight_matrix[j, :] * np.abs(V[:, i])
    live = w > 0
    if not live.any():
        return float(U[j, i])
    return weighted_median(row[live] / V[live, i], w[live])


def scalar_sweep(X, weight_matrix, factors):
    """One cyclic weighted-median sweep, one scalar update at a time.

    Follows the order of ``wl1.solve_wl1``: every entry of V, rank column by
    rank column, then every entry of U the same way.  Each update is written
    back before the next.  Returns the new factors and the objective after
    every scalar update (V's updates first).
    """
    out = FactorPair(factors.u.copy(), factors.v.copy())
    trace = []
    for moving, update in ((out.v, update_v_entry), (out.u, update_u_entry)):
        for i in range(out.rank):
            for j in range(moving.shape[0]):
                moving[j, i] = update(j, i, X, weight_matrix, out)
                trace.append(wl1_objective(X, weight_matrix, out))
    return out, trace


def relative_gap(got, ref):
    """Largest entry difference between two factor pairs, relative to the
    largest entry of ``ref``."""
    a = np.vstack([got.u, got.v])
    b = np.vstack([ref.u, ref.v])
    return float(np.abs(a - b).max() / np.abs(b).max())


def dense_sweep(X, weight_matrix, factors, max_sweeps):
    """``wl1.solve_wl1`` over every entry of each row and column.

    Each factor column's weighted medians run over whole rows of dense m x n
    arrays, hidden entries included with zero weight, through the stable
    scalar ``weighted_median``.  Stops by the solver's rule.
    """
    U, V = factors.u.copy(), factors.v.copy()
    obs, values = X.mask, X.values
    w_obs = weight_matrix[obs]

    def factor_pass(R, W, fixed, moving):
        for i in range(fixed.shape[1]):
            f, g = fixed[:, i], moving[:, i].copy()
            E = R + g[:, None] * f
            wts = W * np.abs(f)
            cands = np.where(wts > 0, E / f, 0.0)
            for k in np.flatnonzero((wts > 0).any(axis=1)):
                g[k] = weighted_median(cands[k], wts[k])
            moving[:, i] = g
            R = E - g[:, None] * f
        return R

    def objective(R):
        return float(w_obs @ np.abs(R[obs]))

    R = values - U @ V.T
    prev = objective(R)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_sweeps):
            R_T = factor_pass(R.T, weight_matrix.T, U, V)
            factor_pass(R_T.T, weight_matrix, V, U)
            R = values - U @ V.T
            obj = objective(R)
            if prev - obj < OBJECTIVE_TOLERANCE * max(prev, 1e-300):
                break
            prev = obj
    return FactorPair(U, V)
