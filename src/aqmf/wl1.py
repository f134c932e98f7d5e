"""Weighted-L1 matrix factorization by cyclic weighted medians.

Minimizes sum_ij w_ij |x_ij - (U V^T)_ij| over the observed entries (i, j),
one weight each, by changing the factor pair one scalar entry at a time.
With every other entry held fixed the problem in a single entry is piecewise
linear in one variable, and its exact minimizer is a weighted median of
residual ratios, so the objective never increases.
"""

from __future__ import annotations

import copy

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


def _blocks(a, per: int, keep):
    """The rows of blocks ``keep`` of ``a``, whose blocks are ``per`` rows each."""
    return a.reshape(-1, per, a.shape[1])[keep].reshape(-1, a.shape[1])


class Stack:
    """Solver layout of P same-shape problems, built once from their masks
    and reused by every :func:`solve_wl1` call on them.

    The problems sit end to end.  Problem p owns rows ``p*m`` to
    ``p*m + m - 1`` of the stacked U (P*m x r) and of the stacked residual
    (P*m x n), and rows ``p*n`` to ``p*n + n - 1`` of the stacked V
    (P*n x r).  The V pass has one row per column of each problem and the U
    pass one row per row of each problem.  Each row lists its observed
    entries, then padding up to the widest such row of any problem; padding
    slots carry zero weight.

    ``v_row`` names the stacked U row behind each V-pass slot and ``v_at``
    its flat position in the stacked residual.  ``u_col`` and ``u_at`` do
    the same for the U pass, and ``u_from_v`` is the V-pass slot that holds
    each U-pass slot's residual (padding reads an arbitrary slot of its own
    problem).  Weights are the problems' observed-entry weights joined end
    to end; problem p's lie at ``bounds[p]:bounds[p + 1]``.
    """

    def __init__(self, problems):
        self.problems = tuple(problems)
        if not self.problems:
            raise ValueError("a stack needs at least one problem")
        shapes = sorted({X.shape for X in self.problems})
        if len(shapes) > 1:
            raise ValueError(f"stacked problems must share one shape, got {shapes}")
        (m, n), size = shapes[0], len(self.problems)
        self.shape = (m, n)
        self.mask = np.concatenate([X.mask for X in self.problems])
        self.bounds = np.cumsum([0] + [X.n_observed for X in self.problems])
        v_row = _row_layout(np.concatenate([X.mask.T for X in self.problems]))
        self.v_row = v_row + np.repeat(np.arange(0, size * m, m), n)[:, None]
        self.v_at = self.v_row * n + np.tile(np.arange(n), size)[:, None]
        u_col = _row_layout(self.mask)
        self.u_at = u_col + n * np.arange(size * m)[:, None]
        self.u_col = u_col + np.repeat(np.arange(0, size * n, n), m)[:, None]
        # A position no V slot covers reads its problem's first V slot, so
        # every problem's slots move as one block in :meth:`subset`.
        v_slot = np.repeat(np.arange(0, self.v_at.size, self.v_at.size // size), m * n)
        v_slot[self.v_at.ravel()] = np.arange(self.v_at.size)
        self.u_from_v = v_slot.take(self.u_at)

    def __len__(self) -> int:
        return len(self.problems)

    def subset(self, keep) -> "Stack":
        """The stack of problems ``keep`` (ascending positions in this one),
        taken from this layout without sorting again: their rows, with every
        offset moved to the problem's new place, at the same padded width."""
        keep = np.asarray(keep, dtype=np.intp)
        (m, n), width = self.shape, self.v_at.shape[1]
        moved = keep - np.arange(keep.size)  # blocks each kept problem moves up

        def rows(a, per, step):
            return _blocks(a, per, keep) - np.repeat(moved * step, per)[:, None]

        sub = copy.copy(self)
        sub.problems = tuple(self.problems[p] for p in keep)
        sub.mask = _blocks(self.mask, m, keep)
        sub.bounds = np.cumsum([0] + [X.n_observed for X in sub.problems])
        sub.v_row = rows(self.v_row, n, m)
        sub.v_at = rows(self.v_at, n, m * n)
        sub.u_col = rows(self.u_col, m, n)
        sub.u_at = rows(self.u_at, m, m * n)
        sub.u_from_v = rows(self.u_from_v, m, n * width)
        return sub

    def join(self, factors) -> FactorPair:
        """The stacked pair of per-problem pairs given in stack order."""
        return FactorPair(np.concatenate([f.u for f in factors]),
                          np.concatenate([f.v for f in factors]))

    def split(self, factors: FactorPair) -> list:
        """Per-problem views of a stacked pair, in stack order."""
        m, n = self.shape
        return [FactorPair(factors.u[p * m:(p + 1) * m], factors.v[p * n:(p + 1) * n])
                for p in range(len(self))]


def solve_wl1(
    X: MaskedMatrix | Stack,
    weights,
    factors: FactorPair,
    max_sweeps: int = 10,
) -> FactorPair:
    """Run cyclic weighted-median sweeps from a warm start.

    ``X`` is a :class:`MaskedMatrix`, solved as a one-problem stack, or a
    :class:`Stack` of P problems, each m x n.  ``factors`` is the stacked
    pair, u of shape (P*m, r) and v of shape (P*n, r), and so is the result.
    ``weights`` holds one finite, nonnegative weight per observed entry, in
    the row-major order of each problem's ``observed_values()``, the
    problems' vectors joined end to end.  Unobserved entries carry no
    weight.  ``max_sweeps`` is an integer of at least 1, not a bool or a
    float.

    One sweep updates every entry of V (column by column of X, factor by
    factor), then every entry of U (row by row, factor by factor).  Entries
    whose candidate set carries no positive weight are left untouched.  The
    per-factor residual is maintained incrementally and the full residual is
    recomputed once per sweep to bound drift.

    Each weighted median runs over the observed entries of one row or column
    of X only, padded with zero-weight slots up to the longest such row or
    column, so a sweep's work grows with the observed count rather than with
    the full m x n size.

    Each problem stops on its own when its objective decrease over a sweep
    falls below ``OBJECTIVE_TOLERANCE`` relative to its previous value; all
    stop after ``max_sweeps`` sweeps.  Once one stops, the others finish
    their budget as a smaller stack (:meth:`Stack.subset`), whose first
    objective is the one they just reached, so the stopped problem costs
    nothing more.

    All per-column subproblems of one factor column are independent of each
    other, across problems too, so they are solved in a single vectorized
    batch; results are identical to updating the entries one at a time, one
    problem at a time.  The test suite checks this from outside: a scalar
    reference sweep (``tests/oracles.py``) records the objective after every
    single entry update, and one-sweep solves must reproduce its factors.  A
    dense reference that sorts every entry of each row and column must give
    equal factors, and a stack must give the bits of separate solves.
    """
    max_sweeps = as_integer("max_sweeps", max_sweeps)
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    stack = X if isinstance(X, Stack) else Stack([X])
    (m, n), size, bounds = stack.shape, len(stack), stack.bounds
    w_obs = np.asarray(weights, dtype=float)
    if w_obs.shape != (bounds[-1],):
        raise ValueError(f"weights must have shape ({bounds[-1]},), got {w_obs.shape}")
    if not np.isfinite(w_obs).all() or (w_obs < 0).any():
        raise ValueError("weights must be finite and nonnegative")
    r = factors.rank
    if factors.u.shape != (size * m, r) or factors.v.shape != (size * n, r):
        what = f"{m}x{n} matrix" if size == 1 else f"stack of {size} {m}x{n} matrices"
        raise ValueError(
            f"factors for a {what} must have shapes u {(size * m, r)} and "
            f"v {(size * n, r)}, got u {factors.u.shape} and v {factors.v.shape}")
    U = factors.u.copy()
    V = factors.v.copy()
    live, run, w_run, U_run, V_run = np.arange(size), stack, w_obs, U, V
    while True:
        swept, keep = _sweep(run, w_run, U_run, V_run, max_sweeps)
        if U_run is not U:
            U.reshape(size, m, r)[live] = U_run.reshape(-1, m, r)
            V.reshape(size, n, r)[live] = V_run.reshape(-1, n, r)
        if not keep:
            return FactorPair(U, V)
        # The problems still running finish their budget as a smaller stack.
        max_sweeps -= swept
        w_run = np.concatenate([w_run[run.bounds[k]:run.bounds[k + 1]] for k in keep])
        run, live = run.subset(keep), live[keep]
        U_run, V_run = _blocks(U_run, m, keep), _blocks(V_run, n, keep)


def _sweep(stack: Stack, w_obs, U, V, max_sweeps: int):
    """Sweep the problems of ``stack`` from factors ``U`` and ``V``, in
    place, until one of them stops or ``max_sweeps`` sweeps have run.
    Returns the sweeps run and the positions of the problems still running,
    none once the budget is spent or all have stopped."""
    (m, n), size, bounds = stack.shape, len(stack), stack.bounds

    # The V pass runs over the columns of each problem, the U pass over its
    # rows.  Each holds its residual and weights in the stack's compact slots.
    W = np.zeros(size * m * n)
    W[stack.mask.ravel()] = w_obs
    v_w = W.take(stack.v_at)
    u_w = W.take(stack.u_at)
    R = np.empty((size * m, n))

    def residual(p):
        rows = slice(p * m, (p + 1) * m)
        np.subtract(stack.problems[p].values, U[rows] @ V[p * n:(p + 1) * n].T, out=R[rows])

    def objective(p):
        resid = R[p * m:(p + 1) * m][stack.problems[p].mask]
        return float(w_obs[bounds[p]:bounds[p + 1]] @ np.abs(resid))

    for p in range(size):
        residual(p)
    prev_obj = [objective(p) for p in range(size)] if max_sweeps > 1 else None

    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(1, max_sweeps + 1):
            R_v = _factor_pass(R.take(stack.v_at), v_w, stack.v_row, U, V)
            _factor_pass(R_v.take(stack.u_from_v), u_w, stack.u_col, V, U)
            if sweep == max_sweeps:
                break
            keep = []
            for p in range(size):
                residual(p)
                obj = objective(p)
                if prev_obj[p] - obj < OBJECTIVE_TOLERANCE * max(prev_obj[p], 1e-300):
                    continue
                prev_obj[p] = obj
                keep.append(p)
            if len(keep) < size:
                return sweep, keep
    return max_sweeps, []
