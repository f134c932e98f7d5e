"""Weighted median and coordinate-descent weighted-L1 factorization tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqmf import wl1
from aqmf.types import FactorPair, MaskedMatrix
from aqmf.wl1 import WL1Options, solve_wl1, weighted_median, wl1_objective


def brute_force_median(values, weights):
    """Minimize sum(w. * |values - a|) by scanning the input values."""
    values = np.asarray(values, float)
    weights = np.asarray(weights, float)
    costs = [np.sum(weights * np.abs(values - a)) for a in values]
    return values[int(np.argmin(costs))], min(costs)


def test_weighted_median_basics():
    assert weighted_median([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]) == 2.0
    assert weighted_median([5.0], [0.1]) == 5.0
    # heavy weight drags the minimizer to its value
    assert weighted_median([0.0, 10.0], [1.0, 5.0]) == 10.0


def test_weighted_median_even_tie_takes_lower():
    # with equal weight on both sides either point minimizes; the cumulative
    # rule settles on the smaller value, which keeps runs reproducible
    assert weighted_median([1.0, 2.0], [1.0, 1.0]) == 1.0
    assert weighted_median([4.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0]) == 2.0


def test_weighted_median_validation():
    with pytest.raises(ValueError):
        weighted_median([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        weighted_median([1.0], [-1.0])
    with pytest.raises(ValueError):
        weighted_median([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        weighted_median([], [])


@given(
    vals=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=9
    ),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=300, deadline=None)
def test_weighted_median_minimizes_objective(vals, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.01, 5.0, size=len(vals))
    got = weighted_median(vals, weights)
    _, best = brute_force_median(vals, weights)
    cost = np.sum(weights * np.abs(np.asarray(vals) - got))
    assert got in np.asarray(vals)
    assert cost <= best * (1 + 1e-12) + 1e-12


def test_column_medians_match_scalar_calls():
    rng = np.random.default_rng(3)
    cands = rng.normal(size=(7, 5))
    wts = rng.uniform(0, 2, size=(7, 5))
    wts[:, 2] = 0.0  # dead column stays untouched
    med, live = wl1._column_medians(cands, wts)
    for j in range(5):
        if live[j]:
            assert med[j] == weighted_median(cands[:, j], wts[:, j])
        else:
            assert j == 2
    # the solver passes transposed (not C-contiguous) views of row-major data
    rows = np.round(rng.normal(size=(5, 9)), 1)  # ties likely
    row_wts = rng.uniform(0, 2, size=(5, 9))
    assert not rows.T.flags.c_contiguous
    med_r, live_r = wl1._column_medians(rows.T, row_wts.T)
    assert live_r.all()
    for k in range(5):
        assert med_r[k] == weighted_median(rows[k], row_wts[k])


def _random_problem(rng, m=10, n=8, rank=2, missing=0.2):
    u = rng.normal(size=(m, rank))
    v = rng.normal(size=(n, rank))
    data = u @ v.T + rng.laplace(scale=0.3, size=(m, n))
    mask = rng.random((m, n)) >= missing
    mask.flat[0] = True  # keep at least one observation
    X = MaskedMatrix(np.where(mask, data, 0.0), mask)
    W = np.where(mask, rng.uniform(0.1, 2.0, size=(m, n)), 0.0)
    factors = FactorPair(rng.normal(size=(m, rank)), rng.normal(size=(n, rank)))
    return X, W, factors


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


def test_scalar_updates_never_increase_objective():
    rng = np.random.default_rng(0)
    moved = 0
    for _ in range(25):
        X, W, factors = _random_problem(rng)
        obj = wl1_objective(X, W, factors)
        for j in range(X.shape[1]):
            for l in range(factors.rank):
                new = update_v_entry(j, l, X, W, factors)
                moved += new != factors.v[j, l]
                factors.v[j, l] = new
                nxt = wl1_objective(X, W, factors)
                assert nxt <= obj + 1e-9 * (1.0 + abs(obj))
                obj = nxt
        for i in range(X.shape[0]):
            for l in range(factors.rank):
                new = update_u_entry(i, l, X, W, factors)
                moved += new != factors.u[i, l]
                factors.u[i, l] = new
                nxt = wl1_objective(X, W, factors)
                assert nxt <= obj + 1e-9 * (1.0 + abs(obj))
                obj = nxt
    assert moved > 0  # the updates are written back, so the check bites


def test_solve_recovers_noiseless_rank1():
    rng = np.random.default_rng(8)
    u = rng.normal(size=(12, 1))
    v = rng.normal(size=(9, 1))
    truth = u @ v.T
    X = MaskedMatrix(truth, np.ones_like(truth, dtype=bool))
    W = np.ones_like(truth)
    start = FactorPair(rng.normal(size=(12, 1)), rng.normal(size=(9, 1)))
    out = solve_wl1(X, W, start, WL1Options(max_sweeps=50, objective_tolerance=1e-14))
    assert np.max(np.abs(out.product() - truth)) < 1e-8


def test_solve_objective_trace_non_increasing():
    rng = np.random.default_rng(21)
    X, W, factors = _random_problem(rng, m=15, n=11, rank=3)
    trace = []
    solve_wl1(X, W, factors, WL1Options(max_sweeps=12), objective_trace=trace)
    assert len(trace) >= 2
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-9 * (1.0 + np.abs(np.asarray(trace[:-1]))))


def test_solve_trace_matches_true_objective_at_end():
    rng = np.random.default_rng(33)
    X, W, factors = _random_problem(rng)
    trace = []
    out = solve_wl1(X, W, factors, WL1Options(max_sweeps=6), objective_trace=trace)
    assert trace[-1] == pytest.approx(wl1_objective(X, W, out), rel=1e-9, abs=1e-12)


def test_rejects_weight_outside_mask():
    X = MaskedMatrix([[1.0, 0.0]], [[True, False]])
    factors = FactorPair(np.ones((1, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError):
        solve_wl1(X, np.array([[1.0, 0.5]]), factors)


def test_rejects_negative_weights_and_bad_shape():
    X = MaskedMatrix([[1.0, 2.0]], [[True, True]])
    factors = FactorPair(np.ones((1, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError):
        solve_wl1(X, np.array([[1.0, -1.0]]), factors)
    with pytest.raises(ValueError):
        solve_wl1(X, np.ones((2, 2)), factors)


def test_zero_weight_row_freezes_factor():
    # a factor entry whose every weighted witness is zero must stay put
    X = MaskedMatrix([[1.0, 2.0], [3.0, 4.0]], [[True, True], [False, False]])
    W = np.array([[1.0, 1.0], [0.0, 0.0]])
    factors = FactorPair(np.array([[0.5], [7.25]]), np.array([[1.0], [1.0]]))
    out = solve_wl1(X, W, factors, WL1Options(max_sweeps=3))
    assert out.u[1, 0] == 7.25
