"""Weighted median and coordinate-descent weighted-L1 factorization tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqmf import wl1
from aqmf.types import FactorPair, MaskedMatrix
from aqmf.wl1 import solve_wl1
from oracles import dense_sweep, relative_gap, scalar_sweep, weighted_median, wl1_objective


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
    cands = rng.normal(size=(5, 7))
    wts = rng.uniform(0, 2, size=(5, 7))
    wts[2] = 0.0  # dead row stays untouched
    med, live = wl1._column_medians(cands, wts)
    for k in range(5):
        if live[k]:
            assert med[k] == weighted_median(cands[k], wts[k])
        else:
            assert k == 2
    # non-contiguous views (here transposes of column-major data) need no copy
    cols = np.round(rng.normal(size=(9, 5)), 1)  # ties likely
    col_wts = rng.uniform(0, 2, size=(9, 5))
    assert not cols.T.flags.c_contiguous
    med_c, live_c = wl1._column_medians(cols.T, col_wts.T)
    assert live_c.all()
    for k in range(5):
        assert med_c[k] == weighted_median(cols[:, k], col_wts[:, k])


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_column_medians_match_scalar_calls_under_ties(data):
    # integer candidates and weights: many tied values, and cumulative
    # weights that land exactly on half the total, where tie-breaking decides;
    # zero candidates come with either sign, which the kernel may pick
    rows = data.draw(st.integers(min_value=1, max_value=6))
    length = data.draw(st.integers(min_value=1, max_value=12))
    size = rows * length
    ints = st.lists(st.integers(min_value=-3, max_value=3), min_size=size, max_size=size)
    cands = np.array(data.draw(ints), dtype=float).reshape(rows, length)
    negative = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    cands[(cands == 0) & negative.reshape(rows, length)] = -0.0
    wts = np.abs(np.array(data.draw(ints), dtype=float)).reshape(rows, length)
    med, live = wl1._column_medians(cands, wts)
    for k in range(rows):
        assert live[k] == (wts[k] > 0).any()
        if live[k]:
            assert med[k] == weighted_median(cands[k], wts[k])


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


def test_scalar_updates_never_increase_objective():
    rng = np.random.default_rng(0)
    moved = 0
    for _ in range(25):
        X, W, factors = _random_problem(rng)
        out, trace = scalar_sweep(X, W, factors)
        tr = np.array([wl1_objective(X, W, factors), *trace])
        assert np.all(np.diff(tr) <= 1e-9 * (1.0 + np.abs(tr[:-1])))
        moved += np.count_nonzero(out.u != factors.u) + np.count_nonzero(out.v != factors.v)
    assert moved > 0  # the updates are written back, so the check bites


def test_solve_recovers_noiseless_rank1():
    rng = np.random.default_rng(8)
    u = rng.normal(size=(12, 1))
    v = rng.normal(size=(9, 1))
    truth = u @ v.T
    X = MaskedMatrix(truth, np.ones_like(truth, dtype=bool))
    W = np.ones_like(truth)
    start = FactorPair(rng.normal(size=(12, 1)), rng.normal(size=(9, 1)))
    out = solve_wl1(X, W[X.mask], start, max_sweeps=50)
    assert np.max(np.abs(out.product() - truth)) < 1e-8


def test_solve_objective_trace_non_increasing():
    # every scalar update of the reference sweep lowers the objective, and a
    # one-sweep solve from the same start lands on the reference's factors
    rng = np.random.default_rng(21)
    X, W, factors = _random_problem(rng, m=15, n=11, rank=3)
    for _ in range(12):
        ref, trace = scalar_sweep(X, W, factors)
        tr = np.array([wl1_objective(X, W, factors), *trace])
        assert np.all(np.diff(tr) <= 1e-9 * (1.0 + np.abs(tr[:-1])))
        factors = solve_wl1(X, W[X.mask], factors, max_sweeps=1)
        assert relative_gap(factors, ref) <= 1e-9


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_observed_only_sweeps_match_dense_sweeps(data):
    # Values and weights are multiples of 1/8 and the starting factors are 0
    # or powers of two, so candidates tie often and, through the first sweep,
    # every cumulative weight is exact: a pick that moved would show here.
    m = data.draw(st.integers(min_value=1, max_value=9))
    n = data.draw(st.integers(min_value=1, max_value=9))
    rank = data.draw(st.integers(min_value=1, max_value=3))

    def grid(shape, elements):
        size = shape[0] * shape[1]
        return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    mask = grid((m, n), st.booleans()).astype(bool)
    row, col = st.integers(0, m - 1), st.integers(0, n - 1)
    shapes = st.sampled_from(["dead row", "dead column", "full row", "single-entry row"])
    for shape in data.draw(st.lists(shapes, unique=True)):
        if shape == "dead row":
            mask[data.draw(row)] = False
        elif shape == "dead column":
            mask[:, data.draw(col)] = False
        elif shape == "full row":
            mask[data.draw(row)] = True
        else:
            r = data.draw(row)
            mask[r] = False
            mask[r, data.draw(col)] = True
    if not mask.any():
        mask[data.draw(row), data.draw(col)] = True
    eighths = st.integers(min_value=-16, max_value=16).map(lambda k: k / 8)
    X = MaskedMatrix(np.where(mask, grid((m, n), eighths), 0.0), mask)
    W = np.where(mask, np.abs(grid((m, n), eighths)), 0.0)
    powers = st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5, -1.0, -2.0])
    factors = FactorPair(grid((m, rank), powers), grid((n, rank), powers))
    for sweeps in (1, 2, 3):
        got = solve_wl1(X, W[X.mask], factors, max_sweeps=sweeps)
        ref = dense_sweep(X, W, factors, sweeps)
        assert np.array_equal(got.u, ref.u) and np.array_equal(got.v, ref.v)


def test_rejects_negative_weights_and_bad_shape():
    X = MaskedMatrix([[1.0, 2.0]], [[True, True]])
    factors = FactorPair(np.ones((1, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError):
        solve_wl1(X, np.array([1.0, -1.0]), factors)
    # the second bad shape is the dense (m, n) layout: one weight per observed
    # entry is the only form taken
    for bad in (np.ones((2, 2)), np.ones((1, 2))):
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            solve_wl1(X, bad, factors)


@pytest.mark.parametrize("budget", [0, True, 2.5])
def test_rejects_zero_sweep_budget(budget):
    X = MaskedMatrix([[1.0, 2.0]], [[True, True]])
    factors = FactorPair(np.ones((1, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError, match="max_sweeps must be"):
        solve_wl1(X, np.ones(2), factors, max_sweeps=budget)


def test_zero_weight_row_freezes_factor():
    # a factor entry whose every weighted witness is zero must stay put
    X = MaskedMatrix([[1.0, 2.0], [3.0, 4.0]], [[True, True], [False, False]])
    W = np.array([[1.0, 1.0], [0.0, 0.0]])
    factors = FactorPair(np.array([[0.5], [7.25]]), np.array([[1.0], [1.0]]))
    out = solve_wl1(X, W[X.mask], factors, max_sweeps=3)
    assert out.u[1, 0] == 7.25


def test_rejects_factors_of_the_wrong_shape():
    X = MaskedMatrix.fully_observed(np.ones((4, 3)))
    with pytest.raises(ValueError, match=r"4x3 matrix .* u \(4, 2\) and v \(3, 2\), got u "
                                         r"\(4, 2\) and v \(5, 2\)"):
        solve_wl1(X, np.ones(12), FactorPair(np.ones((4, 2)), np.ones((5, 2))))
    stack = wl1.Stack([X, X])
    with pytest.raises(ValueError, match=r"stack of 2 4x3 matrices .* u \(8, 2\) and v \(6, 2\)"):
        solve_wl1(stack, np.ones(24), FactorPair(np.ones((4, 2)), np.ones((3, 2))))
    with pytest.raises(ValueError, match=r"shape \(24,\)"):
        solve_wl1(stack, np.ones(12), FactorPair(np.ones((8, 2)), np.ones((6, 2))))


def test_stack_rejects_mixed_shapes_and_no_problems():
    with pytest.raises(ValueError, match="one shape"):
        wl1.Stack([MaskedMatrix.fully_observed(np.ones((4, 3))),
                   MaskedMatrix.fully_observed(np.ones((3, 4)))])
    with pytest.raises(ValueError, match="at least one problem"):
        wl1.Stack([])


def _stack_problem(rng, m, n, rank, noise, traits=()):
    """A solve_wl1 problem (X, weights, start).  Unobserved entries hold NaN,
    which padding slots read and must never use."""
    u = rng.normal(size=(m, rank))
    v = rng.normal(size=(n, rank))
    mask = rng.random((m, n)) >= (0.6 if "sparse" in traits else 0.2)
    if "dead row" in traits:
        mask[rng.integers(m)] = False
    if "dead column" in traits:
        mask[:, rng.integers(n)] = False
    if not mask.any():
        mask[rng.integers(m), rng.integers(n)] = True
    data = u @ v.T + rng.laplace(scale=noise, size=(m, n))
    X = MaskedMatrix(np.where(mask, data, np.nan), mask)
    w = rng.uniform(0.1, 2.0, size=X.n_observed)
    if "zero weights" in traits:
        w[rng.random(w.size) < 0.5] = 0.0
    if noise == 0.0:
        start = FactorPair(u, v)  # already optimal: stops after one sweep
    else:
        start = FactorPair(rng.normal(size=(m, rank)), rng.normal(size=(n, rank)))
    return X, w, start


def _solve_stacked(problems, sweeps):
    stack = wl1.Stack([X for X, _, _ in problems])
    out = solve_wl1(stack, np.concatenate([w for _, w, _ in problems]),
                    stack.join([f for _, _, f in problems]), sweeps)
    return stack.split(out)


def _same_bits(a: FactorPair, b: FactorPair) -> bool:
    return a.u.tobytes() == b.u.tobytes() and a.v.tobytes() == b.v.tobytes()


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_stack_solve_gives_the_bits_of_separate_solves(data):
    # Values come from a seeded generator, so candidates do not tie and the
    # extra zero-weight padding of a stack (up to the widest row of any
    # problem) cannot move a pick.  Exact starts stop after one sweep and
    # the noise scale spreads the other problems' stopping sweeps.
    m = data.draw(st.integers(min_value=1, max_value=8))
    n = data.draw(st.integers(min_value=1, max_value=8))
    rank = data.draw(st.integers(min_value=1, max_value=3))
    sweeps = data.draw(st.integers(min_value=1, max_value=6))
    traits = st.lists(st.sampled_from(["dead row", "dead column", "zero weights", "sparse"]),
                      unique=True)
    problems = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        noise = data.draw(st.sampled_from([0.0, 0.01, 0.3, 3.0]))
        problems.append(_stack_problem(rng, m, n, rank, noise, data.draw(traits)))
    stacked = _solve_stacked(problems, sweeps)
    for (X, w, start), got in zip(problems, stacked):
        assert _same_bits(got, solve_wl1(X, w, start, sweeps))


def _stopping_sweep(X, w, start, budget):
    """The first sweep count whose solve equals the full-budget solve."""
    final = solve_wl1(X, w, start, budget)
    return next(k for k in range(1, budget + 1)
                if _same_bits(solve_wl1(X, w, start, k), final))


def test_stack_problems_stop_at_their_own_sweeps():
    rng = np.random.default_rng(11)
    problems = [_stack_problem(rng, 9, 7, 2, noise, traits)
                for noise, traits in [(0.0, ()), (0.01, ("dead row",)), (0.3, ()),
                                      (3.0, ("zero weights", "dead column")), (0.3, ("sparse",))]]
    stops = [_stopping_sweep(X, w, f, 10) for X, w, f in problems]
    assert stops[0] == 1 and len(set(stops)) >= 3, stops
    for (X, w, start), got in zip(problems, _solve_stacked(problems, 10)):
        assert _same_bits(got, solve_wl1(X, w, start, 10))
