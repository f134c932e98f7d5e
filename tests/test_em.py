"""EM machinery: E-step posteriors, closed-form M-step updates, full fits."""

import math

import numpy as np
import pytest

from aqmf import ald, em
from aqmf.ald import ALParams, MoALModel
from aqmf.em import FitOptions
from aqmf.synth import AsymmetricLaplaceNoise, GaussianNoise, LaplaceNoise, make_instance
from aqmf.types import FactorPair, MaskedMatrix
from oracles import observed_loglik


def test_update_pi():
    gamma = np.array([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9], [0.5, 0.5]])
    np.testing.assert_allclose(em.update_pi(gamma), [0.5, 0.5])
    gamma = np.array([[1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(em.update_pi(gamma), [1.0, 0.0])


def test_rho_matrix_branches():
    resid = np.array([-2.0, 0.0, 3.0])
    rho = em.rho_matrix(resid, np.array([0.3]))
    # negative residuals weigh 1-k, nonnegative weigh k
    np.testing.assert_allclose(rho[:, 0], [0.7, 0.3, 0.3])


def test_update_lambda_hand_case():
    # single component, N = 2 effective points:
    # lambda = N / sum(rho * gamma * |e|) = 2 / (0.5*1*2 + 0.5*1*4) = 2/3
    gamma = np.array([[1.0], [1.0]])
    resid = np.array([2.0, 4.0])
    rho = np.full((2, 1), 0.5)
    lam = em.update_lambda(gamma, resid, rho)
    assert lam[0] == pytest.approx(2.0 / 3.0)


def test_update_lambda_caps_degenerate_component():
    # all residuals exactly zero -> denominator 0 -> capped, not inf/nan
    gamma = np.ones((3, 1))
    resid = np.zeros(3)
    rho = np.full((3, 1), 0.5)
    lam = em.update_lambda(gamma, resid, rho)
    assert lam[0] == em.LAMBDA_MAX == 1e6


def test_update_kappa_frozen_root():
    # eta*k^2 - (2N + eta)*k + N = 0 with N = 10, eta = 5
    # => 5k^2 - 25k + 10 = 0 => k = (25 - sqrt(425)) / 10
    gamma = np.array([[10.0]])
    resid = np.array([1.0])
    rates = np.array([0.5])  # eta = rate * sum(gamma * e) = 0.5 * 10 = 5
    k = em.update_kappa(gamma, resid, rates)
    assert k[0] == pytest.approx((25.0 - math.sqrt(425.0)) / 10.0, rel=1e-14)


def test_update_kappa_symmetric_when_eta_vanishes():
    gamma = np.array([[1.0], [1.0]])
    resid = np.array([1.0, -1.0])  # signed residuals cancel
    k = em.update_kappa(gamma, resid, np.array([3.0]))
    assert k[0] == 0.5


def test_update_kappa_root_property_random():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n_pts = rng.integers(2, 30)
        gamma = rng.uniform(0.01, 1.0, size=(n_pts, 1))
        resid = rng.normal(scale=rng.uniform(0.1, 10.0), size=n_pts)
        rates = np.array([rng.uniform(0.01, 100.0)])
        k = em.update_kappa(gamma, resid, rates)[0]
        N = gamma.sum()
        eta = rates[0] * float(np.sum(gamma[:, 0] * resid))
        assert 0.0 < k < 1.0
        assert abs(eta * k * k - (2 * N + eta) * k + N) < 1e-10 * N


def test_update_kappa_extreme_eta_stays_inside_unit_interval():
    # huge |eta| pushes the root toward 0 or 1 but must never reach it
    gamma = np.array([[1.0]])
    for e, side in ((1.0, "low"), (-1.0, "high")):
        k = em.update_kappa(gamma, np.array([e]), np.array([1e12]))[0]
        assert 0.0 < k < 1.0
        if side == "low":
            assert k < 1e-6
        else:
            assert k > 1.0 - 1e-6


def test_e_step_matches_bruteforce_posterior():
    X = MaskedMatrix(
        [[1.0, -0.5], [0.2, 3.0]], [[True, True], [True, False]]
    )
    factors = FactorPair(np.array([[1.0], [0.5]]), np.array([[0.4], [-0.2]]))
    model = MoALModel(
        weights=[0.3, 0.7], rates=[1.0, 2.5], asymmetries=[0.5, 0.2]
    )
    flat = (X.values - factors.product())[X.mask]
    gamma = em._responsibilities(flat, model, ald.mixture_logpdf(flat, model))
    assert gamma.shape == (3, 2)  # three observed entries
    np.testing.assert_allclose(gamma.sum(axis=1), 1.0, rtol=1e-12)
    for idx, e_val in enumerate(flat):
        dens = np.array(
            [
                w * ald.pdf(e_val, ALParams(0.0, r, k))
                for w, r, k in zip(model.weights, model.rates, model.asymmetries)
            ]
        )
        np.testing.assert_allclose(gamma[idx], dens / dens.sum(), rtol=1e-10)


def test_compute_weights_formula():
    model = MoALModel(weights=[0.5, 0.5], rates=[1.0, 2.0], asymmetries=[0.3, 0.8])
    resid = np.array([-1.5, 0.5])
    gamma = np.array([[0.25, 0.75], [0.6, 0.4]])
    w = em.compute_weights(gamma, model, resid)
    assert w.shape == (2,)
    # sum_s lambda_s gamma_s rho_s with rho = 1-k on a negative residual and
    # rho = k on a nonnegative one
    expect = [1.0 * 0.25 * 0.7 + 2.0 * 0.75 * 0.2, 1.0 * 0.6 * 0.3 + 2.0 * 0.4 * 0.8]
    np.testing.assert_allclose(w, expect, rtol=1e-14)


def test_prune_drops_components_that_never_win():
    model = MoALModel(
        weights=[0.5, 0.2, 0.3],
        rates=[1.0, 2.0, 3.0],
        asymmetries=[0.5, 0.5, 0.5],
    )
    # component 1 holds mass everywhere but is never the argmax
    gamma = np.array([[0.7, 0.1, 0.2], [0.2, 0.1, 0.7]] * 2)
    pruned, g2 = em.prune_components(gamma, model)
    assert pruned.n_components == 2
    assert g2.shape == (4, 2)
    np.testing.assert_allclose(pruned.weights.sum(), 1.0, rtol=1e-12)
    np.testing.assert_allclose(g2.sum(axis=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(pruned.rates, [1.0, 3.0])


def test_prune_keeps_model_when_every_component_wins():
    model = MoALModel(weights=[0.5, 0.5], rates=[1.0, 2.0], asymmetries=[0.4, 0.6])
    gamma = np.array([[0.9, 0.1], [0.3, 0.7]])
    same, g = em.prune_components(gamma, model)
    assert same is model
    assert g is gamma


def test_observed_loglik_matches_mixture_logpdf():
    X = MaskedMatrix([[1.0, -2.0], [0.0, 4.0]], [[True, True], [True, False]])
    factors = FactorPair(np.zeros((2, 1)), np.zeros((2, 1)))
    model = MoALModel(weights=[1.0], rates=[0.7], asymmetries=[0.4])
    ll = observed_loglik(X, factors, model)
    expect = float(np.sum(ald.mixture_logpdf(np.array([1.0, -2.0, 0.0]), model)))
    assert ll == pytest.approx(expect, rel=1e-12)


def test_init_factors_formula_and_draw_order():
    X = MaskedMatrix([[4.0, -4.0], [4.0, -4.0]], [[True, True], [True, True]])
    a = em.init_factors(X, 2, np.random.default_rng(9))
    b = em.init_factors(X, 2, np.random.default_rng(9))
    np.testing.assert_array_equal(a.u, b.u)
    np.testing.assert_array_equal(a.v, b.v)
    # c * (2 xi - 1), xi ~ N(0,1), c = sqrt(median|x| / rank), U drawn before V
    rng = np.random.default_rng(9)
    c = math.sqrt(4.0 / 2.0)
    np.testing.assert_array_equal(a.u, c * (2.0 * rng.standard_normal((2, 2)) - 1.0))
    np.testing.assert_array_equal(a.v, c * (2.0 * rng.standard_normal((2, 2)) - 1.0))


def test_init_factors_scale_floor_on_tiny_data():
    # abs-median floors at 1e-8 so the scale never collapses to zero
    X = MaskedMatrix(np.zeros((3, 3)), np.ones((3, 3), dtype=bool))
    f = em.init_factors(X, 1, np.random.default_rng(0))
    assert np.all(np.isfinite(f.u))
    assert np.any(f.u != 0.0)


def test_rank_above_matrix_shape_rejected():
    X = MaskedMatrix.fully_observed(np.ones((5, 3)))
    with pytest.raises(ValueError, match=r"rank 7 .*5x3"):
        em.init_factors(X, 7, np.random.default_rng(0))
    with pytest.raises(ValueError, match="5x3"):
        em.fit(X, FitOptions(rank=4))
    with pytest.raises(ValueError, match="5x3"):
        em.fit_l1_baseline(X, 4)
    assert em.init_factors(X, 3, np.random.default_rng(0)).rank == 3


def test_init_model_ranges():
    model = em.init_model(4, np.random.default_rng(2))
    assert model.n_components == 4
    assert np.all((model.rates > 0.0) & (model.rates < 1.0))
    assert np.all((model.asymmetries > 0.0) & (model.asymmetries < 1.0))
    assert model.weights.sum() == pytest.approx(1.0)


def test_fit_trace_shape_and_net_improvement():
    inst = make_instance(
        20, 12, 2, 0.15, AsymmetricLaplaceNoise(rate=1.0, asymmetry=0.7), seed=4
    )
    _, model, report = em.fit(inst.observed, FitOptions(rank=2, max_iterations=40), seed=1)
    trace = np.asarray(report.loglik_trace)
    assert trace.size == report.iterations
    assert np.all(np.isfinite(trace))
    assert trace[-1] > trace[0]
    assert 1 <= model.n_components <= 4


def test_mixture_refresh_never_decreases_loglik():
    """The closed-form mixing/rate/asymmetry updates are exact coordinate
    maximizers of the expected complete-data objective, so refreshing them
    with factors held fixed cannot lower the observed log-likelihood."""
    rng = np.random.default_rng(31)
    inst = make_instance(
        25, 15, 3, 0.2, AsymmetricLaplaceNoise(rate=1.0, asymmetry=0.3), seed=9
    )
    X = inst.observed
    for trial in range(10):
        factors = em.init_factors(X, 3, rng)
        model = em.init_model(3, rng)
        resid = (X.values - factors.product())[X.mask]
        for _ in range(5):
            before = observed_loglik(X, factors, model)
            gamma = em._responsibilities(resid, model, ald.mixture_logpdf(resid, model))
            pi = em.update_pi(gamma)
            rho = em.rho_matrix(resid, model.asymmetries)
            rates = em.update_lambda(gamma, resid, rho)
            asym = em.update_kappa(gamma, resid, rates)
            model = MoALModel(pi, rates, asym)
            after = observed_loglik(X, factors, model)
            assert after >= before - 1e-9 * abs(before)


def test_fit_noiseless_exact_recovery():
    inst = make_instance(15, 10, 1, 0.0, None, seed=6)
    factors, _, _ = em.fit(inst.observed, FitOptions(rank=1, max_iterations=60), seed=0)
    err = np.mean(np.abs(factors.product() - inst.ground_truth))
    assert err < 1e-6


def test_fit_report_seed_recorded():
    inst = make_instance(10, 8, 1, 0.0, None, seed=3)
    _, _, report = em.fit(inst.observed, FitOptions(rank=1, max_iterations=5), seed=77)
    assert report.seed == 77


def test_baseline_runs_and_reduces_objective():
    inst = make_instance(
        20, 12, 2, 0.2, AsymmetricLaplaceNoise(rate=1.0, asymmetry=0.7), seed=12
    )
    factors, report = em.fit_l1_baseline(inst.observed, 2, seed=5, max_sweeps=30)
    assert report.sweeps <= 30
    X = inst.observed
    resid = np.abs(X.values - factors.product())[X.mask].sum()
    rng = np.random.default_rng(5)
    start = em.init_factors(X, 2, rng)
    start_resid = np.abs(X.values - start.product())[X.mask].sum()
    assert resid < start_resid


def test_fit_and_baseline_share_stopping_rule():
    # both stop when ||U||_F repeats exactly, or when the budget runs out
    X = make_instance(15, 10, 1, 0.0, None, seed=6).observed
    _, _, report = em.fit(X, FitOptions(rank=1, max_iterations=20), seed=0)
    _, base = em.fit_l1_baseline(X, 1, seed=0, max_sweeps=20)
    assert report.converged and report.iterations < 20
    assert base.converged and base.sweeps < 20
    _, _, report = em.fit(X, FitOptions(rank=1, max_iterations=1), seed=0)
    _, base = em.fit_l1_baseline(X, 1, seed=0, max_sweeps=1)
    assert (report.iterations, report.converged) == (1, False)
    assert (base.sweeps, base.converged) == (1, False)


def test_baseline_rejects_zero_sweep_budget():
    # like FitOptions(max_iterations=0) for fit, instead of a zero-sweep result
    X = make_instance(15, 10, 1, 0.0, None, seed=6).observed
    with pytest.raises(ValueError, match="max_sweeps must be at least 1"):
        em.fit_l1_baseline(X, 1, max_sweeps=0)


def test_fit_options_validation():
    with pytest.raises(ValueError):
        FitOptions(rank=0)
    with pytest.raises(ValueError):
        FitOptions(rank=2, components=0)
    with pytest.raises(ValueError):
        FitOptions(rank=2, max_iterations=0)


@pytest.mark.parametrize("name, value", [
    ("rank", 2.5), ("rank", True), ("rank", "2"), ("rank", np.float64(2.0)),
    ("components", 3.0), ("max_iterations", 2.5), ("max_iterations", False),
])
def test_fit_options_reject_non_integers(name, value):
    # a float budget used to run ceil(budget) iterations, and a float rank
    # failed inside numpy with a bare TypeError
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        FitOptions(**{"rank": 2, name: value})


def test_fit_options_store_numpy_integers_as_int():
    opts = FitOptions(rank=np.int64(2), components=np.int32(3), max_iterations=np.uint8(5))
    assert (opts.rank, opts.components, opts.max_iterations) == (2, 3, 5)
    assert all(type(v) is int for v in (opts.rank, opts.components, opts.max_iterations))


@pytest.mark.parametrize("rank, max_sweeps", [(1, True), (1, 2.5), (1.0, 2), (True, 2)])
def test_baseline_rejects_non_integer_rank_or_budget(rank, max_sweeps):
    X = make_instance(15, 10, 1, 0.0, None, seed=6).observed
    with pytest.raises(ValueError, match="must be an integer"):
        em.fit_l1_baseline(X, rank, max_sweeps=max_sweeps)


def _fit_bits(factors, model, report):
    return (factors.u.tobytes(), factors.v.tobytes(), model.weights.tobytes(),
            model.rates.tobytes(), model.asymmetries.tobytes(), report.loglik_trace,
            report.iterations, report.converged, report.seed)


def test_fit_many_gives_the_bits_of_separate_fits():
    # Ten 12x8 problems: some reach their fixed point after 5 to 35
    # iterations and leave the stack early, others run the whole budget, and
    # pruning leaves them with one to three components.
    noises = [None, LaplaceNoise(0.0, 0.5), AsymmetricLaplaceNoise(1.0, 0.7),
              GaussianNoise(1.0), LaplaceNoise(0.0, 2.0)]
    Xs, seeds = [], []
    for seed in (0, 1):
        for noise in noises:
            Xs.append(make_instance(12, 8, 2, 0.2, noise, seed=seed).observed)
            seeds.append(seed)
    opts = FitOptions(rank=2, max_iterations=40)
    together = em.fit_many(Xs, opts, seeds)
    alone = [em.fit(X, opts, seed=s) for X, s in zip(Xs, seeds)]
    assert [_fit_bits(*a) for a in together] == [_fit_bits(*a) for a in alone]
    reports = [r for _, _, r in alone]
    assert len({r.iterations for r in reports}) >= 5
    assert {r.converged for r in reports} == {True, False}
    assert len({model.n_components for _, model, _ in alone}) >= 3


def test_fit_many_rejects_mismatched_inputs():
    X = make_instance(10, 8, 1, 0.0, None, seed=3).observed
    opts = FitOptions(rank=1, max_iterations=2)
    with pytest.raises(ValueError, match="one seed per matrix"):
        em.fit_many([X, X], opts, [0])
    with pytest.raises(ValueError, match="at least one matrix"):
        em.fit_many([], opts, [])
    Y = make_instance(8, 10, 1, 0.0, None, seed=3).observed
    with pytest.raises(ValueError, match="one shape"):
        em.fit_many([X, Y], opts, [0, 1])


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be nonnegative, got -1"),
    (1.5, "seed must be an integer"),
    (True, "seed must be an integer"),
])
def test_fits_check_seeds_up_front(seed, message):
    # a negative seed used to fail inside numpy with a message naming no field
    X = make_instance(10, 8, 1, 0.0, None, seed=3).observed
    opts = FitOptions(rank=1, max_iterations=2)
    with pytest.raises(ValueError, match=message):
        em.fit(X, opts, seed=seed)
    with pytest.raises(ValueError, match=message):
        em.fit_many([X, X], opts, [0, seed])
    with pytest.raises(ValueError, match=message):
        em.fit_l1_baseline(X, 1, seed=seed)
    _, _, report = em.fit(X, opts, seed=np.uint64(2**63))
    assert report.seed == 2**63 and type(report.seed) is int
