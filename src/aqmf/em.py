"""EM fitting of a low-rank factorization under mixture-of-ALD noise.

Each outer iteration alternates an E-step (posterior responsibilities of the
noise components for every observed residual) with two maximization stages:
closed-form updates of the mixture parameters, then several weighted-median
sweeps on the factors with weights assembled from the current posteriors.
Components that are no longer the best explanation for any residual are
dropped as the iteration proceeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ald
from .types import FactorPair, MaskedMatrix, as_integer, as_seed
from .wl1 import Stack, solve_wl1


LAMBDA_MAX = 1e6
ETA_EPSILON = 1e-12
INNER_SWEEPS = 10


@dataclass(frozen=True)
class FitOptions:
    """Knobs of :func:`fit`.

    ``rank`` is the factorization rank and is required.  ``components`` is
    the number of noise components before pruning.  ``max_iterations``
    bounds the outer EM iterations.  All three take Python or numpy
    integers, not bools or floats, and store ``int``; any other type raises
    ``ValueError``.  The rate cap, the asymmetry cut-off and the inner sweep
    budget are the module constants ``LAMBDA_MAX``, ``ETA_EPSILON`` and
    ``INNER_SWEEPS``; the inner stopping tolerance is ``wl1.OBJECTIVE_TOLERANCE``.
    """

    rank: int
    components: int = 4
    max_iterations: int = 100

    def __post_init__(self):
        for name in ("rank", "components", "max_iterations"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.components < 1:
            raise ValueError("components must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class FitReport:
    """What happened during a fit: iteration count, log-likelihood trace of
    the observed data after each iteration, whether the fit stopped at an
    exact fixed point of ||U||_F (``converged``; False means the iteration
    budget ran out) and the seed that produced it all.  The surviving
    component count is the returned model's ``n_components``."""

    iterations: int
    loglik_trace: list = field(default_factory=list)
    converged: bool = False
    seed: int = 0


@dataclass
class BaselineReport:
    """Counterpart of :class:`FitReport` for the unweighted-median baseline."""

    sweeps: int
    converged: bool
    seed: int


def init_factors(X: MaskedMatrix, rank: int, rng: np.random.Generator) -> FactorPair:
    """Random factors scaled to the data: entries are c * (2 xi - 1) with
    xi standard normal and c = sqrt(med / rank), where med is the median
    absolute observed value (floored at 1e-8).  U is drawn before V.
    """
    m, n = X.shape
    if not 1 <= rank <= min(m, n):
        raise ValueError(f"rank {rank} must lie in [1, {min(m, n)}] for a {m}x{n} matrix")
    med = max(float(np.median(np.abs(X.observed_values()))), 1e-8)
    c = np.sqrt(med / rank)
    u = c * (2.0 * rng.standard_normal((m, rank)) - 1.0)
    v = c * (2.0 * rng.standard_normal((n, rank)) - 1.0)
    return FactorPair(u, v)


def init_model(components: int, rng: np.random.Generator) -> ald.MoALModel:
    """Random starting mixture: rates and asymmetries uniform on
    [0.05, 0.95], weights uniform and normalized.  Rates are drawn first,
    then asymmetries, then the raw weights.
    """
    if components < 1:
        raise ValueError("components must be at least 1")
    rates = rng.uniform(0.05, 0.95, components)
    asym = rng.uniform(0.05, 0.95, components)
    raw = rng.random(components)
    return ald.MoALModel(raw / raw.sum(), rates, asym)


def observed_residuals(X: MaskedMatrix, factors: FactorPair) -> np.ndarray:
    """Residuals x - (U V^T) of the observed entries, in the row-major order
    of ``X.observed_values()``."""
    return (X.values - factors.product())[X.mask]


def _responsibilities(
    residuals: np.ndarray, model: ald.MoALModel, log_density: np.ndarray
) -> np.ndarray:
    """Posterior component responsibilities, one row per residual, given
    ``log_density = ald.mixture_logpdf(residuals, model)``, which the caller
    can reuse for the log-likelihood."""
    return np.exp(ald.mixture_logits(residuals, model) - log_density[:, None])


def update_pi(gamma: np.ndarray) -> np.ndarray:
    """Mixing weights: mean responsibility per component."""
    return gamma.sum(axis=0) / gamma.shape[0]


def rho_matrix(residuals: np.ndarray, asymmetries: np.ndarray) -> np.ndarray:
    """Check-function slopes ``ald.tilt`` of each residual under each
    component asymmetry, shape (N, S)."""
    e = np.asarray(residuals, dtype=float)[:, None]
    return ald.tilt(e, np.asarray(asymmetries, dtype=float))


def update_lambda(gamma: np.ndarray, residuals: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Rate update: responsibility mass over tilted absolute residual mass.

    A zero denominator means the component sits on perfectly fitted entries;
    its rate is set to ``LAMBDA_MAX``, which also caps every other rate.
    """
    n_s = gamma.sum(axis=0)
    den = (rho * gamma * np.abs(residuals)[:, None]).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.where(den > 0, n_s / den, np.inf)
    return np.minimum(rates, LAMBDA_MAX)


def update_kappa(gamma: np.ndarray, residuals: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Asymmetry update: the unique root in (0, 1) of the stationarity
    quadratic eta * k^2 - (2 n + eta) * k + n = 0 with n the responsibility
    mass and eta = rate * sum(gamma * residual).

    The root is evaluated in a cancellation-free form on either sign of eta;
    |eta| below ``ETA_EPSILON`` falls back to the symmetric value 1/2.
    """
    n_s = gamma.sum(axis=0)
    eta = rates * (gamma * np.asarray(residuals, dtype=float)[:, None]).sum(axis=0)
    disc = np.sqrt(4.0 * n_s**2 + eta**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        pos = 2.0 * n_s / (2.0 * n_s + eta + disc)
        neg = (disc - eta) / ((disc - eta) + 2.0 * n_s)
    kappa = np.where(eta > 0, pos, neg)
    return np.where(np.abs(eta) < ETA_EPSILON, 0.5, kappa)


def compute_weights(
    gamma: np.ndarray,
    model: ald.MoALModel,
    residuals: np.ndarray,
) -> np.ndarray:
    """Weights of the inner weighted-L1 problem, sum_s rate_s * gamma_s *
    rho_s, one per observed residual in the order of ``residuals``: the
    vector ``solve_wl1`` takes.
    """
    rho = rho_matrix(residuals, model.asymmetries)
    return (gamma * rho * model.rates[None, :]).sum(axis=1)


def prune_components(gamma: np.ndarray, model: ald.MoALModel):
    """Drop components that win the posterior argmax on no residual.

    Returns a (model, gamma) pair with surviving columns; responsibilities
    and mixing weights are renormalized.  When every component survives the
    inputs are returned unchanged.
    """
    winners = np.unique(np.argmax(gamma, axis=1))
    if winners.size == model.n_components:
        return model, gamma
    g = gamma[:, winners]
    g = g / g.sum(axis=1, keepdims=True)
    w = model.weights[winners]
    pruned = ald.MoALModel(w / w.sum(), model.rates[winners], model.asymmetries[winners])
    return pruned, g


def _until_fixed_point(factors: list, step, max_iterations: int):
    """Step every problem until its ||U||_F repeats exactly or
    ``max_iterations`` steps have run.

    This is the stopping rule of both :func:`fit_many` and
    :func:`fit_l1_baseline`.  ``factors`` lists each problem's starting
    pair.  ``step(active, pairs)`` advances the problems numbered ``active``
    from their current ``pairs`` and returns their new pairs.  A problem
    leaves the active set at the step where its norm repeats.  Returns the
    problems' factors, steps taken and whether the norm repeated.
    """
    factors = list(factors)
    prev_norm = [float(np.linalg.norm(f.u)) for f in factors]
    steps = [max_iterations] * len(factors)
    converged = [False] * len(factors)
    active = list(range(len(factors)))
    taken = 0
    while active and taken < max_iterations:
        pairs = step(active, [factors[p] for p in active])
        taken += 1
        still = []
        for p, pair in zip(active, pairs):
            factors[p] = pair
            norm = float(np.linalg.norm(pair.u))
            if norm == prev_norm[p]:
                steps[p], converged[p] = taken, True
            else:
                prev_norm[p] = norm
                still.append(p)
        active = still
    return factors, steps, converged


class _NoiseState:
    """One problem's noise model, residuals and posteriors between factor
    steps, with the log-likelihood trace they produce."""

    def __init__(self, X: MaskedMatrix, model: ald.MoALModel, factors: FactorPair):
        self.X = X
        self.model = model
        self.residuals = observed_residuals(X, factors)
        self.gamma = _responsibilities(
            self.residuals, model, ald.mixture_logpdf(self.residuals, model))
        self.trace: list[float] = []

    def refresh(self) -> np.ndarray:
        """Closed-form mixture update and fresh posteriors; returns the
        factor step's weights."""
        resid, gamma = self.residuals, self.gamma
        weights = update_pi(gamma)
        rho = rho_matrix(resid, self.model.asymmetries)
        rates = update_lambda(gamma, resid, rho)
        asym = update_kappa(gamma, resid, rates)
        self.model = ald.MoALModel(weights, rates, asym)
        self.gamma = _responsibilities(resid, self.model, ald.mixture_logpdf(resid, self.model))
        return compute_weights(self.gamma, self.model, resid)

    def settle(self, factors: FactorPair):
        """Posteriors and log-likelihood at the new factors, then pruning."""
        self.residuals = observed_residuals(self.X, factors)
        log_density = ald.mixture_logpdf(self.residuals, self.model)
        self.gamma = _responsibilities(self.residuals, self.model, log_density)
        self.trace.append(float(np.sum(log_density)))
        self.model, self.gamma = prune_components(self.gamma, self.model)


def fit_many(Xs, options: FitOptions, seeds) -> list:
    """Fit P matrices of one shape at once; the same as P :func:`fit` calls.

    ``Xs`` and ``seeds`` are sequences of equal, nonzero length.  Returns
    one ``(factors, model, report)`` triple per matrix, in input order, with
    the bits :func:`fit` gives for that matrix and seed.

    The problems run in lock-step: each outer iteration takes every active
    problem through its noise refresh, then one :func:`solve_wl1` call on a
    :class:`wl1.Stack` of all of them, then its own posterior update and
    pruning.  A problem leaves at the iteration where it reaches its fixed
    point, and the next iteration's stack is this one's
    :meth:`wl1.Stack.subset` without it.
    """
    Xs = list(Xs)
    seeds = [as_seed("seed", s) for s in seeds]
    if not Xs or len(seeds) != len(Xs):
        raise ValueError(f"need one seed per matrix and at least one matrix, "
                         f"got {len(Xs)} matrices and {len(seeds)} seeds")
    stack, members = Stack(Xs), list(range(len(Xs)))
    factors, states = [], []
    for X, seed in zip(Xs, seeds):
        rng = np.random.default_rng(seed)
        factors.append(init_factors(X, options.rank, rng))
        states.append(_NoiseState(X, init_model(options.components, rng), factors[-1]))

    def em_iteration(active, pairs):
        nonlocal stack, members
        if active != members:
            stack, members = stack.subset(np.searchsorted(members, active)), active
        weights = np.concatenate([states[p].refresh() for p in active])
        pairs = stack.split(solve_wl1(stack, weights, stack.join(pairs), INNER_SWEEPS))
        for p, pair in zip(active, pairs):
            states[p].settle(pair)
        return pairs

    factors, iterations, converged = _until_fixed_point(
        factors, em_iteration, options.max_iterations
    )
    return [
        (f, s.model, FitReport(iterations=i, loglik_trace=s.trace, converged=c, seed=seed))
        for f, s, i, c, seed in zip(factors, states, iterations, converged, seeds)
    ]


def fit(
    X: MaskedMatrix,
    options: FitOptions,
    seed: int = 0,
) -> tuple[FactorPair, ald.MoALModel, FitReport]:
    """Fit the factorization and noise model jointly.

    Per iteration: mixture parameters are refreshed in closed form
    (weights, then rates using the current asymmetries, then asymmetries
    using the fresh rates), responsibilities are recomputed, the factors take
    a few weighted-median sweeps against the resulting weights, and
    responsibilities are refreshed again before the log-likelihood is
    recorded and dead components are pruned.  ``seed`` is a nonnegative
    integer.

    Returns the factor pair, the surviving noise model and a report.  This
    is :func:`fit_many` on one matrix.
    """
    return fit_many([X], options, [seed])[0]


def fit_l1_baseline(
    X: MaskedMatrix,
    rank: int,
    seed: int = 0,
    max_sweeps: int = 100,
) -> tuple[FactorPair, BaselineReport]:
    """Plain L1 factorization: the same median sweeps with uniform weights.

    Shares the factor initialization of :func:`fit` (identical draws for the
    same seed) and its stopping rule, one weighted-median sweep per step, so
    results are directly comparable against the mixture-weighted method.
    ``rank`` and ``max_sweeps`` must be integers, as in :class:`FitOptions`,
    and ``seed`` a nonnegative integer.
    """
    rank = as_integer("rank", rank)
    max_sweeps = as_integer("max_sweeps", max_sweeps)
    seed = as_seed("seed", seed)
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    rng = np.random.default_rng(seed)
    factors = init_factors(X, rank, rng)
    stack = Stack([X])
    w = np.ones(X.n_observed)
    (factors,), (sweeps,), (converged,) = _until_fixed_point(
        [factors], lambda _, pairs: [solve_wl1(stack, w, pairs[0], max_sweeps=1)], max_sweeps
    )
    return factors, BaselineReport(sweeps=sweeps, converged=converged, seed=seed)
