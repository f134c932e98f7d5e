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
from scipy.special import logsumexp

from . import ald
from .types import FactorPair, MaskedMatrix
from .wl1 import WL1Options, solve_wl1


LAMBDA_MAX = 1e6
ETA_EPSILON = 1e-12
INNER_OPTIONS = WL1Options(max_sweeps=10, objective_tolerance=1e-6)


@dataclass(frozen=True)
class FitOptions:
    """Knobs of :func:`fit`.

    ``rank`` is the factorization rank and is required.  ``components`` is
    the number of noise components before pruning.  ``max_iterations``
    bounds the outer EM iterations.  The rate cap, the asymmetry cut-off and
    the inner solver settings are the module constants ``LAMBDA_MAX``,
    ``ETA_EPSILON`` and ``INNER_OPTIONS``.
    """

    rank: int
    components: int = 4
    max_iterations: int = 100

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.components < 1:
            raise ValueError("components must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class FitReport:
    """What happened during a fit: iteration count, log-likelihood trace of
    the observed data after each iteration, surviving component count,
    whether the fit stopped at an exact fixed point of ||U||_F (``converged``;
    False means the iteration budget ran out) and the seed that produced it
    all."""

    iterations: int
    loglik_trace: list = field(default_factory=list)
    final_components: int = 0
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


def _observed_residuals(X: MaskedMatrix, factors: FactorPair) -> np.ndarray:
    resid = X.values - factors.product()
    return resid[X.mask]


def _responsibilities(residuals: np.ndarray, model: ald.MoALModel) -> np.ndarray:
    logits = ald.component_logpdfs(residuals, model) + ald._log_weights(model)[None, :]
    return np.exp(logits - logsumexp(logits, axis=1, keepdims=True))


def e_step(X: MaskedMatrix, factors: FactorPair, model: ald.MoALModel) -> np.ndarray:
    """Posterior component responsibilities, one row per observed entry.

    Rows follow the order of ``X.values[X.mask]``.  Computed in the log
    domain so very large rates cannot overflow.
    """
    return _responsibilities(_observed_residuals(X, factors), model)


def update_pi(gamma: np.ndarray) -> np.ndarray:
    """Mixing weights: mean responsibility per component."""
    return gamma.sum(axis=0) / gamma.shape[0]


def rho_matrix(residuals: np.ndarray, asymmetries: np.ndarray) -> np.ndarray:
    """Check-function slopes, shape (N, S): component asymmetry k_s on
    nonnegative residuals and 1 - k_s on negative ones."""
    e = np.asarray(residuals, dtype=float)[:, None]
    k = np.asarray(asymmetries, dtype=float)[None, :]
    return np.where(e >= 0.0, k, 1.0 - k)


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
    X: MaskedMatrix,
    gamma: np.ndarray,
    model: ald.MoALModel,
    residuals: np.ndarray,
) -> np.ndarray:
    """Entry weights for the inner weighted-L1 problem.

    Observed entries get sum_s rate_s * gamma_s * rho_s; unobserved entries
    get exactly zero.
    """
    rho = rho_matrix(residuals, model.asymmetries)
    w = (gamma * rho * model.rates[None, :]).sum(axis=1)
    out = np.zeros(X.shape)
    out[X.mask] = w
    return out


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


def observed_loglik(X: MaskedMatrix, factors: FactorPair, model: ald.MoALModel) -> float:
    """Total mixture log-density of the observed residuals."""
    residuals = _observed_residuals(X, factors)
    return float(np.sum(ald.mixture_logpdf(residuals, model)))


def _until_fixed_point(factors: FactorPair, step, max_iterations: int):
    """Apply ``step`` to the factors until ||U||_F repeats exactly or
    ``max_iterations`` steps have run.

    This is the stopping rule of both :func:`fit` and
    :func:`fit_l1_baseline`.  Returns the factors, the number of steps taken
    and whether the norm repeated.
    """
    prev_norm = float(np.linalg.norm(factors.u))
    steps = 0
    while steps < max_iterations:
        factors = step(factors)
        steps += 1
        norm = float(np.linalg.norm(factors.u))
        if norm == prev_norm:
            return factors, steps, True
        prev_norm = norm
    return factors, steps, False


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
    recorded and dead components are pruned.

    Returns the factor pair, the surviving noise model and a report.
    """
    rng = np.random.default_rng(seed)
    factors = init_factors(X, options.rank, rng)
    model = init_model(options.components, rng)
    residuals = _observed_residuals(X, factors)
    gamma = _responsibilities(residuals, model)
    trace: list[float] = []

    def em_iteration(factors: FactorPair) -> FactorPair:
        nonlocal model, gamma, residuals
        weights = update_pi(gamma)
        rho = rho_matrix(residuals, model.asymmetries)
        rates = update_lambda(gamma, residuals, rho)
        asym = update_kappa(gamma, residuals, rates)
        model = ald.MoALModel(weights, rates, asym)
        gamma = _responsibilities(residuals, model)
        W = compute_weights(X, gamma, model, residuals)
        factors = solve_wl1(X, W, factors, INNER_OPTIONS)
        residuals = _observed_residuals(X, factors)
        gamma = _responsibilities(residuals, model)
        trace.append(float(np.sum(ald.mixture_logpdf(residuals, model))))
        model, gamma = prune_components(gamma, model)
        return factors

    factors, iterations, converged = _until_fixed_point(
        factors, em_iteration, options.max_iterations
    )
    report = FitReport(
        iterations=iterations,
        loglik_trace=trace,
        final_components=model.n_components,
        converged=converged,
        seed=seed,
    )
    return factors, model, report


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
    """
    rng = np.random.default_rng(seed)
    factors = init_factors(X, rank, rng)
    W = X.mask.astype(float)
    single = WL1Options(max_sweeps=1, objective_tolerance=1e-300)
    factors, sweeps, converged = _until_fixed_point(
        factors, lambda f: solve_wl1(X, W, f, single), max_sweeps
    )
    return factors, BaselineReport(sweeps=sweeps, converged=converged, seed=seed)
