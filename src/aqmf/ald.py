"""Asymmetric Laplace distribution (ALD) primitives and zero-mode mixtures.

The density used throughout is

    f(x) = rate * k * (1 - k) * exp(-|x - loc| * rate * t(x)),

    t(x) = k        if x >= loc,
           1 - k    if x <  loc,

with ``rate > 0`` and asymmetry ``k`` in (0, 1).  The asymmetry equals the
probability mass to the left of the location, F(loc) = k, so k < 1/2 gives a
right-skewed density and k > 1/2 a left-skewed one; k = 1/2 recovers the
symmetric Laplace distribution with scale 2 / rate.

Mixture models (:class:`MoALModel`) fix every component location at zero;
they describe residual noise around a fitted low-rank product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import as_integer


@dataclass(frozen=True)
class ALParams:
    """Parameters of a single asymmetric Laplace distribution."""

    location: float
    rate: float
    asymmetry: float

    def __post_init__(self):
        if not np.isfinite(self.location):
            raise ValueError("location must be finite")
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be positive and finite, got {self.rate}")
        if not (0.0 < self.asymmetry < 1.0):
            raise ValueError(f"asymmetry must lie in (0, 1), got {self.asymmetry}")


def tilt(d, asymmetry):
    """Slope t at signed distance ``d`` from the location: ``asymmetry``
    where d >= 0, ``1 - asymmetry`` where d < 0.  It is also the check-loss
    slope rho_k in the factor step's weights.  Arguments broadcast."""
    return np.where(d >= 0.0, asymmetry, 1.0 - asymmetry)


def _log_density(d, rate, asymmetry):
    const = np.log(rate) + np.log(asymmetry) + np.log1p(-asymmetry)
    return const - np.abs(d) * rate * tilt(d, asymmetry)


def pdf(x, params: ALParams):
    """Density of the asymmetric Laplace distribution.

    Parameters
    ----------
    x : scalar or array_like
    params : ALParams
    """
    d = np.asarray(x, dtype=float) - params.location
    k = params.asymmetry
    out = params.rate * k * (1.0 - k) * np.exp(-np.abs(d) * params.rate * tilt(d, k))
    return float(out) if np.isscalar(x) else out


def logpdf(x, params: ALParams):
    """Log-density; stable for arguments far into either tail."""
    d = np.asarray(x, dtype=float) - params.location
    out = _log_density(d, params.rate, params.asymmetry)
    return float(out) if np.isscalar(x) else out


def cdf(x, params: ALParams):
    """Distribution function F(x) = P(X <= x)."""
    xa = np.asarray(x, dtype=float)
    a, r, k = params.location, params.rate, params.asymmetry
    # Exponents are clipped at zero: each branch's exponent is nonpositive on
    # the side where it is selected, and clipping stops overflow on the other.
    below = k * np.exp(np.minimum(r * (1.0 - k) * (xa - a), 0.0))
    above = 1.0 - (1.0 - k) * np.exp(np.minimum(-r * k * (xa - a), 0.0))
    out = np.where(xa < a, below, above)
    return float(out) if np.isscalar(x) else out


def quantile(u, params: ALParams):
    """Inverse of :func:`cdf` on the open interval (0, 1)."""
    ua = np.asarray(u, dtype=float)
    if not ((ua > 0.0) & (ua < 1.0)).all():
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    a, r, k = params.location, params.rate, params.asymmetry
    lower = a + np.log(ua / k) / (r * (1.0 - k))
    upper = a - np.log((1.0 - ua) / (1.0 - k)) / (r * k)
    out = np.where(ua < k, lower, upper)
    return float(out) if np.isscalar(u) else out


def sample(n: int, params: ALParams, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` variates by inversion of the closed-form quantile."""
    n = as_integer("sample size", n)
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    u = rng.random(n)
    # rng.random() can return exactly 0.0, which the quantile rejects.
    u = np.maximum(u, 2.0**-53)
    return quantile(u, params)


@dataclass(frozen=True)
class MoALModel:
    """Finite mixture of asymmetric Laplace components, all located at zero.

    Attributes
    ----------
    weights : ndarray, shape (S,)
        Mixing proportions; nonnegative, summing to one.
    rates : ndarray, shape (S,)
        Component rate parameters, all positive.
    asymmetries : ndarray, shape (S,)
        Component asymmetries, all in the open interval (0, 1).
    """

    weights: np.ndarray
    rates: np.ndarray
    asymmetries: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        r = np.asarray(self.rates, dtype=float)
        k = np.asarray(self.asymmetries, dtype=float)
        if not (w.ndim == r.ndim == k.ndim == 1):
            raise ValueError("model parameters must be 1-dimensional arrays")
        if not (w.size == r.size == k.size) or w.size < 1:
            raise ValueError("weights, rates and asymmetries must share a length >= 1")
        if (w < 0).any() or not np.isfinite(w).all():
            raise ValueError("mixing weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixing weights must sum to 1, got {w.sum()!r}")
        if (r <= 0).any() or not np.isfinite(r).all():
            raise ValueError("rates must be positive and finite")
        if not ((k > 0) & (k < 1)).all():
            raise ValueError("asymmetries must lie in (0, 1)")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rates", r)
        object.__setattr__(self, "asymmetries", k)

    @property
    def n_components(self) -> int:
        return self.weights.size


def component_logpdfs(x, model: MoALModel) -> np.ndarray:
    """Matrix of log AL_s(x_i) values, shape (len(x), S).

    Mixing weights are not applied; column s is the log-density of component
    s alone evaluated at every point.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))[:, None]
    return _log_density(xa, model.rates, model.asymmetries)


def mixture_logits(x, model: MoALModel) -> np.ndarray:
    """log w_s + log AL_s(x_i), shape (len(x), S): their log-sum-exp over s
    is the mixture log-density, their softmax the posterior responsibilities.
    A zero mixing weight gives a column of -inf."""
    with np.errstate(divide="ignore"):
        return component_logpdfs(x, model) + np.log(model.weights)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each row of the 2-D array ``a``.

    This follows ``scipy.special.logsumexp(a, axis=1)`` of scipy 1.17 step
    by step, so for real input it gives the same bits: the row maximum
    ``top`` and the number ``count`` of entries equal to it are held out of
    the sum, ``s`` is the sum of exp(a - top) over the other entries divided
    by ``count``, and the result is log1p(s) + log(count) + top.  Matching
    scipy's bits keeps the fit's output bytes equal to a scipy-based fit's
    while the fit path imports numpy only.  A row of only -inf gives -inf,
    where the formula gives nan.
    """
    top = a.max(axis=1, keepdims=True)
    at_top = a == top
    count = at_top.sum(axis=1, keepdims=True, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.exp(np.where(at_top, -np.inf, a) - top).sum(axis=1, keepdims=True) / count
        out = (np.log1p(s) + np.log(count) + top)[:, 0]
    out[top[:, 0] == -np.inf] = -np.inf
    return out


def mixture_logpdf(x, model: MoALModel):
    """Log-density of the mixture, evaluated by log-sum-exp over components."""
    out = _logsumexp_rows(mixture_logits(x, model))
    return float(out[0]) if np.isscalar(x) else out


def draw_mixture(n: int, weights, draw, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` variates from a finite mixture: pick each variate's
    component by ``weights``, then fill the groups in component order, group
    s with ``draw(s, count)``, which returns ``count`` variates of component s."""
    n = as_integer("sample size", n)
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    idx = rng.choice(len(weights), size=n, p=weights)
    out = np.empty(n)
    for s in range(len(weights)):
        sel = idx == s
        cnt = int(sel.sum())
        if cnt:
            out[sel] = draw(s, cnt)
    return out


def mixture_sample(n: int, model: MoALModel, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` variates: pick components by weight, then sample each group."""
    params = [ALParams(0.0, float(r), float(k)) for r, k in zip(model.rates, model.asymmetries)]
    return draw_mixture(n, model.weights, lambda s, count: sample(count, params[s], rng), rng)
