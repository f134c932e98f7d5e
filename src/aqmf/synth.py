"""Synthetic instances: Gaussian low-rank ground truth, uniform missing
entries, and a small zoo of noise distributions to corrupt the observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from . import ald
from .types import FactorPair, MaskedMatrix

# Smallest left-tail mass a SkewNormalNoise accepts, and 1 minus it the
# largest.  Past these the bisection cannot find the shape: scipy's
# skew-normal cdf at 0 drops to exactly 0 for shapes above about 3.2e5 (left
# mass 1e-6), and the bracket [-1e6, 1e6] holds no root for a left mass
# above 1 - 3.2e-7.
SKEW_NORMAL_MIN_ASYMMETRY = 1e-6


@dataclass(frozen=True)
class GaussianNoise:
    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, self.sigma, n)


@dataclass(frozen=True)
class LaplaceNoise:
    location: float
    scale: float

    def __post_init__(self):
        if not np.isfinite(self.location):
            raise ValueError("location must be finite")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.laplace(self.location, self.scale, n)


@dataclass(frozen=True)
class StudentTNoise:
    df: float

    def __post_init__(self):
        if not (np.isfinite(self.df) and self.df >= 1):
            raise ValueError("df must be at least 1")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_t(self.df, n)


@dataclass(frozen=True)
class AsymmetricLaplaceNoise:
    rate: float
    asymmetry: float

    def __post_init__(self):
        ald.ALParams(0.0, self.rate, self.asymmetry)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return ald.sample(n, ald.ALParams(0.0, self.rate, self.asymmetry), rng)


@dataclass(frozen=True)
class SkewNormalNoise:
    """Skew-normal noise with scale ``sigma``; the shape parameter is solved
    numerically (bisection) so that P(X <= 0) equals ``asymmetry``, matching
    the left-tail-mass meaning the asymmetry has elsewhere in the package.

    ``asymmetry`` must lie in [SKEW_NORMAL_MIN_ASYMMETRY,
    1 - SKEW_NORMAL_MIN_ASYMMETRY].  The shape is solved on first use, and
    scipy.stats and scipy.optimize are imported only then, which keeps them
    off the package's import path.
    """

    sigma: float
    asymmetry: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive")
        if not (SKEW_NORMAL_MIN_ASYMMETRY <= self.asymmetry <= 1.0 - SKEW_NORMAL_MIN_ASYMMETRY):
            raise ValueError(
                f"asymmetry must lie in [{SKEW_NORMAL_MIN_ASYMMETRY:g}, "
                f"1 - {SKEW_NORMAL_MIN_ASYMMETRY:g}], got {self.asymmetry!r}"
            )

    @cached_property
    def shape(self) -> float:
        from scipy import optimize, stats

        return float(optimize.bisect(
            lambda a: stats.skewnorm.cdf(0.0, a) - self.asymmetry, -1e6, 1e6, xtol=1e-13
        ))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        from scipy import stats

        return stats.skewnorm.rvs(self.shape, loc=0.0, scale=self.sigma, size=n, random_state=rng)


@dataclass(frozen=True)
class MixtureNoise:
    """Finite mixture of the scalar noise specs above.

    ``components`` is a sequence of (probability, spec) pairs; probabilities
    must sum to one and specs may not be nested mixtures.
    """

    components: tuple

    def __post_init__(self):
        comps = tuple((float(p), s) for p, s in self.components)
        if len(comps) < 1:
            raise ValueError("mixture needs at least one component")
        probs = np.array([p for p, _ in comps])
        if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("mixture probabilities must be nonnegative and sum to 1")
        for _, s in comps:
            if isinstance(s, MixtureNoise):
                raise ValueError("nested mixtures are not supported")
            if not hasattr(s, "sample"):
                raise ValueError(f"{s!r} is not a noise spec")
        object.__setattr__(self, "components", comps)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        probs, specs = zip(*self.components)
        return ald.draw_mixture(n, probs, lambda s, count: specs[s].sample(count, rng), rng)


NoiseSpec = Union[
    GaussianNoise,
    LaplaceNoise,
    StudentTNoise,
    AsymmetricLaplaceNoise,
    SkewNormalNoise,
    MixtureNoise,
]


def gen_lowrank(m: int, n: int, rank: int, rng: np.random.Generator):
    """Exact rank-``rank`` ground truth from standard normal factors.

    Returns the factor pair and its product.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    if not (1 <= rank <= min(m, n)):
        raise ValueError(f"rank must lie in [1, {min(m, n)}], got {rank}")
    factors = FactorPair(rng.standard_normal((m, rank)), rng.standard_normal((n, rank)))
    return factors, factors.product()


def gen_mask(m: int, n: int, missing_fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean observation mask with exactly round(missing_fraction * m * n)
    entries hidden, chosen uniformly without replacement."""
    if not (0.0 <= missing_fraction < 1.0):
        raise ValueError("missing_fraction must lie in [0, 1)")
    total = m * n
    n_missing = int(round(missing_fraction * total))
    mask = np.ones(total, dtype=bool)
    if n_missing:
        mask[rng.choice(total, size=n_missing, replace=False)] = False
    return mask.reshape(m, n)


@dataclass(frozen=True)
class SyntheticInstance:
    """One generated problem: clean matrix, its noisy masked view, and the
    recipe (true rank, noise spec, seed) that produced it."""

    ground_truth: np.ndarray
    observed: MaskedMatrix
    true_rank: int
    noise: Optional[NoiseSpec]
    seed: int


def make_instance(
    m: int,
    n: int,
    rank: int,
    missing_fraction: float,
    noise: Optional[NoiseSpec],
    seed: int = 0,
) -> SyntheticInstance:
    """Generate a complete instance from one integer seed.

    Draw order is fixed: factors, then mask, then noise values for the
    observed entries only.  ``noise=None`` leaves the observed entries
    exactly equal to the ground truth.
    """
    rng = np.random.default_rng(seed)
    _, truth = gen_lowrank(m, n, rank, rng)
    mask = gen_mask(m, n, missing_fraction, rng)
    values = truth.copy()
    if noise is not None:
        values[mask] += noise.sample(int(mask.sum()), rng)
    return SyntheticInstance(
        ground_truth=truth,
        observed=MaskedMatrix(values, mask),
        true_rank=rank,
        noise=noise,
        seed=seed,
    )
