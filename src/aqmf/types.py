"""Array containers and the integer checks shared by the library's modules."""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np


def as_integer(name: str, value) -> int:
    """``value`` as an ``int`` if it is a Python or numpy integer; anything
    else, bools included, raises ``ValueError`` naming ``name``."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_seed(name: str, value) -> int:
    """``value`` as an ``int`` if it is a nonnegative integer, as
    ``numpy.random`` seeds must be; anything else raises ``ValueError``
    naming ``name``."""
    value = as_integer(name, value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


def _as_float_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class MaskedMatrix:
    """A real matrix together with an observation mask.

    ``mask[i, j]`` is True where the entry is observed.  Unobserved entries
    may hold anything, including NaN; observed entries must be finite.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = _as_float_matrix(self.values, "values")
        mask = np.asarray(self.mask).astype(bool)
        if mask.shape != values.shape:
            raise ValueError(
                f"values {values.shape} and mask {mask.shape} differ in shape"
            )
        if not mask.any():
            raise ValueError("matrix has no observed entries")
        if not np.isfinite(values[mask]).all():
            raise ValueError("observed entries must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def fully_observed(cls, values) -> "MaskedMatrix":
        values = _as_float_matrix(values, "values")
        return cls(values, np.ones(values.shape, dtype=bool))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def n_observed(self) -> int:
        return int(self.mask.sum())

    def observed_values(self) -> np.ndarray:
        return self.values[self.mask]


@dataclass(frozen=True)
class FactorPair:
    """Low-rank factors ``u`` (m, r) and ``v`` (n, r); the model is u @ v.T."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = _as_float_matrix(self.u, "u")
        v = _as_float_matrix(self.v, "v")
        if u.shape[1] != v.shape[1]:
            raise ValueError(f"u has rank {u.shape[1]} but v has rank {v.shape[1]}")
        if u.shape[1] < 1:
            raise ValueError("factor rank must be at least 1")
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError("factor entries must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    def product(self) -> np.ndarray:
        return self.u @ self.v.T
