"""Synthetic data generation: noise families, low-rank factors, masks."""

import numpy as np
import pytest
from scipy import stats

from aqmf import synth
from aqmf.metrics import sample_skewness
from aqmf.synth import (
    AsymmetricLaplaceNoise,
    GaussianNoise,
    LaplaceNoise,
    MixtureNoise,
    SkewNormalNoise,
    StudentTNoise,
    gen_lowrank,
    gen_mask,
    make_instance,
)


def test_gen_lowrank_shapes_and_rank():
    factors, prod = gen_lowrank(12, 7, 3, np.random.default_rng(0))
    assert factors.u.shape == (12, 3)
    assert factors.v.shape == (7, 3)
    np.testing.assert_allclose(prod, factors.u @ factors.v.T)
    assert np.linalg.matrix_rank(prod) == 3


def test_gen_mask_exact_count():
    mask = gen_mask(10, 10, 0.37, np.random.default_rng(1))
    assert mask.dtype == bool
    assert (~mask).sum() == 37  # int(round(0.37 * 100)) entries hidden
    assert gen_mask(10, 10, 0.0, np.random.default_rng(1)).all()


def test_gen_mask_reproducible():
    a = gen_mask(8, 9, 0.25, np.random.default_rng(5))
    b = gen_mask(8, 9, 0.25, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_gaussian_noise_moments():
    xs = GaussianNoise(sigma=5.0).sample(200_000, np.random.default_rng(2))
    assert np.std(xs) == pytest.approx(5.0, rel=0.02)
    assert np.mean(xs) == pytest.approx(0.0, abs=0.05)


def test_laplace_noise_distribution():
    xs = LaplaceNoise(location=0.0, scale=1.5).sample(100_000, np.random.default_rng(3))
    d, p = stats.kstest(xs, stats.laplace(scale=1.5).cdf)
    assert p > 1e-4


def test_student_t_heavy_tail():
    xs = StudentTNoise(df=1).sample(100_000, np.random.default_rng(4))
    # Cauchy: no variance, wild outliers expected
    assert np.max(np.abs(xs)) > 1e3
    xs2 = StudentTNoise(df=2).sample(100_000, np.random.default_rng(4))
    d, p = stats.kstest(xs2, stats.t(df=2).cdf)
    assert p > 1e-4


def test_asymmetric_laplace_noise_left_mass():
    xs = AsymmetricLaplaceNoise(rate=1.0, asymmetry=0.7).sample(
        100_000, np.random.default_rng(5)
    )
    assert np.mean(xs < 0) == pytest.approx(0.7, abs=0.01)
    assert sample_skewness(xs) < 0  # most mass below the mode -> left skew


def test_skew_normal_noise_left_mass_and_scale():
    spec = SkewNormalNoise(sigma=3.0, asymmetry=0.7)
    xs = spec.sample(200_000, np.random.default_rng(6))
    assert np.mean(xs < 0) == pytest.approx(0.7, abs=0.01)
    d, p = stats.kstest(xs, stats.skewnorm(spec.shape, scale=3.0).cdf)
    assert p > 1e-4


def test_mixture_noise_validation_and_sampling():
    with pytest.raises(ValueError):
        MixtureNoise(((0.5, GaussianNoise(1.0)), (0.4, LaplaceNoise(0.0, 1.0))))
    with pytest.raises(ValueError):
        MixtureNoise(
            ((0.5, GaussianNoise(1.0)), (0.5, MixtureNoise(((1.0, GaussianNoise(1.0)),))))
        )
    mix = MixtureNoise(((0.8, GaussianNoise(0.001)), (0.2, GaussianNoise(100.0))))
    xs = mix.sample(50_000, np.random.default_rng(7))
    # the wide component shows up at roughly its mixing rate
    assert np.mean(np.abs(xs) > 1.0) == pytest.approx(0.2, abs=0.01)


def test_noise_param_validation():
    with pytest.raises(ValueError):
        GaussianNoise(sigma=-1.0)
    with pytest.raises(ValueError):
        LaplaceNoise(location=0.0, scale=0.0)
    with pytest.raises(ValueError):
        StudentTNoise(df=0)
    with pytest.raises(ValueError):
        AsymmetricLaplaceNoise(rate=1.0, asymmetry=1.2)
    with pytest.raises(ValueError):
        SkewNormalNoise(sigma=1.0, asymmetry=0.0)


def test_make_instance_layout():
    inst = make_instance(20, 10, 3, 0.25, GaussianNoise(0.5), seed=11)
    assert inst.ground_truth.shape == (20, 10)
    assert inst.observed.shape == (20, 10)
    assert inst.true_rank == 3
    assert inst.seed == 11
    assert (~inst.observed.mask).sum() == int(round(0.25 * 200))
    # noise perturbs only observed entries; ground truth stays clean
    assert np.linalg.matrix_rank(inst.ground_truth) == 3
    obs = inst.observed.mask
    assert not np.allclose(inst.observed.values[obs], inst.ground_truth[obs])


def test_make_instance_clean_when_no_noise():
    inst = make_instance(8, 6, 2, 0.0, None, seed=0)
    np.testing.assert_array_equal(inst.observed.values, inst.ground_truth)
    assert inst.observed.mask.all()


def test_make_instance_deterministic():
    a = make_instance(10, 9, 2, 0.2, LaplaceNoise(0.0, 1.0), seed=42)
    b = make_instance(10, 9, 2, 0.2, LaplaceNoise(0.0, 1.0), seed=42)
    np.testing.assert_array_equal(a.observed.values, b.observed.values)
    np.testing.assert_array_equal(a.observed.mask, b.observed.mask)
    c = make_instance(10, 9, 2, 0.2, LaplaceNoise(0.0, 1.0), seed=43)
    assert not np.array_equal(a.observed.values, c.observed.values)
