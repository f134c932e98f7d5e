"""Unit tests for the asymmetric Laplace density and its mixtures.

Closed-form reference values below were computed by hand from the density
f(x) = rate*k*(1-k) * exp(-|x - loc| * rate * t(x)) with t(x) = k for
x >= loc and 1-k otherwise, and from the piecewise-exponential CDF it
integrates to.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from aqmf import ald
from aqmf.ald import ALParams, MoALModel


def test_pdf_frozen_values():
    # symmetric case, k = 1/2: f(2; 0, 1) = 0.25 * exp(-1)
    p = ALParams(location=0.0, rate=1.0, asymmetry=0.5)
    assert ald.pdf(2.0, p) == pytest.approx(0.25 * math.exp(-1.0), rel=1e-14)
    # far tail stays finite in log space
    assert ald.logpdf(1000.0, p) == pytest.approx(math.log(0.25) - 500.0, abs=1e-10)


def test_pdf_asymmetric_branches():
    p = ALParams(location=1.0, rate=2.0, asymmetry=0.3)
    peak = 2.0 * 0.3 * 0.7
    # right of the mode decays with rate*k, left with rate*(1-k)
    assert ald.pdf(1.0, p) == pytest.approx(peak)
    assert ald.pdf(2.0, p) == pytest.approx(peak * math.exp(-2.0 * 0.3))
    assert ald.pdf(0.0, p) == pytest.approx(peak * math.exp(-2.0 * 0.7))


def test_cdf_frozen_value():
    p = ALParams(location=0.0, rate=2.0, asymmetry=0.3)
    assert ald.cdf(1.0, p) == pytest.approx(1.0 - 0.7 * math.exp(-0.6), rel=1e-14)
    # mass below the mode is exactly the asymmetry parameter
    assert ald.cdf(0.0, p) == pytest.approx(0.3)


def test_quantile_frozen_value():
    p = ALParams(location=0.0, rate=1.0, asymmetry=0.5)
    assert ald.quantile(0.9, p) == pytest.approx(-2.0 * math.log(0.2), rel=1e-14)
    assert ald.quantile(0.5, p) == pytest.approx(0.0, abs=1e-14)


def test_pdf_integrates_to_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = ALParams(
            location=rng.uniform(-3, 3),
            rate=rng.uniform(0.2, 5.0),
            asymmetry=rng.uniform(0.05, 0.95),
        )
        left, _ = integrate.quad(lambda x: ald.pdf(x, p), -np.inf, p.location)
        right, _ = integrate.quad(lambda x: ald.pdf(x, p), p.location, np.inf)
        assert abs(left + right - 1.0) < 1e-8


def test_cdf_matches_integrated_pdf():
    p = ALParams(location=0.5, rate=1.7, asymmetry=0.8)
    for x in (-2.0, 0.0, 0.5, 0.9, 4.0):
        lo, _ = integrate.quad(lambda t: ald.pdf(t, p), -np.inf, min(x, p.location))
        hi = 0.0
        if x > p.location:
            hi, _ = integrate.quad(lambda t: ald.pdf(t, p), p.location, x)
        assert ald.cdf(x, p) == pytest.approx(lo + hi, abs=1e-9)


@given(
    u=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
    loc=st.floats(min_value=-5, max_value=5),
    rate=st.floats(min_value=0.05, max_value=20.0),
    k=st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=300, deadline=None)
def test_quantile_cdf_roundtrip(u, loc, rate, k):
    p = ALParams(location=loc, rate=rate, asymmetry=k)
    assert ald.cdf(ald.quantile(u, p), p) == pytest.approx(u, abs=1e-10)


def test_quantile_rejects_bad_u():
    p = ALParams(0.0, 1.0, 0.5)
    for u in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            ald.quantile(u, p)


def test_param_validation():
    with pytest.raises(ValueError):
        ALParams(0.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        ALParams(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ALParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ALParams(float("nan"), 1.0, 0.5)


def test_sampler_left_mass_and_distribution():
    p = ALParams(location=-0.5, rate=2.0, asymmetry=0.7)
    rng = np.random.default_rng(42)
    xs = ald.sample(100_000, p, rng)
    # fraction strictly below the mode converges to the asymmetry
    frac = np.mean(xs < p.location)
    assert abs(frac - 0.7) < 3.0 * math.sqrt(0.7 * 0.3 / xs.size)
    # one-sample KS against the closed-form CDF
    d, pval = stats.kstest(xs, lambda x: ald.cdf(x, p))
    assert pval > 1e-4


@pytest.mark.parametrize("size", [2.5, 2.0, True])
def test_samplers_take_an_integer_size(size):
    # a float size used to end in a numpy TypeError
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="sample size must be an integer"):
        ald.sample(size, ALParams(0.0, 1.0, 0.3), rng)
    with pytest.raises(ValueError, match="sample size must be an integer"):
        ald.draw_mixture(size, [1.0], lambda s, count: np.zeros(count), rng)
    assert ald.sample(np.int64(3), ALParams(0.0, 1.0, 0.3), rng).shape == (3,)


def test_sampler_reproducible():
    p = ALParams(0.0, 1.0, 0.3)
    a = ald.sample(100, p, np.random.default_rng(5))
    b = ald.sample(100, p, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# mixtures


def test_moal_validation():
    with pytest.raises(ValueError):
        MoALModel(weights=[0.5, 0.4], rates=[1.0, 1.0], asymmetries=[0.5, 0.5])
    with pytest.raises(ValueError):
        MoALModel(weights=[0.5, 0.5], rates=[1.0, -1.0], asymmetries=[0.5, 0.5])
    with pytest.raises(ValueError):
        MoALModel(weights=[0.5, 0.5], rates=[1.0, 1.0], asymmetries=[0.5, 1.5])
    # NaN fails every comparison, so a range test written as "outside (0, 1)"
    # let it through
    with pytest.raises(ValueError, match=r"asymmetries must lie in \(0, 1\)"):
        MoALModel([1.0], [1.0], [np.nan])
    m = MoALModel(weights=[0.25, 0.75], rates=[1.0, 2.0], asymmetries=[0.3, 0.6])
    assert m.n_components == 2


def test_mixture_logpdf_matches_bruteforce():
    m = MoALModel(
        weights=[0.2, 0.5, 0.3],
        rates=[0.7, 1.3, 4.0],
        asymmetries=[0.5, 0.2, 0.9],
    )
    xs = np.linspace(-4, 4, 41)
    direct = np.log(
        sum(
            w * ald.pdf(xs, ALParams(0.0, r, k))
            for w, r, k in zip(m.weights, m.rates, m.asymmetries)
        )
    )
    np.testing.assert_allclose(ald.mixture_logpdf(xs, m), direct, rtol=1e-12)


def test_component_logpdfs_shape_and_values():
    m = MoALModel(weights=[0.5, 0.5], rates=[1.0, 2.0], asymmetries=[0.5, 0.3])
    xs = np.array([-1.0, 0.0, 2.0])
    table = ald.component_logpdfs(xs, m)
    assert table.shape == (3, 2)
    assert table[2, 0] == pytest.approx(ald.logpdf(2.0, ALParams(0.0, 1.0, 0.5)))
    # each column is the single-component log-density, bit for bit, on both
    # sides of the mode, at either signed zero and far into both tails
    m = MoALModel(weights=[0.2, 0.3, 0.5], rates=[1.0, 2.5, 0.01],
                  asymmetries=[0.5, 0.1, 0.97])
    xs = np.array([-1e300, -3e5, -7.25, -1.0, -1e-310, -0.0, 0.0, 1e-310, 0.4, 12.0, 1e300])
    table = ald.component_logpdfs(xs, m)
    for s in range(3):
        single = ald.logpdf(xs, ALParams(0.0, float(m.rates[s]), float(m.asymmetries[s])))
        assert np.array_equal(table[:, s], single)


def test_mixture_logpdf_zero_weight_component():
    # a zero weight must not poison the logsumexp with log(0)
    m = MoALModel(weights=[1.0, 0.0], rates=[1.0, 1.0], asymmetries=[0.5, 0.5])
    val = ald.mixture_logpdf(0.7, m)
    assert type(val) is float
    assert np.isfinite(val)
    assert val == pytest.approx(ald.logpdf(0.7, ALParams(0.0, 1.0, 0.5)))


@st.composite
def _logit_rows(draw):
    """Rows of 1-6 mixture logits: magnitudes 1e-3..1e3 of either sign, some
    columns -inf (zero mixing weights), some rows all -inf, and some rows
    whose maximum is tied across several columns."""
    n = draw(st.integers(1, 8))
    s = draw(st.integers(1, 6))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n * s, max_size=n * s))
    mags = draw(st.lists(st.floats(1e-3, 1e3), min_size=n * s, max_size=n * s))
    a = (np.array(signs) * np.array(mags)).reshape(n, s)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, s - 1)))):
        a[i, j] = a[i].max()
    a[:, draw(st.lists(st.booleans(), min_size=s, max_size=s))] = -np.inf
    a[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = -np.inf
    return a


@settings(max_examples=300, deadline=None)
@given(_logit_rows())
def test_logsumexp_rows_gives_scipys_bits(a):
    ours = ald._logsumexp_rows(a)
    assert ours.tobytes() == special.logsumexp(a, axis=1).tobytes()
    assert (ours[np.isneginf(a).all(axis=1)] == -np.inf).all()


def test_mixture_sample_moments():
    m = MoALModel(weights=[0.6, 0.4], rates=[1.0, 3.0], asymmetries=[0.5, 0.5])
    xs = ald.mixture_sample(200_000, m, np.random.default_rng(11))
    # k = 1/2 components are Laplace(0, b = 2/rate): variance 2 b^2 = 8/rate^2
    var = 0.6 * 8.0 + 0.4 * 8.0 / 9.0
    assert np.mean(xs) == pytest.approx(0.0, abs=0.02)
    assert np.var(xs) == pytest.approx(var, rel=0.05)
