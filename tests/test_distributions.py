import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl.distributions import (
    GaussianComponent,
    GaussianMixture,
    PiecewiseUniform,
    affine_transform,
    cubic_transform,
    density_from_json,
    density_to_json,
    exp_transform,
    gaussian,
    gaussian_mixture,
    lp_norm_integral,
    pushforward,
    transform_from_json,
    uniform,
)

import oracles


BIMODAL = [(0.5, -1.0, 0.1), (0.5, 1.0, 0.1)]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_component_validation():
    with pytest.raises(ValueError, match="stddev must be positive"):
        GaussianComponent(weight=1.0, mean=0.0, stddev=-1.0)
    with pytest.raises(ValueError, match="stddev must be positive"):
        GaussianComponent(weight=1.0, mean=0.0, stddev=0.0)
    with pytest.raises(ValueError, match=r"weight must lie in \[0, 1\]"):
        GaussianComponent(weight=1.2, mean=0.0, stddev=1.0)


@pytest.mark.parametrize("stddev", [1e-170, 1e-155, 5e-324])
def test_component_rejects_stddev_whose_square_underflows(stddev):
    # every kernel works with the variance, which would be 0 or subnormal
    with pytest.raises(ValueError, match="stddev"):
        GaussianComponent(weight=1.0, mean=0.5, stddev=stddev)
    with pytest.raises(ValueError, match="stddev"):
        density_from_json({"type": "gaussian_mixture", "components": [
            {"w": 1, "mu": 0.5, "sigma": stddev}]})
    assert GaussianComponent(1.0, 0.5, 1e-150).stddev == 1e-150


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        gaussian_mixture([(0.5, 0.0, 1.0), (0.4, 1.0, 1.0)])


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseUniform(breaks=(0.0, 0.0, 1.0), masses=(0.5, 0.5))
    with pytest.raises(ValueError):
        PiecewiseUniform(breaks=(0.0, 1.0), masses=(0.7,))
    # a cell too narrow for its mass has an infinite height: refused
    # when built, not warned of and carried into inf or nan scores
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="cell heights must be finite"):
            PiecewiseUniform(breaks=(0.0, 5e-324, 1.0), masses=(0.5, 0.5))
    # zero-mass cells are allowed
    d = PiecewiseUniform(breaks=(0.0, 1.0, 2.0, 3.0), masses=(0.5, 0.0, 0.5))
    assert d.pdf(1.5) == 0.0
    assert d.cdf(2.0) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# gaussian mixtures against the erfc-based oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [-3.0, -1.0, -0.2, 0.0, 0.4, 1.0, 2.5])
def test_mixture_pdf_cdf_match_oracle(x):
    d = gaussian_mixture(BIMODAL)
    assert float(d.pdf(x)) == pytest.approx(oracles.mixture_pdf(BIMODAL, x),
                                            rel=1e-12, abs=1e-300)
    assert float(d.cdf(x)) == pytest.approx(oracles.mixture_cdf(BIMODAL, x),
                                            rel=1e-12, abs=1e-15)


def test_log_pdf_far_tail():
    d = gaussian(0.0, 1.0)
    # 60 sigma out: pdf underflows but the log stays finite and exact
    lp = float(d.log_pdf(60.0))
    assert lp == pytest.approx(-1800.0 - 0.5 * math.log(2.0 * math.pi),
                               rel=1e-14)
    assert float(d.pdf(60.0)) == 0.0


def test_quantile_frozen():
    assert gaussian(3.0, 2.0).quantile(0.975) == pytest.approx(
        6.919927969079822, abs=1e-9)


def test_median_of_offset_bimodal():
    # the equal-weight plateau cases resolve to the exact symmetry point
    a = gaussian_mixture(BIMODAL)
    b = gaussian_mixture([(0.5, 0.0, 0.1), (0.5, 2.0, 0.1)])
    assert a.quantile(0.5) == 0.0
    assert b.quantile(0.5) == 1.0


def test_cdf_minus_resolves_below_float_plateau():
    b = gaussian_mixture([(0.5, 0.0, 0.1), (0.5, 2.0, 0.1)])
    # plain cdf is float-flat at 0.5 here, the folded form is not
    assert float(b.cdf(1.0 - 1e-4)) == 0.5
    assert b.cdf_minus(1.0 - 1e-4, 0.5) < 0.0
    assert b.cdf_minus(1.0 + 1e-4, 0.5) > 0.0


def test_sampling_reproducible_and_consistent():
    d = gaussian_mixture(BIMODAL)
    x1 = d.sample(12345, 2000)
    x2 = d.sample(12345, 2000)
    assert np.array_equal(x1, x2)
    # DKW bound at 99.9% for n=2000 is ~0.044; compare against the cdf
    xs = np.sort(x1)
    emp = (np.arange(2000) + 1) / 2000.0
    gap = np.max(np.abs(emp - [float(d.cdf(v)) for v in xs]))
    assert gap < 0.05


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(-5, 5),
    sigma=st.floats(0.05, 4),
    p=st.floats(0.001, 0.999),
)
def test_quantile_cdf_round_trip(mu, sigma, p):
    d = gaussian(mu, sigma)
    q = d.quantile(p)
    assert float(d.cdf(q)) == pytest.approx(p, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(-8, 8),
    dx=st.floats(1e-6, 4),
)
def test_cdf_monotone(x, dx):
    d = gaussian_mixture([(0.3, -1.5, 0.4), (0.7, 2.0, 1.1)])
    assert float(d.cdf(x + dx)) >= float(d.cdf(x))


# ---------------------------------------------------------------------------
# piecewise uniform
# ---------------------------------------------------------------------------

def test_uniform_basics():
    d = uniform(0.0, 2.0)
    assert d.pdf(1.0) == 0.5
    assert d.pdf(3.0) == 0.0
    assert d.cdf(0.5) == pytest.approx(0.25)
    assert d.quantile(0.25) == pytest.approx(0.5)


def test_piecewise_cdf_is_piecewise_linear():
    d = PiecewiseUniform(breaks=(0.0, 1.0, 3.0), masses=(0.25, 0.75))
    assert d.cdf(0.5) == pytest.approx(0.125)
    assert d.cdf(2.0) == pytest.approx(0.25 + 0.375)
    assert d.quantile(0.625) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# transforms and pushforwards
# ---------------------------------------------------------------------------

def test_affine_pushforward_pdf():
    d = pushforward(gaussian(0.0, 1.0), affine_transform(2.0, 1.0))
    # N(0,1) through 2x+1 is N(1, 4): pdf at 1 is phi(0)/2
    assert float(d.pdf(1.0)) == pytest.approx(0.19947114020071635, rel=1e-13)
    assert float(d.cdf(1.0)) == pytest.approx(0.5, abs=1e-13)


def test_cubic_pushforward_pdf():
    d = pushforward(gaussian(10.0, 1.0), cubic_transform())
    # change of variables at y = 1000 = 10^3: base.pdf(10) / (3 * 10^2)
    assert float(d.pdf(1000.0)) == pytest.approx(0.001329807601338109,
                                                 rel=1e-13)
    assert d.quantile(0.5) == pytest.approx(1000.0, rel=1e-12)


def test_cubic_pushforward_pdf_at_zero_agrees_with_log_pdf():
    # the inverse derivative of x^3 is infinite at 0: the density there
    # is exp(log_pdf), +inf over any base density whose log is finite
    # (even one that underflows to 0) and 0 outside the base support
    cube = cubic_transform()
    ys = np.array([0.0, 8.0, -1.0])
    for base in (gaussian(2.0, 0.05), gaussian(0.0, 1.0), uniform(1.0, 2.0)):
        d = pushforward(base, cube)
        with np.errstate(over="ignore"):
            want = np.exp(d.log_pdf(ys))
        assert float(d.pdf(0.0)) == want[0]
        got = d.pdf(ys)
        assert got[0] == want[0]
        assert got[1:].tolist() == [float(d.pdf(8.0)), float(d.pdf(-1.0))]
    assert float(pushforward(gaussian(2.0, 0.05), cube).pdf(0.0)) == math.inf
    assert float(pushforward(uniform(1.0, 2.0), cube).pdf(0.0)) == 0.0


def test_exp_pushforward_support():
    d = pushforward(gaussian(0.0, 1.0), exp_transform())
    assert float(d.pdf(-1.0)) == 0.0
    assert float(d.cdf(1.0)) == pytest.approx(0.5, abs=1e-13)
    # lognormal median is exp(mu)
    assert d.quantile(0.5) == pytest.approx(1.0, abs=1e-9)


def test_decreasing_affine_flips_cdf():
    d = pushforward(gaussian(0.0, 1.0), affine_transform(-1.0, 0.0))
    assert float(d.cdf(1.0)) == pytest.approx(oracles.Phi(1.0), rel=1e-12)
    assert d.cdf_minus(0.0, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_transform_json_round_trip():
    t = affine_transform(2.0, -3.0)
    t2 = transform_from_json(json.loads(json.dumps(t.to_json())))
    assert float(t2.forward(1.5)) == float(t.forward(1.5))
    with pytest.raises(ValueError, match="unknown transform"):
        transform_from_json({"kind": "sine"})


# ---------------------------------------------------------------------------
# serialization and norms
# ---------------------------------------------------------------------------

def test_density_json_round_trip():
    for d in (gaussian_mixture(BIMODAL),
              PiecewiseUniform(breaks=(0.0, 1.0, 2.0), masses=(0.3, 0.7)),
              pushforward(gaussian(1.0, 2.0), cubic_transform())):
        d2 = density_from_json(json.loads(json.dumps(density_to_json(d))))
        for x in (-1.3, 0.2, 1.0, 1.9):
            assert float(d2.pdf(x)) == float(d.pdf(x))


def test_density_from_json_errors():
    with pytest.raises(ValueError, match="stddev must be positive"):
        density_from_json({"type": "gaussian_mixture",
                           "components": [{"w": 1.0, "mu": 0, "sigma": 0}]})
    with pytest.raises(ValueError):
        density_from_json({"type": "nope"})


def test_lp_norm_integral_matches_closed_form():
    for sigma in (0.5, 1.0, 2.0):
        for alpha in (1.5, 2.0, 3.0):
            got = lp_norm_integral(gaussian(0.7, sigma), alpha)
            assert got == pytest.approx(oracles.gauss_l_alpha(sigma, alpha),
                                        rel=1e-10)
    # piecewise closed form: sum m_i^a / w_i^(a-1)
    d = PiecewiseUniform(breaks=(0.0, 1.0, 3.0), masses=(0.5, 0.5))
    assert lp_norm_integral(d, 2.0) == pytest.approx(0.25 + 0.125, rel=1e-12)


def test_mixture_lp_norm_via_quadrature():
    d = gaussian_mixture(BIMODAL)
    ref = oracles.quad_integral(
        lambda x: oracles.mixture_pdf(BIMODAL, x) ** 2, -3.0, 3.0)
    assert lp_norm_integral(d, 2.0) == pytest.approx(ref, rel=1e-9)
