import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl import quadrature
from psl.quadrature import (IntegrationResult, QuadratureError, expectation,
                            integrate, integrate_many)

import oracles


def test_polynomial_exact():
    # the 15-point Kronrod rule integrates low-degree polynomials exactly
    result = integrate(lambda x: 3.0 * x**2 - 2.0 * x + 1.0, -1.0, 2.0)
    assert isinstance(result, IntegrationResult)
    assert result.value == pytest.approx(9.0 - 3.0 + 3.0, abs=1e-13)


def _npdf(x):
    # integrands are evaluated on arrays, so use numpy primitives
    return np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2.0 * math.pi)


def test_gaussian_mass():
    result = integrate(_npdf, -12.0, 12.0, abs_tol=1e-12)
    assert abs(result.value - 1.0) < 1e-12


def test_matches_scipy_quad():
    f = lambda x: np.exp(-np.asarray(x) ** 2) * np.cos(3.0 * np.asarray(x))
    mine = integrate(f, -4.0, 4.0, abs_tol=1e-11).value
    ref = oracles.quad_integral(
        lambda x: math.exp(-x * x) * math.cos(3.0 * x), -4.0, 4.0)
    assert mine == pytest.approx(ref, abs=1e-10)


def test_narrow_spike_needs_seed_points():
    # a sigma=1e-3 spike at 0.3 inside a wide interval: without seed
    # points every panel's nodes miss it entirely
    f = lambda x: _npdf((np.asarray(x) - 0.3) / 1e-3) / 1e-3
    blind = integrate(f, -50.0, 50.0)
    assert blind.value == 0.0
    seeds = tuple(0.3 + k * 1e-3 for k in (-6, -3, -1, 0, 1, 3, 6))
    seeded = integrate(f, -50.0, 50.0, seed_points=seeds)
    # the residual is the spike's own mass beyond +-6 sigma (~2e-9),
    # which outer panels cannot see; real densities bound it by
    # truncating their support at 12 sigma
    assert abs(seeded.value - 1.0) < 1e-8


def test_seed_points_outside_interval_ignored():
    result = integrate(lambda x: x, 0.0, 1.0, seed_points=(-5.0, 7.0))
    assert result.value == pytest.approx(0.5, abs=1e-14)


def test_subdivision_limit():
    nasty = lambda x: np.sin(1.0 / (np.abs(x) + 1e-14))
    with pytest.raises(QuadratureError):
        integrate(nasty, -1.0, 1.0, abs_tol=1e-15, rel_tol=1e-15,
                  max_subdivisions=4)


def test_deterministic():
    f = lambda x: _npdf(x) * (1.0 + np.sin(5.0 * np.asarray(x)))
    a = integrate(f, -9.0, 9.0).value
    b = integrate(f, -9.0, 9.0).value
    assert a == b  # bitwise


def test_expectation_helper():
    from psl.distributions import gaussian

    d = gaussian(1.0, 2.0)
    mean = expectation(d, lambda x: x)
    second = expectation(d, lambda x: x * x)
    assert mean == pytest.approx(1.0, abs=1e-9)
    assert second == pytest.approx(5.0, abs=1e-8)  # mu^2 + sigma^2


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    lo=st.floats(-5, 4.5),
    width=st.floats(0.1, 6),
)
def test_polynomials_match_antiderivative(coeffs, lo, width):
    hi = lo + width
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(hi) - poly.integ()(lo)
    got = integrate(lambda x: poly(np.asarray(x)), lo, hi).value
    assert got == pytest.approx(exact, abs=1e-8, rel=1e-9)


# ---------------------------------------------------------------------------
# integrate_many: one adaptive loop over many intervals
# ---------------------------------------------------------------------------

INTEGRANDS = {
    "smooth": lambda x: np.exp(-x * x) * np.cos(3.0 * x),
    "kink": lambda x: np.sqrt(np.abs(x - 0.3)),
    "oscillating": lambda x: np.sin(1.0 / (np.abs(x) + 0.05)),
    "peak": lambda x: 1.0 / (1.0 + 400.0 * (x - 1.0) ** 2),
}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(INTEGRANDS)),
    bounds=st.lists(st.tuples(st.floats(-6.0, 5.0), st.floats(0.01, 8.0)),
                    min_size=1, max_size=8),
    seeds=st.lists(st.floats(-7.0, 7.0), max_size=6),
)
def test_integrate_many_matches_lone_integrals(name, bounds, seeds):
    f = INTEGRANDS[name]
    lo = np.array([a for a, _ in bounds])
    hi = lo + np.array([w for _, w in bounds])
    values, errors, panels = integrate_many(f, lo, hi, seed_points=seeds)
    assert values.shape == errors.shape == panels.shape == (len(bounds),)
    for i in range(len(bounds)):
        lone = integrate(f, lo[i], hi[i], seed_points=seeds)
        # within both error estimates, plus rounding: the batch evaluates
        # the panels in other positions of the Kronrod matrix product
        assert abs(values[i] - lone.value) <= (
            errors[i] + lone.error_estimate + 1e-14 * abs(lone.value))
        assert errors[i] <= max(1e-10, 1e-9 * abs(values[i]))
        assert panels[i] >= 1


def test_integrate_is_integrate_many_on_one_interval():
    f = INTEGRANDS["oscillating"]
    lone = integrate(f, -1.0, 2.0, seed_points=(0.0, 0.5))
    values, errors, panels = integrate_many(f, [-1.0], [2.0],
                                            seed_points=(0.0, 0.5))
    assert (lone.value, lone.error_estimate, lone.subdivisions) == (
        values[0], errors[0], panels[0])
    assert type(lone.subdivisions) is int


def test_integrate_many_of_no_intervals():
    values, errors, panels = integrate_many(np.cos, [], [])
    assert values.shape == errors.shape == panels.shape == (0,)


def test_integrate_many_rejects_bad_bounds():
    with pytest.raises(ValueError, match="finite"):
        integrate_many(np.cos, [0.0, -np.inf], [1.0, 1.0])
    with pytest.raises(ValueError, match="strictly below"):
        integrate_many(np.cos, [0.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="1-D"):
        integrate_many(np.cos, [0.0, 1.0], [1.0])


def test_one_divergent_interval_fails_the_batch_by_name():
    f = lambda x: np.where(x > 10.0, np.inf, x)
    with pytest.raises(QuadratureError, match=r"over \[10\.0, 11\.0\]"):
        integrate_many(f, [0.0, 2.0, 10.0, 4.0], [1.0, 3.0, 11.0, 5.0])


def test_one_unconverged_interval_fails_the_batch_by_name():
    nasty = lambda x: np.sin(1.0 / (np.abs(x) + 1e-14))
    with pytest.raises(QuadratureError, match=r"on \[-1\.0, 1\.0\]") as exc:
        integrate_many(nasty, [2.0, -1.0], [3.0, 1.0], abs_tol=1e-15,
                       rel_tol=1e-15, max_subdivisions=4)
    assert exc.value.subdivisions >= 4


def test_integrand_calls_stay_within_one_block():
    sizes = []

    def f(x):
        sizes.append(len(x))
        return INTEGRANDS["kink"](x)
    lo = np.linspace(-5.0, 4.0, 700)
    values, _, panels = integrate_many(f, lo, lo + 1.5,
                                       seed_points=np.linspace(-6, 6, 25))
    assert panels.sum() > 4 * quadrature._BLOCK_PANELS  # many blocks
    assert max(sizes) <= 15 * quadrature._BLOCK_PANELS
    assert np.all(np.isfinite(values))
