import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import psl
from hypothesis import given, settings
from hypothesis import strategies as st

from psl.distributions import PiecewiseUniform, gaussian, gaussian_mixture, uniform
from psl.scores import (
    FAMILIES,
    ScoreSpec,
    crps,
    crps_gaussian_exact,
    crps_outcome_derivative,
    energy_score,
    ignorance,
    naive_linear_score,
    power_score,
    pseudospherical_score,
    score,
)

import oracles


STD = gaussian(0.0, 1.0)


# ---------------------------------------------------------------------------
# spec plumbing
# ---------------------------------------------------------------------------

def test_family_registry():
    assert set(FAMILIES) == {"ignorance", "crps", "energy", "power",
                             "pseudospherical", "naive_linear"}


def test_no_family_name_ladders():
    # per-family behaviour lives in the RULES table, not in branches on
    # the family's name
    ladder = re.compile(r'(fam|family|name) (==|!=|in) \(?"')
    hits = [f"{path.name}:{i}"
            for path in sorted(Path(psl.__file__).parent.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if ladder.search(line)]
    assert hits == []


@pytest.mark.parametrize("family,kw", [
    ("energy", {}),                     # missing beta
    ("energy", {"beta": 2.0}),          # beta must be < 2
    ("power", {"alpha": 1.0}),          # alpha must exceed 1
    ("pseudospherical", {"beta": 1.0}),
    ("crps", {"alpha": 2.0}),           # parameter-free family
    ("nonsense", {}),
    ("power", {"alpha": math.inf}),     # parameters must be finite
    ("pseudospherical", {"beta": math.inf}),
    ("power", {"alpha": 2.0, "beta": 3.0}),  # beta is not power's
    ("power", {"alpha": "2"}),          # a number, not a string
])
def test_spec_validation(family, kw):
    with pytest.raises(ValueError):
        ScoreSpec(family, **kw)


def test_spec_flags_and_json():
    s = ScoreSpec("pseudospherical", beta=2.5)
    assert s.is_strictly_proper and not s.is_local
    assert ScoreSpec.from_json(json.loads(json.dumps(s.to_json()))) == s
    assert ScoreSpec("ignorance").is_local
    assert not ScoreSpec("naive_linear").is_strictly_proper
    # the naive linear rule reads only p(y) but is deliberately not
    # flagged local: the local label is reserved for the proper rule
    assert not ScoreSpec("naive_linear").is_local


# ---------------------------------------------------------------------------
# ignorance
# ---------------------------------------------------------------------------

def test_ignorance_standard_normal():
    v = ignorance(STD, 0.0)
    assert v.value == pytest.approx(1.3257480647361592, rel=1e-14)
    assert not v.infinite


def test_ignorance_uniform_bits():
    assert ignorance(uniform(0.0, 1.0), 0.5).value == 0.0
    assert ignorance(uniform(0.0, 2.0), 0.5).value == 1.0


def test_ignorance_outside_support_is_infinite():
    v = ignorance(uniform(0.0, 1.0), 2.0)
    assert v.infinite and v.value == math.inf


def test_ignorance_density_floor():
    v = ignorance(uniform(0.0, 1.0), 2.0, density_floor=1e-6)
    assert v.value == pytest.approx(19.931568569324174, rel=1e-14)
    with pytest.raises(ValueError, match="floor must be positive"):
        ignorance(STD, 0.0, density_floor=0.0)


def test_ignorance_far_tail_stays_finite():
    # pdf underflows at 60 sigma; the log-space path does not
    v = ignorance(STD, 60.0)
    assert v.value == pytest.approx(2598.17682166487, rel=1e-12)
    assert not v.infinite


# ---------------------------------------------------------------------------
# crps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu,sigma,y", [
    (0.0, 1.0, 0.0), (0.0, 1.0, 1.7), (-2.0, 0.3, -2.5), (5.0, 4.0, -1.0),
])
def test_crps_matches_closed_form(mu, sigma, y):
    got = crps(gaussian(mu, sigma), y).value
    assert got == pytest.approx(oracles.crps_gaussian_closed(mu, sigma, y),
                                abs=1e-9)
    assert crps_gaussian_exact(mu, sigma, y) == pytest.approx(
        oracles.crps_gaussian_closed(mu, sigma, y), rel=1e-12)


def test_crps_mixture_against_folded_moment_identity():
    comps = [(0.4, -1.0, 0.5), (0.6, 2.0, 1.5)]
    d = gaussian_mixture(comps)
    for y in (-2.0, 0.0, 1.1, 3.0):
        assert crps(d, y).value == pytest.approx(
            oracles.crps_mixture_closed(comps, y), abs=1e-9)


def test_crps_box_densities_exact():
    # double-box densities: the squared-CDF areas are rational
    p1 = PiecewiseUniform(breaks=(-0.5, 0.5, 1.5, 2.5), masses=(0.5, 0.0, 0.5))
    p2 = PiecewiseUniform(breaks=(-1.5, -0.5, 0.5, 1.5), masses=(0.5, 0.0, 0.5))
    assert crps(p1, 0.0).value == pytest.approx(13.0 / 24.0, abs=1e-10)
    assert crps(p2, 0.0).value == pytest.approx(5.0 / 12.0, abs=1e-10)


def test_crps_derivative_is_two_cdf_minus_one():
    d = gaussian_mixture([(0.5, -1.0, 0.1), (0.5, 1.0, 0.1)])
    for y in (-1.5, -0.3, 0.0, 0.9, 2.0):
        assert crps_outcome_derivative(d, y) == pytest.approx(
            2.0 * float(d.cdf(y)) - 1.0, rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    mu=st.floats(-4, 4),
    sigma=st.floats(0.1, 3),
    y=st.floats(-6, 6),
)
def test_crps_quadrature_tracks_closed_form(mu, sigma, y):
    got = crps(gaussian(mu, sigma), y).value
    assert got == pytest.approx(oracles.crps_gaussian_closed(mu, sigma, y),
                                abs=1e-8)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_beta_one_agrees_with_crps():
    d = gaussian_mixture([(0.3, -1.0, 0.8), (0.7, 1.5, 0.4)])
    y = 0.4
    mc = energy_score(d, y, 1.0, seed=2024, n=400_000)
    ref = crps(d, y).value
    assert abs(mc.value - ref) < 3.0 * mc.stderr
    assert mc.stderr < 0.01


def test_energy_reproducible_and_guarded():
    a = energy_score(STD, 0.0, 1.5, seed=7, n=10_000)
    b = energy_score(STD, 0.0, 1.5, seed=7, n=10_000)
    assert a.value == b.value
    with pytest.raises(ValueError, match="seed"):
        energy_score(STD, 0.0, 1.0, seed=None)
    with pytest.raises(ValueError):
        energy_score(STD, 0.0, 2.0, seed=1)
    with pytest.raises(ValueError):
        energy_score(STD, 0.0, 1.0, seed=1, n=100)


def test_energy_beta_15_frozen_expectation():
    # E|X|^1.5 - 0.5 E|X-X'|^1.5 for N(0,1), from folded-moment algebra
    exact = (oracles.abs_moment_quad(0.0, 1.0, 1.5)
             - 0.5 * oracles.abs_moment_quad(0.0, 2.0, 1.5))
    assert exact == pytest.approx(0.136835445008, rel=1e-10)
    mc = energy_score(STD, 0.0, 1.5, seed=11, n=400_000)
    assert abs(mc.value - exact) < 3.0 * mc.stderr


# ---------------------------------------------------------------------------
# power and pseudospherical
# ---------------------------------------------------------------------------

def test_power_alpha_two_at_zero():
    # -2 phi(0) + integral(phi^2)
    want = -2.0 * oracles.phi(0.0) + oracles.gauss_l_alpha(1.0, 2.0)
    assert power_score(STD, 0.0, 2.0).value == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_power_generic_alpha_matches_quad(alpha):
    d = gaussian(0.5, 1.3)
    y = -0.2
    ref = (-alpha * oracles.mixture_pdf([(1.0, 0.5, 1.3)], y) ** (alpha - 1.0)
           + (alpha - 1.0) * oracles.gauss_l_alpha(1.3, alpha))
    assert power_score(d, y, alpha).value == pytest.approx(ref, rel=1e-9)


def test_pseudospherical_beta_two_at_zero():
    want = -oracles.phi(0.0) / math.sqrt(oracles.gauss_l_alpha(1.0, 2.0))
    assert pseudospherical_score(STD, 0.0, 2.0).value == pytest.approx(
        want, rel=1e-10)
    assert want == pytest.approx(-0.7511255444649424, rel=1e-12)


def test_pseudospherical_beta_three_frozen():
    assert pseudospherical_score(STD, 0.0, 3.0).value == pytest.approx(
        -0.781592641796772, rel=1e-10)


def test_pseudospherical_normalizer_exponent():
    # score is -(p(y) / ||p||_beta)^(beta-1); for N(0,s) at the mean this
    # is a closed expression in s and beta
    beta, s = 2.5, 1.7
    norm = oracles.gauss_l_alpha(s, beta) ** (1.0 / beta)
    want = -(oracles.phi(0.0) / s / norm) ** (beta - 1.0)
    got = pseudospherical_score(gaussian(0.0, s), 0.0, beta).value
    assert got == pytest.approx(want, rel=1e-9)


def test_scale_families_monotone_in_density():
    # at fixed forecast, both families reward outcomes with more density
    d = gaussian_mixture([(0.5, -1.0, 0.4), (0.5, 1.0, 0.8)])
    ys = (1.0, 0.5, 2.2, -3.0)
    dens = [float(d.pdf(y)) for y in ys]
    order = np.argsort(dens)
    pw = [power_score(d, y, 2.5).value for y in ys]
    ps = [pseudospherical_score(d, y, 2.5).value for y in ys]
    assert [pw[i] for i in order] == sorted(pw, reverse=True)
    assert [ps[i] for i in order] == sorted(ps, reverse=True)


def test_naive_linear_is_negative_density():
    y = 0.7
    assert naive_linear_score(STD, y).value == pytest.approx(
        -oracles.phi(y), rel=1e-12)


def test_score_dispatcher():
    y = 0.3
    assert score(ScoreSpec("crps"), STD, y).value == crps(STD, y).value
    assert score(ScoreSpec("power", alpha=2.0), STD, y).value == \
        power_score(STD, y, 2.0).value
    with pytest.raises(ValueError, match="seed"):
        score(ScoreSpec("energy", beta=1.0), STD, y)
