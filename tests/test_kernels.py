"""Property tests of the broadcasting mixture and histogram kernels.

Each kernel is checked against an independent reference: the
folded-normal oracle for mixture CRPS, and the package's own quadrature
path, reached through the identity pushforward ``affine_transform(1, 0)``
(a pushforward has no closed form, so it is always integrated).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl.distributions import (
    PiecewiseUniform,
    affine_transform,
    gaussian_mixture,
    histogram_lp_integral,
    histogram_pdf,
    lp_norm_integral,
    mixture_log_pdf,
    mixture_lp_integral,
    mixture_pdf,
    pushforward,
)
from psl.scores import crps, histogram_crps, mixture_crps

import oracles

IDENTITY = affine_transform(1.0, 0.0)
TOL = dict(rel=1e-9, abs=1e-9)


@st.composite
def mixtures(draw):
    k = draw(st.integers(1, 4))
    raw = [draw(st.floats(0.05, 1.0)) for _ in range(k)]
    total = math.fsum(raw)
    return [(r / total, draw(st.floats(-5.0, 5.0)), draw(st.floats(0.05, 3.0)))
            for r in raw]


@st.composite
def histograms(draw):
    cells = draw(st.integers(1, 6))
    left = draw(st.floats(-5.0, 5.0))
    widths = [draw(st.floats(0.05, 2.0)) for _ in range(cells)]
    breaks = left + np.concatenate([[0.0], np.cumsum(widths)])
    raw = [draw(st.sampled_from([0.0]) | st.floats(0.05, 1.0))
           for _ in range(cells)]
    if not any(raw):
        raw[draw(st.integers(0, cells - 1))] = 1.0
    total = math.fsum(raw)
    return breaks.tolist(), [r / total for r in raw]


def _outcome(draw_from, points):
    """An outcome anywhere (also far outside the support) or on a point."""
    return draw_from(st.floats(-15.0, 15.0) | st.sampled_from(points))


@settings(max_examples=60, deadline=None)
@given(comps=mixtures(), data=st.data())
def test_mixture_crps_matches_oracle_and_quadrature(comps, data):
    d = gaussian_mixture(comps)
    y = _outcome(data.draw, [m for _, m, _ in comps])
    got = crps(d, y).value
    assert got == pytest.approx(oracles.crps_mixture_closed(comps, y), **TOL)
    assert got == pytest.approx(crps(pushforward(d, IDENTITY), y).value,
                                **TOL)


@settings(max_examples=60, deadline=None)
@given(hist=histograms(), data=st.data())
def test_histogram_crps_matches_quadrature(hist, data):
    breaks, masses = hist
    d = PiecewiseUniform(breaks, masses)
    y = _outcome(data.draw, breaks)
    got = crps(d, y).value
    assert got == pytest.approx(crps(pushforward(d, IDENTITY), y).value,
                                **TOL)


@settings(max_examples=40, deadline=None)
@given(comps=mixtures(), y=st.floats(-15.0, 15.0))
def test_mixture_density_and_l2_norm(comps, y):
    d = gaussian_mixture(comps)
    ref = oracles.mixture_pdf(comps, y)
    assert float(d.pdf(y)) == pytest.approx(ref, rel=1e-12, abs=1e-300)
    if ref > 1e-300:
        assert float(d.log_pdf(y)) == pytest.approx(math.log(ref), rel=1e-12,
                                                    abs=1e-12)
    assert lp_norm_integral(d, 2.0) == pytest.approx(
        lp_norm_integral(d, 2.0, method="quadrature"), **TOL)


@settings(max_examples=40, deadline=None)
@given(hist=histograms(), data=st.data())
def test_histogram_density_and_norms(hist, data):
    breaks, masses = hist
    d = PiecewiseUniform(breaks, masses)
    y = _outcome(data.draw, breaks)
    cell = int(np.searchsorted(breaks, y, side="right")) - 1
    if y == breaks[-1]:
        cell = len(masses) - 1
    inside = 0 <= cell < len(masses)
    want = masses[cell] / (breaks[cell + 1] - breaks[cell]) if inside else 0.0
    assert float(d.pdf(y)) == want
    for alpha in (1.5, 2.0, 3.0):
        assert lp_norm_integral(d, alpha) == pytest.approx(
            lp_norm_integral(d, alpha, method="quadrature"), **TOL)


@settings(max_examples=25, deadline=None)
@given(rows=st.lists(mixtures(), min_size=1, max_size=5),
       ys=st.lists(st.floats(-15.0, 15.0), min_size=5, max_size=5))
def test_padded_mixture_rows_match_single_rows(rows, ys):
    k = max(len(r) for r in rows)
    pad = [r + [(0.0, 0.0, 1.0)] * (k - len(r)) for r in rows]
    w, mu, sigma = (np.array([[c[j] for c in r] for r in pad])
                    for j in range(3))
    y = np.array(ys[:len(rows)])
    for kernel in (mixture_pdf, mixture_log_pdf, mixture_crps):
        batch = kernel(y, w, mu, sigma)
        for i, r in enumerate(rows):
            one = kernel(y[i], *(np.array([c[j] for c in r])
                                 for j in range(3)))
            assert batch[i] == pytest.approx(float(one), rel=1e-12,
                                             abs=1e-300)
    for alpha in (2.0, 3.0):
        batch = mixture_lp_integral(w, mu, sigma, alpha)
        for i, r in enumerate(rows):
            if alpha != 2.0 and len(r) > 1:
                assert math.isnan(batch[i])    # no closed form
            else:
                assert batch[i] == pytest.approx(
                    lp_norm_integral(gaussian_mixture(r), alpha), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(rows=st.lists(histograms(), min_size=1, max_size=5),
       ys=st.lists(st.floats(-15.0, 15.0), min_size=5, max_size=5))
def test_padded_histogram_rows_match_single_rows(rows, ys):
    cells = max(len(m) for _, m in rows)
    breaks = np.array([b + [b[-1]] * (cells - len(m)) for b, m in rows])
    masses = np.array([m + [0.0] * (cells - len(m)) for _, m in rows])
    y = np.array(ys[:len(rows)])
    for kernel in (histogram_pdf, histogram_crps):
        batch = kernel(y, breaks, masses)
        for i, (b, m) in enumerate(rows):
            assert batch[i] == pytest.approx(float(kernel(y[i], b, m)),
                                             rel=1e-12, abs=1e-15)
    norms = histogram_lp_integral(breaks, masses, 2.5)
    for i, (b, m) in enumerate(rows):
        assert norms[i] == pytest.approx(
            lp_norm_integral(PiecewiseUniform(b, m), 2.5), rel=1e-12)
