"""Deterministic adaptive quadrature on finite intervals.

The integrator is a globally adaptive 15-point Kronrod rule with the
embedded 7-point Gauss rule supplying the per-panel error estimate.
Panels holding more than their share of the error budget are bisected
until the summed estimate meets the requested tolerance.  All arithmetic
is plain float64 in a fixed evaluation order, so identical inputs give
bitwise-identical results.

Integrands must be vectorized: they receive a 1-D ``numpy`` array and
must return an array of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

__all__ = ["IntegrationResult", "QuadratureError", "integrate", "expectation"]

# 15-point Kronrod abscissae on [-1, 1]; the odd-indexed entries are the
# 7-point Gauss nodes.  Standard tabulated values.
_XGK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299786, 0.0229353220105292,
])
_GAUSS_IDX = np.arange(1, 15, 2)
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])


@dataclass(frozen=True)
class IntegrationResult:
    """Value of an integral together with its error estimate.

    Attributes
    ----------
    value : float
        The computed integral.
    error_estimate : float
        Summed per-panel |Kronrod - Gauss| differences.  On success this
        is at or below the requested tolerance.
    subdivisions : int
        Number of panels in the final partition.
    """

    value: float
    error_estimate: float
    subdivisions: int


class QuadratureError(RuntimeError):
    """Raised when the integrator cannot meet the requested tolerance.

    Carries the best estimate reached so the caller can inspect how far
    the refinement got before giving up.  A non-finite integrand value
    (the mark of a divergent integral, such as the integral of the
    squared density of a cubic pushforward) raises it too, with value
    nan and an infinite error estimate.
    """

    def __init__(self, message: str, value: float, error_estimate: float,
                 subdivisions: int):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.subdivisions = subdivisions


def _gk15(f: Callable, a: np.ndarray, b: np.ndarray):
    """Apply the Kronrod-15 rule to each panel [a_i, b_i] in one batch."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _XGK[None, :]
    y = np.asarray(f(x.ravel()), dtype=float)
    if y.shape != (x.size,):
        raise ValueError("integrand must return one value per input point")
    if not np.all(np.isfinite(y)):
        bad = float(x.ravel()[~np.isfinite(y)][0])
        raise QuadratureError(
            f"integrand returned a non-finite value at x={bad!r}; the "
            f"integral may diverge", math.nan, math.inf, len(a))
    y = y.reshape(x.shape)
    kronrod = half * (y @ _WGK)
    gauss = half * (y[:, _GAUSS_IDX] @ _WG)
    return kronrod, np.abs(kronrod - gauss)


def integrate(f: Callable, lo: float, hi: float, *,
              abs_tol: float = 1e-10, rel_tol: float = 1e-9,
              seed_points: Iterable[float] = (),
              max_subdivisions: int = 100_000) -> IntegrationResult:
    """Integrate a vectorized function over the finite interval [lo, hi].

    Parameters
    ----------
    f : callable
        Vectorized integrand: maps a 1-D float array to an array of the
        same shape.  A non-finite value raises ``QuadratureError``.
    lo, hi : float
        Finite bounds with ``lo < hi``.
    abs_tol, rel_tol : float
        The refinement stops once the summed error estimate drops to
        ``max(abs_tol, rel_tol * |value|)``.
    seed_points : iterable of float
        Interior points used as initial panel boundaries, so that sharp
        features (e.g. narrow mixture components) are never straddled by
        a single panel.  Points outside (lo, hi) are ignored.
    max_subdivisions : int
        Cap on the panel count; exceeding it raises ``QuadratureError``
        carrying the best estimate so far.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration bounds must be finite")
    if not lo < hi:
        raise ValueError("lower integration bound must be strictly below upper bound")
    if max_subdivisions < 1:
        raise ValueError("max_subdivisions must be positive")

    cuts = [float(lo), float(hi)]
    for p in seed_points:
        p = float(p)
        if lo < p < hi:
            cuts.append(p)
    edges = np.unique(np.asarray(cuts, dtype=float))
    a, b = edges[:-1], edges[1:]
    vals, errs = _gk15(f, a, b)

    while True:
        total = float(np.sum(vals))
        err_total = float(np.sum(errs))
        tol = max(abs_tol, rel_tol * abs(total))
        if err_total <= tol:
            return IntegrationResult(total, err_total, len(a))
        if len(a) >= max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge within {max_subdivisions} panels "
                f"(error estimate {err_total:.3e}, requested {tol:.3e})",
                total, err_total, len(a))
        # Bisect every panel holding more than its pro-rata share of the
        # budget; always at least the worst one.
        split = errs > tol / (2.0 * len(a))
        if not split.any():
            split = errs == errs.max()
        keep = ~split
        mids = 0.5 * (a[split] + b[split])
        lv, le = _gk15(f, a[split], mids)
        rv, re = _gk15(f, mids, b[split])
        a = np.concatenate([a[keep], a[split], mids])
        b = np.concatenate([b[keep], mids, b[split]])
        vals = np.concatenate([vals[keep], lv, rv])
        errs = np.concatenate([errs[keep], le, re])


def expectation(d, f: Callable) -> float:
    """Expectation of a vectorized function under a density.

    Integrates ``f(x) * d.pdf(x)`` over the density's truncated support,
    seeding the initial panels at the density's structural points
    (component means +/- 1, 3, 6 standard deviations, or breakpoints).
    """
    lo, hi = d.support()
    result = integrate(lambda x: np.asarray(f(x), dtype=float) * d.pdf(x),
                       lo, hi, seed_points=d.quad_seed_points())
    return result.value
