"""Deterministic adaptive quadrature on finite intervals.

The integrator is a globally adaptive 15-point Kronrod rule with the
embedded 7-point Gauss rule supplying the per-panel error estimate
(the QUADPACK pair; Piessens et al., 1983).  Panels holding more than
their share of the error budget are bisected until the summed estimate
meets the requested tolerance.  All arithmetic is plain float64 in a
fixed evaluation order, so identical inputs give bitwise-identical
results.

``integrate_many`` integrates one integrand over many intervals in a
single adaptive loop over (integral, panel) pairs, the vectorized
design of Shampine's ``quadgk`` (J. Comput. Appl. Math. 211, 2008):
each refinement round makes one integrand call per block of
``_BLOCK_PANELS`` panels, whatever the number of integrals.
``integrate`` is ``integrate_many`` on one interval.

Integrands must be vectorized: they receive a 1-D ``numpy`` array and
must return an array of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

__all__ = ["IntegrationResult", "QuadratureError", "integrate",
           "integrate_many", "expectation"]

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
# Panels per integrand call: 15 points each, so a call sees at most 3840
# points however many integrals run together.
_BLOCK_PANELS = 256


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


def _gk15(f: Callable, a: np.ndarray, b: np.ndarray, on_nonfinite: Callable):
    """Kronrod-15 values and |Kronrod - Gauss| errors of panels [a_i, b_i].

    The panels are evaluated ``_BLOCK_PANELS`` at a time, one integrand
    call per block.  A non-finite integrand value calls
    ``on_nonfinite(panel, x)``, which raises.
    """
    vals = np.empty(len(a))
    errs = np.empty(len(a))
    for start in range(0, len(a), _BLOCK_PANELS):
        block = slice(start, start + _BLOCK_PANELS)
        mid = 0.5 * (a[block] + b[block])
        half = 0.5 * (b[block] - a[block])
        x = (mid[:, None] + half[:, None] * _XGK[None, :]).ravel()
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            raise ValueError("integrand must return one value per input point")
        if not np.isfinite(y).all():
            k = int(np.argmin(np.isfinite(y)))
            on_nonfinite(start + k // len(_XGK), float(x[k]))
        y = y.reshape(len(mid), len(_XGK))
        vals[block] = kronrod = half * (y @ _WGK)
        errs[block] = np.abs(kronrod - half * (y[:, _GAUSS_IDX] @ _WG))
    return vals, errs


def _segment_sums(starts: np.ndarray, counts: np.ndarray, *arrays):
    """``np.sum`` of each segment ``x[s:s+c]`` of each array, bit for bit.

    Segments of one length are gathered into the rows of a matrix and
    summed along the rows, which is numpy's pairwise summation of each
    segment on its own; a running sum (``np.add.reduceat``) would round
    differently from a lone integral.
    """
    if len(counts) == 1:
        return [x.sum(keepdims=True) for x in arrays]
    sums = [np.empty(len(counts)) for _ in arrays]
    for length in np.unique(counts):
        rows = np.flatnonzero(counts == length)
        index = starts[rows, None] + np.arange(length)
        for out, x in zip(sums, arrays):
            out[rows] = x[index].sum(axis=-1)
    return sums


def integrate_many(f: Callable, lo, hi, *,
                   abs_tol: float = 1e-10, rel_tol: float = 1e-9,
                   seed_points: Iterable[float] = (),
                   max_subdivisions: int = 100_000):
    """Integrate one vectorized function over many finite intervals.

    ``lo`` and ``hi`` are 1-D arrays of bounds, ``lo < hi`` elementwise.
    Returns three arrays with one entry per interval: the values, their
    error estimates and their final panel counts.

    Each integral is refined by the rule ``integrate`` documents, with
    its own tolerance ``max(abs_tol, rel_tol * |value|)``, but all share
    one adaptive loop over (integral, panel) pairs: a round bisects the
    panels of every unfinished integral at once and evaluates all left
    and right halves together, in integrand calls of at most
    ``_BLOCK_PANELS`` panels, so the memory of a call does not grow with
    the number of integrals.  Each interval is cut at the
    ``seed_points`` strictly inside it.  A non-finite integrand value, or
    an integral short of its tolerance at ``max_subdivisions`` panels,
    raises ``QuadratureError`` naming that integral's bounds.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("integration bounds must be 1-D arrays of one length")
    if not (np.isfinite(lo) & np.isfinite(hi) & (lo < hi)).all():
        if not (np.isfinite(lo) & np.isfinite(hi)).all():
            raise ValueError("integration bounds must be finite")
        raise ValueError("lower integration bound must be strictly below upper bound")
    if max_subdivisions < 1:
        raise ValueError("max_subdivisions must be positive")
    n = len(lo)
    values, errors = np.empty(n), np.empty(n)
    panels = np.empty(n, dtype=np.int64)
    if n == 0:
        return values, errors, panels

    # Initial panels: each interval cut at the seed points inside it.
    # Panels stay grouped by integral, each group in the order a lone
    # integral keeps them: kept panels, then left halves, then right.
    seeds = np.array(sorted({p for p in map(float, seed_points)
                             if not math.isnan(p)}))
    grid = np.empty((n, len(seeds) + 2))
    grid[:, 0], grid[:, 1:-1], grid[:, -1] = lo, seeds, hi
    cut = np.ones(grid.shape, dtype=bool)
    cut[:, 1:-1] = (lo[:, None] < seeds) & (seeds < hi[:, None])
    a, b = grid[:, :-1][cut[:, :-1]], grid[:, 1:][cut[:, 1:]]
    counts = cut.sum(axis=1) - 1
    ids = np.arange(n)  # the interval each live integral integrates
    owner = np.repeat(ids, counts)  # the live integral of each panel

    def nonfinite(panel_owner):
        def fail(panel: int, x: float):
            k = panel_owner[panel]
            raise QuadratureError(
                f"integrand returned a non-finite value at x={x!r}; the "
                f"integral over [{float(lo[ids[k]])!r}, "
                f"{float(hi[ids[k]])!r}] may diverge",
                math.nan, math.inf, int(counts[k]))
        return fail

    vals, errs = _gk15(f, a, b, nonfinite(owner))
    while True:
        starts = np.cumsum(counts) - counts
        total, err_total = _segment_sums(starts, counts, vals, errs)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        done = err_total <= tol
        if done.any():
            # Record the finished integrals and drop their panels.
            finished = ids[done]
            values[finished] = total[done]
            errors[finished] = err_total[done]
            panels[finished] = counts[done]
            if done.all():
                return values, errors, panels
            live = ~done
            kept = live[owner]
            a, b, vals, errs = a[kept], b[kept], vals[kept], errs[kept]
            owner = (np.cumsum(live) - 1)[owner[kept]]
            counts, ids = counts[live], ids[live]
            total, err_total, tol = total[live], err_total[live], tol[live]
            starts = np.cumsum(counts) - counts
        if counts.max() >= max_subdivisions:
            k = int(np.argmax(counts >= max_subdivisions))
            raise QuadratureError(
                f"quadrature did not converge within {max_subdivisions} "
                f"panels on [{float(lo[ids[k]])!r}, {float(hi[ids[k]])!r}] "
                f"(error estimate {err_total[k]:.3e}, requested "
                f"{tol[k]:.3e})",
                float(total[k]), float(err_total[k]), int(counts[k]))
        # Bisect every panel holding more than its integral's pro-rata
        # share of the budget; always at least the integral's worst one.
        split = errs > (tol / (2.0 * counts))[owner]
        lone = ~np.logical_or.reduceat(split, starts)
        if lone.any():
            worst = np.maximum.reduceat(errs, starts)
            split |= lone[owner] & (errs == worst[owner])
        keep = ~split
        a_split, b_split = a[split], b[split]
        mids = 0.5 * (a_split + b_split)
        halves = np.concatenate([owner[split], owner[split]])
        half_vals, half_errs = _gk15(f, np.concatenate([a_split, mids]),
                                     np.concatenate([mids, b_split]),
                                     nonfinite(halves))
        counts = counts + np.add.reduceat(split, starts, dtype=np.intp)
        owner = np.concatenate([owner[keep], halves])
        a = np.concatenate([a[keep], a_split, mids])
        b = np.concatenate([b[keep], mids, b_split])
        vals = np.concatenate([vals[keep], half_vals])
        errs = np.concatenate([errs[keep], half_errs])
        if len(counts) > 1:
            # Regroup the panels by integral (kept panels, left halves,
            # right halves); a lone integral's are grouped already.
            order = np.argsort(owner, kind="stable")
            a, b, vals, errs = a[order], b[order], vals[order], errs[order]
            owner = owner[order]


def integrate(f: Callable, lo: float, hi: float, *,
              abs_tol: float = 1e-10, rel_tol: float = 1e-9,
              seed_points: Iterable[float] = (),
              max_subdivisions: int = 100_000) -> IntegrationResult:
    """Integrate a vectorized function over the finite interval [lo, hi].

    ``integrate_many`` on the one interval.  Panels holding more than
    their pro-rata share of the error budget, and always the worst one,
    are bisected until the summed estimate meets the tolerance.

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
    values, errors, panels = integrate_many(
        f, [lo], [hi], abs_tol=abs_tol, rel_tol=rel_tol,
        seed_points=seed_points, max_subdivisions=max_subdivisions)
    return IntegrationResult(float(values[0]), float(errors[0]),
                             int(panels[0]))


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
