"""Forecast densities: Gaussian mixtures, piecewise-uniform tables, transforms.

All densities share one duck-typed interface used throughout the
package: ``pdf``, ``cdf``, ``quantile``, ``median``, ``sample``,
``support`` and ``quad_seed_points``, plus ``cdf_minus``, ``log_pdf``
and ``bracketed_quantile`` from the shared base class.  ``pdf``/``cdf``
accept scalars or numpy arrays and are safe to call inside the
vectorized quadrature engine.

The density and power-integral math of mixtures and histograms lives in
broadcasting kernels (``mixture_pdf``, ``mixture_log_pdf``,
``mixture_lp_integral``, ``histogram_pdf``, ``histogram_lp_integral``)
over parameter arrays of shape (..., K): one row per density, padded
with zero-weight components or zero-width cells.  The density classes
call them with a single row; archive scoring and the propriety sweep
call them with one row per record or pair (``mixture_rows`` stacks
mixtures so); ``component_pairs`` pairs the components of two mixtures,
and ``mixture_overlap`` integrates the product of two mixture densities.

Batched quadrature reads lists of densities of any kind:
``densities_at`` evaluates density k at the points of integral k (the
mixtures from their padded rows, any other density through its own
method), ``density_envelopes`` gives each density's support and seed
points as nan-padded rows, and ``lp_norm_integrals`` integrates p^alpha
for a whole list, in closed form where one exists and in one
``integrate_many`` call for the rest.

Gaussian supports are truncated at 12 standard deviations, where the
omitted mass (< 1e-32 per component) is far below every tolerance used
in this package.

The module loads numpy only.  ``erf`` applies the C library's error
function to an array; mixture cdfs (``mixture_cdf``) take
``scipy.special.ndtr``, which is imported at the first cdf call, so
closed-form scoring never loads scipy.  A histogram cell too narrow for
its mass (an infinite height) is refused when the table is built.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadrature import integrate_many

__all__ = [
    "GaussianComponent", "GaussianMixture", "PiecewiseUniform",
    "Transform", "TransformedDensity", "Density",
    "gaussian", "gaussian_mixture", "uniform",
    "affine_transform", "cubic_transform", "exp_transform",
    "pushforward", "lp_norm_integral", "lp_norm_integrals",
    "mixture_pdf", "mixture_log_pdf", "mixture_lp_integral",
    "mixture_cdf", "mixture_overlap", "mixture_rows", "densities_at",
    "density_envelopes",
    "single_gaussian", "pad_rows",
    "component_pairs", "histogram_pdf", "histogram_lp_integral", "erf",
    "density_from_json", "density_to_json", "transform_from_json",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SUPPORT_SIGMAS = 12.0
_SEED_SIGMAS = np.array([0.0, 1.0, 3.0, 6.0])  # seed points, in sds from a mean
_WEIGHT_TOL = 1e-12
_BISECT_WIDTH = 1e-12
_NORM_ABS_TOL = 1e-12  # quadrature tolerances of lp_norm_integral
_NORM_REL_TOL = 1e-10


def _as_float_array(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _scalar_or_array(x, values: np.ndarray):
    if np.ndim(x) == 0:
        return float(values)
    return values


def _check_probability(p: float) -> float:
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError("probability level must lie strictly between 0 and 1")
    return p


# ---------------------------------------------------------------------------
# Broadcasting kernels: one row of parameters per density
# ---------------------------------------------------------------------------

def erf(x) -> np.ndarray:
    """Error function, elementwise, with the shape of ``x``.

    The C library's ``math.erf`` (within 1 ulp of the exact value) over
    the flattened array.  On the few hundred points of a typical
    Gaussian-pair moment this beat a numpy rational approximation, whose
    per-call overhead dominates at that size (16 against 62-89 us per
    200-element call).
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erf, x.ravel().tolist()), float,
                       x.size).reshape(x.shape)


def _ndtr(z):
    """Standard normal cdf, elementwise, by ``scipy.special.ndtr``.

    scipy is imported here, at the first mixture cdf, not with the
    package: only quantiles, pushforward CRPS and the expected CRPS of a
    histogram or pushforward evaluate mixture cdfs, and on the millions
    of points a pushforward CRPS scan takes, a numpy port of ``ndtr`` was
    about four times slower.
    """
    from scipy.special import ndtr
    return ndtr(z)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, shifted by the row maximum.

    A row of -inf entries (no mass anywhere) gives -inf.
    """
    top = np.max(a, axis=-1)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - shift[..., None]), axis=-1)) + shift


def mixture_pdf(x, w, mu, sigma) -> np.ndarray:
    """Density of Gaussian mixtures at x.

    ``w``, ``mu`` and ``sigma`` have shape (..., K), one mixture per row
    (padding components carry weight 0); ``x`` broadcasts against the
    leading shape (...).
    """
    z = (np.asarray(x, dtype=float)[..., None] - mu) / sigma
    with np.errstate(over="ignore"):
        # z * z overflows to inf past |z| ~ 1.3e154, and exp(-inf) = 0
        dens = np.exp(-0.5 * z * z)
    return _row_dot(dens, w / (sigma * _SQRT2PI))


def _row_dot(a, w) -> np.ndarray:
    """sum_k a[..., k] w[..., k].  For one mixture (1-D ``w``) a
    matrix-vector product, the fast reduction for the long outcome
    arrays of quadrature; for per-point rows an einsum."""
    if np.ndim(w) == 1:
        return a @ w
    return np.einsum("...k,...k->...", a, w)


def mixture_cdf(x, w, mu, sigma) -> np.ndarray:
    """Cdf of Gaussian mixtures at x, clipped to [0, 1]; shapes as for
    ``mixture_pdf``."""
    z = (np.asarray(x, dtype=float)[..., None] - mu) / sigma
    return np.clip(_row_dot(_ndtr(z), w), 0.0, 1.0)


def mixture_log_pdf(x, w, mu, sigma) -> np.ndarray:
    """Natural log of ``mixture_pdf``, stable far in the tails."""
    z = (np.asarray(x, dtype=float)[..., None] - mu) / sigma
    with np.errstate(divide="ignore", over="ignore"):
        # an overflowed z * z is a log density of -inf, not a clipped one
        logw = np.log(w / (sigma * _SQRT2PI))
        return _logsumexp(-0.5 * z * z + logw)


def single_gaussian(w, mu, sigma):
    """Which mixture rows hold a single Gaussian (one nonzero weight),
    with its mean and sd; mean 0 and sd 1 on the other rows."""
    w = np.asarray(w, dtype=float)
    single = np.count_nonzero(w, axis=-1) == 1
    own = w > 0.0
    m = np.where(single, np.max(np.where(own, mu, -np.inf), axis=-1), 0.0)
    s = np.where(single, np.max(np.where(own, sigma, 0.0), axis=-1), 1.0)
    return single, m, s


def mixture_lp_integral(w, mu, sigma, alpha: float) -> np.ndarray:
    """Closed-form integral of pdf**alpha per mixture row; nan where none.

    A row with a single nonzero weight is one Gaussian, whose integral
    is (2 pi)^((1-alpha)/2) alpha^(-1/2) sigma^(1-alpha) for every
    alpha.  At alpha = 2 any mixture has the closed form
    ``mixture_overlap`` of the row with itself.
    """
    w = np.asarray(w, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    single, _, s = single_gaussian(w, mu, sigma)
    one = ((2.0 * math.pi) ** ((1.0 - alpha) / 2.0)
           * alpha ** -0.5 * s ** (1.0 - alpha))
    if alpha != 2.0:
        return np.where(single, one, np.nan)
    return np.where(single, one, mixture_overlap(w, mu, sigma, w, mu, sigma))


def mixture_overlap(w, mu, sigma, w_b, mu_b, sigma_b) -> np.ndarray:
    """Integral of the product of two mixture densities per row pair:
    sum_ij w_i v_j N(mu_i - nu_j; 0, sigma_i^2 + tau_j^2)."""
    ww, d, v = component_pairs(w, mu, sigma, w_b, mu_b, sigma_b)
    pair = ww * np.exp(-0.5 * d * d / v) / np.sqrt(2.0 * math.pi * v)
    return np.sum(pair, axis=(-2, -1))


def pad_rows(rows, fill=None) -> np.ndarray:
    """Stack 1-D arrays into an (n, L) array, padding short rows with
    ``fill`` or, when it is None, with each row's last entry (so every
    row needs one)."""
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    flat = np.concatenate([np.asarray(r, dtype=float) for r in rows])
    column = np.arange(lengths.max())
    out = flat[(np.cumsum(lengths) - lengths)[:, None]
               + np.minimum(column, lengths[:, None] - 1)]
    if fill is not None:
        out[column >= lengths[:, None]] = fill
    return out


def mixture_rows(mixtures):
    """Weights, means and sds of Gaussian mixtures as padded (n, K) rows;
    a padding component has weight 0, mean 0 and sd 1.  One mixture is
    its own parameters, as one row."""
    if len(mixtures) == 1:
        d = mixtures[0]
        return d.weights[None], d.means[None], d.stddevs[None]
    return (pad_rows([d.weights for d in mixtures], 0.0),
            pad_rows([d.means for d in mixtures], 0.0),
            pad_rows([d.stddevs for d in mixtures], 1.0))


def densities_at(densities):
    """For a list of densities, the function ``at(method, x, k)`` giving
    ``method`` ("pdf", "log_pdf" or "cdf") of density ``k[j]`` at
    ``x[j]``: how an ``integrate_many`` integrand f(x, k) reads the
    densities of its integrals.

    Gaussian mixtures go through the broadcasting kernels on their
    padded rows (``mixture_rows``), gathered per point in one
    ``np.take``; a list holding a single mixture passes its own 1-D
    parameters, so that mixture rounds as its own method does.  Any
    other density calls its own method once on the points of each of
    its integrals.
    """
    kernels = {"pdf": mixture_pdf, "log_pdf": mixture_log_pdf,
               "cdf": mixture_cdf}
    mix = np.array([isinstance(d, GaussianMixture) for d in densities],
                   dtype=bool)
    mixtures = [d for d, m in zip(densities, mix) if m]
    if len(mixtures) == 1:
        own = (mixtures[0].weights, mixtures[0].means, mixtures[0].stddevs)
        rows = lambda j: own  # noqa: E731
    elif mixtures:
        stacked = np.stack(mixture_rows(mixtures))
        rows = lambda j: np.take(stacked, j, axis=1)  # noqa: E731
    if mix.all():
        return lambda method, x, k: kernels[method](x, *rows(k))
    local = np.cumsum(mix) - 1  # each mixture's index among the mixtures

    def at(method, x, k):
        out = np.empty(len(x))
        on = mix[k]
        if on.any():
            out[on] = kernels[method](x[on], *rows(local[k[on]]))
        for i in np.unique(k[~on]):
            sel = k == i
            out[sel] = getattr(densities[i], method)(x[sel])
        return out
    return at


def density_envelopes(densities):
    """Support bounds and seed points of each of a list of densities
    (``support`` and ``quad_seed_points``): arrays lo and hi, and
    nan-padded rows of seeds, unsorted and with repeats, as
    ``integrate_many`` takes them.  A list of Gaussian mixtures takes
    them from its padded means and sds in one pass."""
    if all(isinstance(d, GaussianMixture) for d in densities):
        return _mixture_envelope(
            pad_rows([d.means for d in densities], math.nan),
            pad_rows([d.stddevs for d in densities], math.nan))
    lo, hi = np.array([d.support() for d in densities], dtype=float).T
    return lo, hi, pad_rows([d.quad_seed_points() for d in densities],
                            math.nan)


def _mixture_envelope(mu, sigma):
    """Truncated support and quadrature seed points of mixture rows.

    For means and sds of shape (..., K), returns the lower and upper
    support bounds, ``_SUPPORT_SIGMAS`` sds beyond the outermost
    components, and the seed points, shape (..., 7K): each mean and the
    points 1, 3 and 6 sds either side of it, unsorted, with repeats.
    Padding components carrying nan means and sds are skipped (their
    seeds are nan).
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    lo = np.nanmin(mu - _SUPPORT_SIGMAS * sigma, axis=-1)
    hi = np.nanmax(mu + _SUPPORT_SIGMAS * sigma, axis=-1)
    m, s = mu[..., None], sigma[..., None]
    seeds = np.concatenate([m - _SEED_SIGMAS * s, m + _SEED_SIGMAS[1:] * s],
                           axis=-1)
    return lo, hi, seeds.reshape(*mu.shape[:-1], -1)


def component_pairs(w, mu, sigma, w_b, mu_b, sigma_b):
    """w_i w_j, mu_i - mu_j and sigma_i^2 + sigma_j^2 over the component
    pairs of mixture rows (..., K) and (..., J), as (..., K, J) arrays."""
    return (w[..., :, None] * w_b[..., None, :],
            mu[..., :, None] - mu_b[..., None, :],
            sigma[..., :, None] ** 2 + sigma_b[..., None, :] ** 2)


def _histogram_heights(breaks, masses):
    """Cell widths and densities; zero-width padding cells get density 0."""
    widths = np.diff(np.asarray(breaks, dtype=float), axis=-1)
    masses = np.asarray(masses, dtype=float)
    heights = np.divide(masses, widths, out=np.zeros(np.broadcast(
        masses, widths).shape), where=widths > 0.0)
    return widths, heights


def histogram_pdf(x, breaks, masses) -> np.ndarray:
    """Density of histograms at x.

    ``breaks`` has shape (..., B+1) and ``masses`` (..., B), one table per
    row; a row with fewer cells repeats its last break and pads with
    zero mass.  Cells are closed on the left, and the last break belongs
    to the last cell.
    """
    breaks = np.asarray(breaks, dtype=float)
    xa = np.asarray(x, dtype=float)[..., None]
    widths, heights = _histogram_heights(breaks, masses)
    last = np.count_nonzero(widths > 0.0, axis=-1)[..., None] - 1
    cell = np.minimum(np.sum(breaks[..., 1:] <= xa, axis=-1,
                             keepdims=True), last)
    inside = (breaks[..., :1] <= xa) & (xa <= breaks[..., -1:])
    hit = inside & (np.arange(heights.shape[-1]) == cell)
    return np.sum(np.where(hit, heights, 0.0), axis=-1)


def histogram_lp_integral(breaks, masses, alpha: float) -> np.ndarray:
    """Integral of pdf**alpha per histogram row: sum of height^alpha * width."""
    widths, heights = _histogram_heights(breaks, masses)
    return np.sum(heights ** alpha * widths, axis=-1)


class _DensityBase:
    """Shared quantile/median machinery built on ``cdf_minus`` and ``support``."""

    def cdf(self, x):  # pragma: no cover - overridden
        raise NotImplementedError

    def support(self) -> tuple[float, float]:  # pragma: no cover - overridden
        raise NotImplementedError

    def cdf_minus(self, x: float, p: float) -> float:
        """cdf(x) - p, same sign but often better resolved.

        Subclasses override this where the plain difference would round
        away (Gaussian mixtures resolve it through tail survival
        functions).  Bisection routines use it so quantiles stay exact
        deep inside low-density regions.
        """
        return float(self.cdf(x)) - p

    def log_pdf(self, x):
        """Natural log of the density; -inf where the density is zero.

        The default takes the log of ``pdf``, which underflows to -inf
        beyond roughly 38 standard deviations; subclasses override it
        with a stable form where that matters.
        """
        with np.errstate(divide="ignore"):
            out = np.log(self.pdf(x))
        return _scalar_or_array(x, np.asarray(out, dtype=float))

    def bracketed_quantile(self, p: float, lo: float, hi: float) -> float:
        """The p-quantile by bisection on a bracket [lo, hi] of it.

        Bisects to width 1e-12 for both the upper edge of the strict
        sublevel set {x : cdf(x) < p} and the lower edge of the strict
        superlevel set {x : cdf(x) > p}, and returns their midpoint.
        Averaging the two centres any flat stretch of the cdf (a genuine
        zero-density gap between modes), which keeps quantiles symmetric
        instead of drifting to one edge of the gap.
        """
        def edge(below: bool) -> float:
            a, b = lo, hi
            for _ in range(200):
                if b - a <= _BISECT_WIDTH:
                    break
                m = 0.5 * (a + b)
                if m <= a or m >= b:
                    break
                t = self.cdf_minus(m, p)
                if (t < 0.0) if below else (t <= 0.0):
                    a = m
                else:
                    b = m
            return 0.5 * (a + b)
        return 0.5 * (edge(True) + edge(False))

    def quantile(self, p: float) -> float:
        """Inverse cdf by bracketed bisection (plateau-symmetric)."""
        p = _check_probability(p)
        lo, hi = self.support()
        span = hi - lo
        # Expand the bracket in the (rare) case p falls outside the
        # truncated support's cdf range.
        for _ in range(60):
            if self.cdf_minus(lo, p) < 0.0:
                break
            lo -= span
        for _ in range(60):
            if self.cdf_minus(hi, p) > 0.0:
                break
            hi += span
        return self.bracketed_quantile(p, lo, hi)

    def median(self) -> float:
        return self.quantile(0.5)


@dataclass(frozen=True)
class GaussianComponent:
    """One weighted Gaussian component of a mixture."""

    weight: float
    mean: float
    stddev: float

    def __post_init__(self):
        if not (math.isfinite(self.weight) and math.isfinite(self.mean)
                and math.isfinite(self.stddev)):
            raise ValueError("component parameters must be finite")
        if self.stddev <= 0.0:
            raise ValueError("stddev must be positive")
        if self.stddev * self.stddev < sys.float_info.min:
            # the variance every kernel works with would underflow
            raise ValueError(f"stddev {self.stddev!r} is too small: its "
                             "square underflows the smallest normal float")
        if not (0.0 <= self.weight <= 1.0):
            raise ValueError("weight must lie in [0, 1]")


class GaussianMixture(_DensityBase):
    """Finite mixture of Gaussian components with weights summing to 1."""

    def __init__(self, components: Sequence[GaussianComponent]):
        comps = tuple(components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        for c in comps:
            if not isinstance(c, GaussianComponent):
                raise TypeError("components must be GaussianComponent instances")
        total = math.fsum(c.weight for c in comps)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"component weights must sum to 1 (got {total!r})")
        self.components = comps
        self._w = np.array([c.weight for c in comps])
        self._mu = np.array([c.mean for c in comps])
        self._sigma = np.array([c.stddev for c in comps])

    def __repr__(self):
        parts = ", ".join(f"({c.weight:g}, {c.mean:g}, {c.stddev:g})"
                          for c in self.components)
        return f"GaussianMixture([{parts}])"

    @property
    def weights(self) -> np.ndarray:
        return self._w

    @property
    def means(self) -> np.ndarray:
        return self._mu

    @property
    def stddevs(self) -> np.ndarray:
        return self._sigma

    def pdf(self, x):
        dens = mixture_pdf(_as_float_array(x), self._w, self._mu, self._sigma)
        return _scalar_or_array(x, dens)

    def log_pdf(self, x):
        lp = mixture_log_pdf(_as_float_array(x), self._w, self._mu,
                             self._sigma)
        return _scalar_or_array(x, lp)

    def cdf(self, x):
        return _scalar_or_array(x, mixture_cdf(_as_float_array(x), self._w,
                                               self._mu, self._sigma))

    def cdf_minus(self, x: float, p: float) -> float:
        # Components sitting below x are folded through their survival
        # function, so the difference stays resolved even where the
        # plain cdf would round to exactly p in floating point.
        z = (float(x) - self._mu) / self._sigma
        pos = z > 0.0
        base = math.fsum(self._w[pos]) - p
        upper = float(_ndtr(-z[pos]) @ self._w[pos]) if pos.any() else 0.0
        lower = float(_ndtr(z[~pos]) @ self._w[~pos]) if (~pos).any() else 0.0
        return base + lower - upper

    def support(self) -> tuple[float, float]:
        lo, hi, _ = _mixture_envelope(self._mu, self._sigma)
        return float(lo), float(hi)

    def quad_seed_points(self) -> tuple[float, ...]:
        return tuple(sorted(set(
            _mixture_envelope(self._mu, self._sigma)[2].tolist())))

    def sample(self, seed: int, n: int) -> np.ndarray:
        """Draw n values; component by weight, then a Gaussian draw."""
        n = _check_sample_size(n)
        rng = np.random.default_rng(seed)
        edges = np.cumsum(self._w)
        idx = np.searchsorted(edges, rng.random(n), side="right")
        idx = np.minimum(idx, len(self.components) - 1)
        z = rng.standard_normal(n)
        return self._mu[idx] + self._sigma[idx] * z

    def to_json(self) -> dict:
        return {
            "type": "gaussian_mixture",
            "components": [
                {"w": c.weight, "mu": c.mean, "sigma": c.stddev}
                for c in self.components
            ],
        }


class PiecewiseUniform(_DensityBase):
    """Histogram density: constant on each cell of a breakpoint grid.

    Zero-mass cells are allowed, which makes densities with exact
    zero-density gaps expressible (useful for exact-arithmetic checks
    and infinite-ratio comparisons).
    """

    def __init__(self, breaks: Sequence[float], masses: Sequence[float]):
        br = np.asarray(tuple(breaks), dtype=float)
        ms = np.asarray(tuple(masses), dtype=float)
        if br.ndim != 1 or br.size < 2:
            raise ValueError("breaks must hold at least two points")
        if not np.all(np.isfinite(br)) or not np.all(np.isfinite(ms)):
            raise ValueError("breaks and masses must be finite")
        if ms.ndim != 1 or ms.size != br.size - 1:
            raise ValueError("masses must have one entry per cell")
        widths = np.diff(br)
        if not np.all(widths > 0.0):
            raise ValueError("breaks must be strictly increasing")
        if np.any(ms < 0.0):
            raise ValueError("masses must be non-negative")
        total = math.fsum(float(m) for m in ms)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"masses must sum to 1 (got {total!r})")
        if widths.min() < sys.float_info.min:
            # no mass exceeds 1, so only a subnormal width can make a
            # cell's height overflow
            with np.errstate(over="ignore"):
                if not np.isfinite(ms / widths).all():
                    raise ValueError("cell heights must be finite: a cell "
                                     "is too narrow for its mass")
        self.breaks = br
        self.masses = ms
        self._heights = ms / widths
        self._cum = np.concatenate([[0.0], np.cumsum(ms)])

    def __repr__(self):
        return (f"PiecewiseUniform(breaks={self.breaks.tolist()}, "
                f"masses={self.masses.tolist()})")

    def pdf(self, x):
        dens = histogram_pdf(_as_float_array(x), self.breaks, self.masses)
        return _scalar_or_array(x, dens)

    def cdf(self, x):
        xa = _as_float_array(x)
        flat = np.atleast_1d(xa)
        idx = np.clip(np.searchsorted(self.breaks, flat, side="right") - 1,
                      0, len(self._heights) - 1)
        inner = self._cum[idx] + self._heights[idx] * (flat - self.breaks[idx])
        vals = np.where(flat <= self.breaks[0], 0.0,
                        np.where(flat >= self.breaks[-1], 1.0, inner))
        return _scalar_or_array(x, np.clip(vals, 0.0, 1.0).reshape(np.shape(xa)))

    def support(self) -> tuple[float, float]:
        return float(self.breaks[0]), float(self.breaks[-1])

    def quad_seed_points(self) -> tuple[float, ...]:
        return tuple(float(b) for b in self.breaks)

    def sample(self, seed: int, n: int) -> np.ndarray:
        n = _check_sample_size(n)
        rng = np.random.default_rng(seed)
        idx = np.searchsorted(np.cumsum(self.masses), rng.random(n), side="right")
        idx = np.minimum(idx, len(self._heights) - 1)
        u = rng.random(n)
        left = self.breaks[idx]
        width = np.diff(self.breaks)[idx]
        return left + u * width

    def to_json(self) -> dict:
        return {
            "type": "piecewise_uniform",
            "breaks": [float(b) for b in self.breaks],
            "masses": [float(m) for m in self.masses],
        }


@dataclass(frozen=True)
class Transform:
    """Smooth strictly monotone map of the outcome axis.

    ``inverse_derivative`` is d(inverse)/dy, used for the change of
    variables in the pushforward density.
    """

    kind: str
    params: tuple
    forward: Callable
    inverse: Callable
    inverse_derivative: Callable
    monotone_increasing: bool = True

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}


def affine_transform(a: float, b: float) -> Transform:
    """x -> a*x + b with a != 0."""
    a = float(a)
    b = float(b)
    if a == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("affine transform needs finite a != 0")
    return Transform(
        kind="affine", params=(a, b),
        forward=lambda x: a * np.asarray(x, dtype=float) + b,
        inverse=lambda y: (np.asarray(y, dtype=float) - b) / a,
        inverse_derivative=lambda y: np.full_like(np.asarray(y, dtype=float), 1.0 / a),
        monotone_increasing=a > 0.0,
    )


def cubic_transform() -> Transform:
    """x -> x**3 (strictly increasing; inverse derivative blows up at 0)."""
    return Transform(
        kind="cubic", params=(),
        forward=lambda x: np.asarray(x, dtype=float) ** 3,
        inverse=lambda y: np.cbrt(np.asarray(y, dtype=float)),
        inverse_derivative=lambda y: 1.0 / (3.0 * np.cbrt(np.asarray(y, dtype=float)) ** 2),
        monotone_increasing=True,
    )


def exp_transform() -> Transform:
    """x -> exp(x), mapping the real line onto the positive axis."""
    return Transform(
        kind="exp", params=(),
        forward=lambda x: np.exp(np.asarray(x, dtype=float)),
        inverse=lambda y: np.log(np.asarray(y, dtype=float)),
        inverse_derivative=lambda y: 1.0 / np.asarray(y, dtype=float),
        monotone_increasing=True,
    )


_TRANSFORM_BUILDERS = {
    "affine": affine_transform,
    "cubic": cubic_transform,
    "exp": exp_transform,
}


def transform_from_json(obj: dict) -> Transform:
    if not isinstance(obj, dict):
        raise ValueError("transform spec must be an object")
    kind = obj.get("kind")
    if kind not in _TRANSFORM_BUILDERS:
        raise ValueError(f"unknown transform kind {kind!r}")
    params = obj.get("params", [])
    if not isinstance(params, (list, tuple)):
        raise ValueError("transform params must be a list")
    try:
        return _TRANSFORM_BUILDERS[kind](*params)
    except TypeError as exc:
        raise ValueError(f"bad parameter count for {kind!r} transform") from exc


def _check_transform_on(t: Transform, lo: float, hi: float) -> None:
    """Reject transforms that are not strictly monotone on [lo, hi]."""
    grid = np.linspace(lo, hi, 257)
    y = np.asarray(t.forward(grid), dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("transform must be finite on the density support")
    d = np.diff(y)
    if t.monotone_increasing:
        ok = np.all(d > 0.0)
    else:
        ok = np.all(d < 0.0)
    if not ok:
        raise ValueError("transform must be strictly monotone on the density support")
    back = np.asarray(t.inverse(y), dtype=float)
    scale = np.maximum(1.0, np.abs(grid))
    if not np.all(np.abs(back - grid) <= 1e-9 * scale):
        raise ValueError("transform inverse does not invert forward on the support")


class TransformedDensity(_DensityBase):
    """Pushforward of a base density through a monotone transform."""

    def __init__(self, base, transform: Transform):
        self.base = base
        self.transform = transform

    def __repr__(self):
        return f"TransformedDensity({self.base!r}, {self.transform.kind})"

    def _inverse_points(self, ya):
        """Inverse images plus a finite-ness mask.

        Points outside the transform's range (such as y <= 0 for the
        exponential map) have no preimage; they carry zero density and
        sit below the range for every transform kind shipped here.
        """
        with np.errstate(all="ignore"):
            x = np.asarray(self.transform.inverse(ya), dtype=float)
        return x, np.isfinite(x)

    def _preimages(self, ya):
        """Mask of the points with a preimage, the preimages and
        |d inverse / dy| there (+inf where the inverse is vertical)."""
        x, ok = self._inverse_points(ya)
        ok = np.atleast_1d(ok)
        with np.errstate(all="ignore"):
            jac = np.abs(np.asarray(self.transform.inverse_derivative(
                np.atleast_1d(ya)[ok]), dtype=float))
        return ok, np.atleast_1d(x)[ok], jac

    def pdf(self, y):
        """Base density at the preimage times |d inverse / dy|.

        Where that derivative is infinite (the cubic map at 0) the
        density is +inf if the base log-density is finite there, and 0
        if it is -inf, as ``exp(log_pdf)`` is; a base density that
        underflows to 0 does not make it 0 * inf = nan.
        """
        ya = _as_float_array(y, "y")
        dens = np.zeros_like(np.atleast_1d(ya))
        ok, xs, jac = self._preimages(ya)
        if ok.any():
            with np.errstate(all="ignore"):
                vals = np.asarray(self.base.pdf(xs), dtype=float) * jac
            steep = np.isinf(jac)
            if steep.any():
                finite = np.asarray(self.base.log_pdf(xs[steep])) > -np.inf
                vals[steep] = np.where(finite, np.inf, 0.0)
            dens[ok] = vals
        return _scalar_or_array(y, dens.reshape(np.shape(ya)))

    def log_pdf(self, y):
        """Base log-density at the preimage plus log |d inverse / dy|;
        -inf where the base log-density is -inf, also where that
        derivative is infinite."""
        ya = _as_float_array(y, "y")
        out = np.full_like(np.atleast_1d(ya), -np.inf)
        ok, xs, jac = self._preimages(ya)
        if ok.any():
            base = np.asarray(self.base.log_pdf(xs), dtype=float)
            with np.errstate(all="ignore"):
                out[ok] = np.where(base > -np.inf, base + np.log(jac), base)
        return _scalar_or_array(y, out.reshape(np.shape(ya)))

    def cdf(self, y):
        t = self.transform
        ya = _as_float_array(y, "y")
        x, ok = self._inverse_points(ya)
        vals = np.zeros_like(np.atleast_1d(ya))
        if ok.any():
            oki = np.atleast_1d(ok)
            vals[oki] = np.asarray(
                self.base.cdf(np.atleast_1d(x)[oki]), dtype=float)
        if not t.monotone_increasing:
            vals = 1.0 - vals
        return _scalar_or_array(y, vals.reshape(np.shape(ya)))

    def cdf_minus(self, y: float, p: float) -> float:
        x, ok = self._inverse_points(float(y))
        if not bool(np.all(ok)):
            return -p if self.transform.monotone_increasing else 1.0 - p
        x = float(x)
        if self.transform.monotone_increasing:
            return self.base.cdf_minus(x, p)
        return -self.base.cdf_minus(x, 1.0 - p)

    def quantile(self, p: float) -> float:
        p = _check_probability(p)
        t = self.transform
        q = p if t.monotone_increasing else 1.0 - p
        return float(t.forward(self.base.quantile(q)))

    def support(self) -> tuple[float, float]:
        lo, hi = self.base.support()
        a, b = float(self.transform.forward(lo)), float(self.transform.forward(hi))
        return (a, b) if a <= b else (b, a)

    def quad_seed_points(self) -> tuple[float, ...]:
        pts = self.transform.forward(np.asarray(self.base.quad_seed_points()))
        return tuple(sorted(float(p) for p in np.atleast_1d(pts)))

    def sample(self, seed: int, n: int) -> np.ndarray:
        x = self.base.sample(seed, n)
        return np.asarray(self.transform.forward(x), dtype=float)

    def to_json(self) -> dict:
        out = dict(self.base.to_json())
        out["transform"] = self.transform.to_json()
        return out


Density = GaussianMixture | PiecewiseUniform | TransformedDensity


def pushforward(d, transform: Transform) -> TransformedDensity:
    """Push a density through a transform, validating monotonicity.

    The transform is checked on the (truncated) support of ``d``: it
    must be finite, strictly monotone in its declared direction, and its
    inverse must undo it there.
    """
    lo, hi = d.support()
    _check_transform_on(transform, lo, hi)
    return TransformedDensity(d, transform)


def gaussian(mu: float, sigma: float) -> GaussianMixture:
    """Single-component Gaussian forecast density."""
    return GaussianMixture([GaussianComponent(1.0, float(mu), float(sigma))])


def gaussian_mixture(triples: Sequence[tuple[float, float, float]]) -> GaussianMixture:
    """Mixture from (weight, mean, stddev) triples."""
    return GaussianMixture([GaussianComponent(w, m, s) for w, m, s in triples])


def uniform(lo: float, hi: float) -> PiecewiseUniform:
    """Uniform density on [lo, hi]."""
    return PiecewiseUniform([lo, hi], [1.0])


def _check_sample_size(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError("sample size must be an integer")
    if n < 1:
        raise ValueError("sample size must be at least 1")
    return int(n)


def lp_norm_integral(d, alpha: float, *, method: str = "auto") -> float:
    """Integral of pdf**alpha over the support, for alpha > 1: the
    one-density case of ``lp_norm_integrals``."""
    return float(lp_norm_integrals([d], alpha, method=method)[0])


def lp_norm_integrals(densities, alpha: float, *,
                      method: str = "auto") -> np.ndarray:
    """Integral of pdf**alpha over the support of each of a list of
    densities, for alpha > 1.

    ``method="auto"`` uses a closed form where one exists: a
    piecewise-uniform table (every alpha, ``histogram_lp_integral``), a
    single Gaussian (every alpha) and a Gaussian mixture at alpha = 2
    (``mixture_lp_integral``, on the padded rows of all the mixtures).
    The rest, pushforwards and other powers of multi-component mixtures,
    share one ``integrate_many`` call, each over its own support, cut at
    its own seed points.  ``method="quadrature"`` integrates every
    density, which is how the closed forms are cross-validated; a
    divergent integral (the cubic pushforward of a Gaussian for
    alpha >= 1.5) raises ``QuadratureError``.
    """
    alpha = float(alpha)
    if not alpha > 1.0:
        raise ValueError("alpha must exceed 1")
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    out = np.full(len(densities), np.nan)
    if method == "auto":
        mix = [i for i, d in enumerate(densities)
               if isinstance(d, GaussianMixture)]
        if mix:
            out[mix] = mixture_lp_integral(
                *mixture_rows([densities[i] for i in mix]), alpha)
        for i, d in enumerate(densities):
            if isinstance(d, PiecewiseUniform):
                out[i] = histogram_lp_integral(d.breaks, d.masses, alpha)
    rest = np.flatnonzero(np.isnan(out))
    if len(rest):
        left = [densities[i] for i in rest]
        at = densities_at(left)
        lo, hi, seeds = density_envelopes(left)
        with np.errstate(over="ignore"):
            out[rest] = integrate_many(
                lambda x, k: at("pdf", x, k) ** alpha, lo, hi,
                abs_tol=_NORM_ABS_TOL, rel_tol=_NORM_REL_TOL,
                seed_points=seeds)[0]
    return out


def density_from_json(spec) -> Density:
    """Build a density from its JSON object (or JSON text).

    Recognized shapes::

        {"type": "gaussian_mixture", "components": [{"w":..,"mu":..,"sigma":..}, ...]}
        {"type": "piecewise_uniform", "breaks": [...], "masses": [...]}

    Either may carry an optional ``"transform": {"kind":.., "params":[..]}``
    entry, in which case the pushforward through that transform is
    returned.
    """
    if isinstance(spec, (str, bytes)):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ValueError(f"density spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ValueError("density spec must be a JSON object")
    kind = spec.get("type")
    if kind == "gaussian_mixture":
        comps = spec.get("components")
        if not isinstance(comps, list) or not comps:
            raise ValueError("gaussian_mixture spec needs a non-empty 'components' list")
        parsed = []
        for c in comps:
            if not isinstance(c, dict):
                raise ValueError("each component must be an object")
            missing = [k for k in ("w", "mu", "sigma") if k not in c]
            if missing:
                raise ValueError(f"component missing field '{missing[0]}'")
            parsed.append(GaussianComponent(float(c["w"]), float(c["mu"]),
                                            float(c["sigma"])))
        base: Density = GaussianMixture(parsed)
    elif kind == "piecewise_uniform":
        if "breaks" not in spec or "masses" not in spec:
            raise ValueError("piecewise_uniform spec needs 'breaks' and 'masses'")
        base = PiecewiseUniform([float(b) for b in spec["breaks"]],
                                [float(m) for m in spec["masses"]])
    else:
        raise ValueError(f"unknown density type {kind!r}")
    if "transform" in spec and spec["transform"] is not None:
        base = pushforward(base, transform_from_json(spec["transform"]))
    return base


def density_to_json(d) -> dict:
    """JSON object for a density (inverse of ``density_from_json``)."""
    return d.to_json()
