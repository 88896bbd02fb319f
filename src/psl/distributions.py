"""Forecast densities: Gaussian mixtures, piecewise-uniform tables, transforms.

All densities share one duck-typed interface used throughout the
package: ``pdf``, ``cdf``, ``quantile``, ``median``, ``sample``,
``support`` and ``quad_seed_points``.  ``pdf``/``cdf`` accept scalars or
numpy arrays and are safe to call inside the vectorized quadrature
engine.

The density and power-integral math of mixtures and histograms lives in
broadcasting kernels (``mixture_pdf``, ``mixture_log_pdf``,
``mixture_lp_integral``, ``histogram_pdf``, ``histogram_lp_integral``)
over parameter arrays of shape (..., K): one row per density, padded
with zero-weight components or zero-width cells.  The density classes
call them with a single row; archive scoring calls them with one row
per record.

Gaussian supports are truncated at 12 standard deviations, where the
omitted mass (< 1e-32 per component) is far below every tolerance used
in this package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from .quadrature import integrate

__all__ = [
    "GaussianComponent", "GaussianMixture", "PiecewiseUniform",
    "Transform", "TransformedDensity", "Density",
    "gaussian", "gaussian_mixture", "uniform",
    "affine_transform", "cubic_transform", "exp_transform",
    "pushforward", "lp_norm_integral",
    "mixture_pdf", "mixture_log_pdf", "mixture_lp_integral",
    "histogram_pdf", "histogram_lp_integral",
    "density_from_json", "density_to_json", "transform_from_json",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SUPPORT_SIGMAS = 12.0
_WEIGHT_TOL = 1e-12
_BISECT_WIDTH = 1e-12


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
    dens = np.exp(-0.5 * z * z)
    coef = w / (sigma * _SQRT2PI)
    if np.ndim(coef) == 1:
        # One mixture: a matrix-vector product, the fast reduction for
        # the long outcome arrays of quadrature.
        return dens @ coef
    return np.einsum("...k,...k->...", dens, coef)


def mixture_log_pdf(x, w, mu, sigma) -> np.ndarray:
    """Natural log of ``mixture_pdf``, stable far in the tails."""
    z = (np.asarray(x, dtype=float)[..., None] - mu) / sigma
    with np.errstate(divide="ignore"):
        logw = np.log(w / (sigma * _SQRT2PI))
    return _logsumexp(-0.5 * z * z + logw)


def mixture_lp_integral(w, mu, sigma, alpha: float) -> np.ndarray:
    """Closed-form integral of pdf**alpha per mixture row; nan where none.

    A row with a single nonzero weight is one Gaussian, whose integral
    is (2 pi)^((1-alpha)/2) alpha^(-1/2) sigma^(1-alpha) for every
    alpha.  At alpha = 2 any mixture has the closed form
    sum_ij w_i w_j N(mu_i - mu_j; 0, sigma_i^2 + sigma_j^2).
    """
    w = np.asarray(w, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    single = np.count_nonzero(w, axis=-1) == 1
    s = np.where(single, np.max(np.where(w > 0.0, sigma, 0.0), axis=-1), 1.0)
    one = ((2.0 * math.pi) ** ((1.0 - alpha) / 2.0)
           * alpha ** -0.5 * s ** (1.0 - alpha))
    if alpha != 2.0:
        return np.where(single, one, np.nan)
    v = sigma[..., :, None] ** 2 + sigma[..., None, :] ** 2
    d = mu[..., :, None] - mu[..., None, :]
    pair = (w[..., :, None] * w[..., None, :]
            * np.exp(-0.5 * d * d / v) / np.sqrt(2.0 * math.pi * v))
    return np.where(single, one, np.sum(pair, axis=(-2, -1)))


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

    def _cdf_boundary(self, target: float, lo: float, hi: float,
                      below: bool) -> float:
        """Bisect for the boundary of {x : cdf(x) < target} (or <=).

        With ``below=True`` the returned point is the upper edge of the
        strict sublevel set; with ``below=False`` the lower edge of the
        strict superlevel set.  Averaging the two centres any flat
        stretch of the cdf (a genuine zero-density gap between modes),
        which keeps quantiles symmetric instead of drifting to one edge
        of the gap.
        """
        a, b = lo, hi
        for _ in range(200):
            if b - a <= _BISECT_WIDTH:
                break
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                break
            t = self.cdf_minus(m, target)
            if (t < 0.0) if below else (t <= 0.0):
                a = m
            else:
                b = m
        return 0.5 * (a + b)

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
        left = self._cdf_boundary(p, lo, hi, below=True)
        right = self._cdf_boundary(p, lo, hi, below=False)
        return 0.5 * (left + right)

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
        xa = _as_float_array(x)
        z = (xa[..., None] - self._mu) / self._sigma
        vals = ndtr(z) @ self._w
        return _scalar_or_array(x, np.clip(vals, 0.0, 1.0))

    def cdf_minus(self, x: float, p: float) -> float:
        # Components sitting below x are folded through their survival
        # function, so the difference stays resolved even where the
        # plain cdf would round to exactly p in floating point.
        z = (float(x) - self._mu) / self._sigma
        pos = z > 0.0
        base = math.fsum(self._w[pos]) - p
        upper = float(ndtr(-z[pos]) @ self._w[pos]) if pos.any() else 0.0
        lower = float(ndtr(z[~pos]) @ self._w[~pos]) if (~pos).any() else 0.0
        return base + lower - upper

    def support(self) -> tuple[float, float]:
        lo = float(np.min(self._mu - _SUPPORT_SIGMAS * self._sigma))
        hi = float(np.max(self._mu + _SUPPORT_SIGMAS * self._sigma))
        return lo, hi

    def quad_seed_points(self) -> tuple[float, ...]:
        pts = []
        for k in (0.0, 1.0, 3.0, 6.0):
            pts.extend(self._mu - k * self._sigma)
            if k:
                pts.extend(self._mu + k * self._sigma)
        return tuple(sorted(set(float(p) for p in pts)))

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
        if not np.all(np.diff(br) > 0.0):
            raise ValueError("breaks must be strictly increasing")
        if np.any(ms < 0.0):
            raise ValueError("masses must be non-negative")
        total = math.fsum(float(m) for m in ms)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"masses must sum to 1 (got {total!r})")
        self.breaks = br
        self.masses = ms
        self._heights = ms / np.diff(br)
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

    def pdf(self, y):
        t = self.transform
        ya = _as_float_array(y, "y")
        x, ok = self._inverse_points(ya)
        dens = np.zeros_like(np.atleast_1d(ya))
        if ok.any():
            with np.errstate(all="ignore"):
                jac = np.abs(np.asarray(
                    t.inverse_derivative(np.atleast_1d(ya)[np.atleast_1d(ok)]),
                    dtype=float))
            dens[np.atleast_1d(ok)] = (
                self.base.pdf(np.atleast_1d(x)[np.atleast_1d(ok)]) * jac)
        return _scalar_or_array(y, dens.reshape(np.shape(ya)))

    def log_pdf(self, y):
        t = self.transform
        ya = _as_float_array(y, "y")
        x, ok = self._inverse_points(ya)
        out = np.full_like(np.atleast_1d(ya), -np.inf)
        if ok.any():
            oki = np.atleast_1d(ok)
            with np.errstate(all="ignore"):
                jac = np.abs(np.asarray(
                    t.inverse_derivative(np.atleast_1d(ya)[oki]),
                    dtype=float))
                out[oki] = (np.asarray(
                    self.base.log_pdf(np.atleast_1d(x)[oki]), dtype=float)
                    + np.log(jac))
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


def lp_norm_integral(d, alpha: float, *, method: str = "auto",
                     abs_tol: float = 1e-12, rel_tol: float = 1e-10) -> float:
    """Integral of pdf**alpha over the support, for alpha > 1.

    ``method="auto"`` uses a closed form where one exists and adaptive
    quadrature otherwise.  Closed forms exist for a piecewise-uniform
    table (every alpha), a single Gaussian (every alpha) and a Gaussian
    mixture at alpha = 2; ``mixture_lp_integral`` and
    ``histogram_lp_integral`` hold them.  Pushforwards and other powers
    of multi-component mixtures are integrated.  ``method="quadrature"``
    forces the numeric path, which is how the closed forms are
    cross-validated; a divergent integral (the cubic pushforward of a
    Gaussian for alpha >= 1.5) raises ``QuadratureError``.
    """
    alpha = float(alpha)
    if not alpha > 1.0:
        raise ValueError("alpha must exceed 1")
    if method not in ("auto", "quadrature", "analytic"):
        raise ValueError(f"unknown method {method!r}")

    if method in ("auto", "analytic"):
        value = math.nan
        if isinstance(d, GaussianMixture):
            value = float(mixture_lp_integral(d.weights, d.means, d.stddevs,
                                              alpha))
        elif isinstance(d, PiecewiseUniform):
            value = float(histogram_lp_integral(d.breaks, d.masses, alpha))
        if not math.isnan(value):
            return value
        if method == "analytic":
            raise ValueError("no closed form for this density; use quadrature")

    lo, hi = d.support()
    with np.errstate(over="ignore"):
        result = integrate(lambda x: d.pdf(x) ** alpha, lo, hi,
                           abs_tol=abs_tol, rel_tol=rel_tol,
                           seed_points=d.quad_seed_points())
    return result.value


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
