"""Scoring rules for univariate probabilistic forecasts.

Every score here is negatively oriented: lower is better, and a score
is proper when forecasting the true distribution minimizes its
expectation.  The families:

``ignorance``
    -log2 of the forecast density at the outcome, in bits.  The only
    strictly proper rule that looks at the forecast solely through its
    value at the outcome.  Unbounded: zero density scores +infinity.
``crps``
    Integrated squared difference between the forecast cdf and the
    outcome's step function.  Units of the outcome variable.
``energy_score``
    E|x - y|^beta - E|x - x'|^beta / 2 for beta in (0, 2), estimated by
    Monte Carlo; beta = 1 reproduces the CRPS.
``power_score``
    -alpha p(y)^(alpha-1) + (alpha-1) * integral(p^alpha), alpha > 1;
    alpha = 2 is the proper linear score.
``pseudospherical_score``
    -p(y)^(beta-1) / ||p||_beta^(beta-1) with ||p||_beta the L^beta norm,
    i.e. -p(y)^(beta-1) / (integral(p^beta))^((beta-1)/beta), beta > 1;
    beta = 2 is the spherical score.
``naive_linear_score``
    -p(y).  Improper; kept as the negative control for propriety
    checks.

The CRPS of Gaussian mixtures and of histograms has closed forms,
evaluated by the broadcasting kernels ``mixture_crps`` and
``histogram_crps`` over parameter rows of shape (..., K); ``crps`` calls
them with one row and archive scoring with one row per record.  The
pointwise rules are written once over arrays (``ignorance_bits``,
``power_rule``, ``pseudospherical_rule``) and shared the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import erf

from .distributions import GaussianMixture, PiecewiseUniform, lp_norm_integral
from .quadrature import integrate

__all__ = [
    "FAMILIES", "ScoreSpec", "ScoreValue",
    "ignorance", "crps", "crps_gaussian_exact", "energy_score",
    "power_score", "pseudospherical_score", "naive_linear_score",
    "score", "crps_outcome_derivative",
    "mixture_crps", "histogram_crps",
    "ignorance_bits", "power_rule", "pseudospherical_rule",
]

_INV_SQRTPI = 1.0 / math.sqrt(math.pi)
_INV_LN2 = 1.0 / math.log(2.0)

FAMILIES = ("ignorance", "crps", "energy", "power", "pseudospherical",
            "naive_linear")

# Which structural pieces each family evaluates: "outcome_density" is a
# function of p(y) alone, "pdf_functional" a functional of the whole
# density, "joint" an inseparable function of both.
_STRUCTURE = {
    "ignorance": ("outcome_density",),
    "crps": ("pdf_functional", "joint"),
    "energy": ("pdf_functional", "joint"),
    "power": ("pdf_functional", "outcome_density"),
    "pseudospherical": ("joint",),
    "naive_linear": ("outcome_density",),
}


@dataclass(frozen=True)
class ScoreSpec:
    """A score family plus its parameter, validated on construction.

    ``is_local`` marks the strictly proper local rule: the ignorance
    score, which is the only proper rule whose value depends on the
    forecast solely through the density at the outcome.  (The improper
    naive linear score also only reads p(y); it exists purely as a
    propriety counterexample and is not flagged local.)
    """

    family: str
    alpha: Optional[float] = None
    beta: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown score family {self.family!r}")
        if self.family == "energy":
            if self.beta is None or not (0.0 < self.beta < 2.0):
                raise ValueError("energy score needs beta strictly between 0 and 2")
        elif self.family == "power":
            if self.alpha is None or not self.alpha > 1.0:
                raise ValueError("power score needs alpha > 1")
        elif self.family == "pseudospherical":
            if self.beta is None or not self.beta > 1.0:
                raise ValueError("pseudospherical score needs beta > 1")
        else:
            if self.alpha is not None or self.beta is not None:
                raise ValueError(f"{self.family} score takes no parameters")

    @property
    def is_strictly_proper(self) -> bool:
        return self.family != "naive_linear"

    @property
    def is_local(self) -> bool:
        return self.family == "ignorance"

    @property
    def term_structure(self) -> tuple[str, ...]:
        return _STRUCTURE[self.family]

    def label(self) -> str:
        if self.family == "energy":
            return f"energy(beta={self.beta:g})"
        if self.family == "power":
            return f"power(alpha={self.alpha:g})"
        if self.family == "pseudospherical":
            return f"pseudospherical(beta={self.beta:g})"
        return self.family

    def to_json(self) -> dict:
        out: dict = {"family": self.family}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.beta is not None:
            out["beta"] = self.beta
        return out

    @classmethod
    def from_json(cls, spec) -> "ScoreSpec":
        import json as _json
        if isinstance(spec, (str, bytes)):
            spec = _json.loads(spec)
        if not isinstance(spec, dict) or "family" not in spec:
            raise ValueError("score spec must be an object with a 'family' field")
        extra = set(spec) - {"family", "alpha", "beta"}
        if extra:
            raise ValueError(f"unknown score spec field {sorted(extra)[0]!r}")
        return cls(spec["family"],
                   alpha=spec.get("alpha"), beta=spec.get("beta"))


@dataclass(frozen=True)
class ScoreValue:
    """Score result: value, Monte-Carlo stderr when applicable, and an
    explicit flag for the infinite ignorance case."""

    value: float
    stderr: Optional[float] = None
    infinite: bool = False

    def __float__(self) -> float:
        return self.value


def _check_outcome(y) -> float:
    y = float(y)
    if not math.isfinite(y):
        raise ValueError("outcome must be finite")
    return y


def ignorance_bits(log_density, density_floor: Optional[float] = None):
    """-log2 of the density from its natural log; +inf where it is zero.

    ``density_floor`` (off by default) substitutes max(p, floor) for the
    density first.
    """
    if density_floor is not None:
        if density_floor <= 0.0:
            raise ValueError("density floor must be positive")
        log_density = np.maximum(log_density, math.log(float(density_floor)))
    return -log_density * _INV_LN2 + 0.0


def ignorance(d, y, *, density_floor: Optional[float] = None) -> ScoreValue:
    """Ignorance score -log2 p(y), in bits.

    A zero density yields an infinite score, reported explicitly rather
    than floored away.  ``density_floor`` (off by default) substitutes
    max(p(y), floor) for archive evaluation where a hard +infinity would
    swamp an aggregate; it must be requested explicitly.
    """
    y = _check_outcome(y)
    bits = float(ignorance_bits(float(d.log_pdf(y)), density_floor))
    if bits == math.inf:
        return ScoreValue(math.inf, infinite=True)
    return ScoreValue(bits)


def _abs_normal_mean(m, v):
    """E|X| for X ~ N(m, v), the folded-normal mean; exactly even in m."""
    m = np.abs(m)
    r = np.sqrt(2.0 * v)
    return m * erf(m / r) + r * _INV_SQRTPI * np.exp(-(m / r) ** 2)


def mixture_crps(y, w, mu, sigma) -> np.ndarray:
    """Closed-form CRPS of Gaussian mixtures, E|X - y| - E|X - X'| / 2.

    ``w``, ``mu`` and ``sigma`` have shape (..., K), one mixture per row
    (padding components carry weight 0), and ``y`` the leading shape.
    Both expectations reduce to folded-normal means, since differences
    of independent Gaussian components are Gaussian (Grimit, Gneiting,
    Berrocal & Johnson, QJRMS 2006).
    """
    y = np.asarray(y, dtype=float)[..., None]
    w, mu = np.asarray(w, dtype=float), np.asarray(mu, dtype=float)
    var = np.asarray(sigma, dtype=float) ** 2
    first = np.sum(w * _abs_normal_mean(y - mu, var), axis=-1)
    pair = (w[..., :, None] * w[..., None, :]
            * _abs_normal_mean(mu[..., :, None] - mu[..., None, :],
                               var[..., :, None] + var[..., None, :]))
    return first - 0.5 * np.sum(pair, axis=(-2, -1))


def histogram_crps(y, breaks, masses) -> np.ndarray:
    """Exact CRPS of histograms, integrated cell by cell.

    ``breaks`` has shape (..., B+1) and ``masses`` (..., B), padded as for
    ``histogram_pdf``.  The cdf is linear on each cell, so the integral
    of F^2 left of the outcome and of (1 - F)^2 right of it is
    width * (F_a^2 + F_a F_b + F_b^2) / 3 per piece; an outcome outside
    the support adds its distance to the support.
    """
    y = np.asarray(y, dtype=float)[..., None]
    breaks = np.asarray(breaks, dtype=float)
    masses = np.asarray(masses, dtype=float)
    a, b = breaks[..., :-1], breaks[..., 1:]
    f_hi = np.cumsum(masses, axis=-1)
    f_lo = np.concatenate([np.zeros_like(f_hi[..., :1]), f_hi[..., :-1]],
                          axis=-1)
    c = np.clip(y, a, b)
    width = b - a
    f_c = f_lo + np.divide(masses * (c - a), width,
                           out=np.zeros(np.broadcast(c, width).shape),
                           where=width > 0.0)
    g_c, g_hi = 1.0 - f_c, 1.0 - f_hi
    cells = ((c - a) * (f_lo * f_lo + f_lo * f_c + f_c * f_c)
             + (b - c) * (g_c * g_c + g_c * g_hi + g_hi * g_hi)) / 3.0
    outside = (np.maximum(breaks[..., 0] - y[..., 0], 0.0)
               + np.maximum(y[..., 0] - breaks[..., -1], 0.0))
    return np.sum(cells, axis=-1) + outside


def crps(d, y, *, abs_tol: float = 1e-10, rel_tol: float = 1e-9) -> ScoreValue:
    """Continuous ranked probability score.

    Gaussian mixtures and histograms use their closed forms
    (``mixture_crps``, ``histogram_crps``).  Any other density (a
    pushforward) is integrated by adaptive quadrature: the integrand
    (cdf(x) - step(x - y))^2 is split at the outcome so no panel
    straddles the step, over the forecast's truncated support extended
    to include the outcome, beyond which the integrand is zero.
    """
    y = _check_outcome(y)
    if isinstance(d, GaussianMixture):
        return ScoreValue(float(mixture_crps(y, d.weights, d.means,
                                             d.stddevs)))
    if isinstance(d, PiecewiseUniform):
        return ScoreValue(float(histogram_crps(y, d.breaks, d.masses)))
    lo, hi = d.support()
    lo = min(lo, y)
    hi = max(hi, y)
    seeds = d.quad_seed_points()
    total = 0.0
    if y > lo:
        total += integrate(lambda x: np.asarray(d.cdf(x), dtype=float) ** 2,
                           lo, y, abs_tol=abs_tol / 2, rel_tol=rel_tol,
                           seed_points=seeds).value
    if hi > y:
        total += integrate(
            lambda x: (np.asarray(d.cdf(x), dtype=float) - 1.0) ** 2,
            y, hi, abs_tol=abs_tol / 2, rel_tol=rel_tol,
            seed_points=seeds).value
    return ScoreValue(total)


def crps_gaussian_exact(mu: float, sigma: float, y: float) -> float:
    """Closed-form CRPS of a single Gaussian forecast.

    sigma * (z*(2*Phi(z)-1) + 2*phi(z) - 1/sqrt(pi)) with z=(y-mu)/sigma,
    which is ``mixture_crps`` with one component.
    """
    if sigma <= 0.0:
        raise ValueError("stddev must be positive")
    return float(mixture_crps(y, [1.0], [mu], [sigma]))


def energy_score(d, y, beta: float, *, seed: int, n: int = 1_000_000) -> ScoreValue:
    """Monte-Carlo energy score for beta in (0, 2).

    Uses paired independent streams x, x' from the forecast; each draw
    contributes |x - y|^beta - |x - x'|^beta / 2, whose mean is the
    score and whose sample variance yields the reported stderr.  The
    seed is mandatory: there is no implicit entropy anywhere in the
    package.
    """
    y = _check_outcome(y)
    beta = float(beta)
    if not (0.0 < beta < 2.0):
        raise ValueError("energy score needs beta strictly between 0 and 2")
    if n < 10_000:
        raise ValueError("energy score needs at least 10000 draws")
    if seed is None:
        raise ValueError("energy score requires an explicit seed")
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    s1, s2 = ss.spawn(2)
    x = d.sample(s1, n)
    xp = d.sample(s2, n)
    contrib = np.abs(x - y) ** beta - 0.5 * np.abs(x - xp) ** beta
    value = float(np.mean(contrib))
    stderr = float(np.std(contrib, ddof=1) / math.sqrt(n))
    return ScoreValue(value, stderr=stderr)


def power_rule(p, norm, alpha: float):
    """-alpha p^(alpha-1) + (alpha-1) norm, from the density at the outcome
    and the integral of p^alpha."""
    return -alpha * p ** (alpha - 1.0) + (alpha - 1.0) * norm


def pseudospherical_rule(p, norm, beta: float):
    """-(p / norm^(1/beta))^(beta-1), exactly 0 where p is 0."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = -(p ** (beta - 1.0)) / norm ** ((beta - 1.0) / beta)
    return np.where(p > 0.0, value, 0.0)


def power_score(d, y, alpha: float) -> ScoreValue:
    """Power score -alpha p(y)^(alpha-1) + (alpha-1) integral(p^alpha)."""
    y = _check_outcome(y)
    alpha = float(alpha)
    if not alpha > 1.0:
        raise ValueError("power score needs alpha > 1")
    p = float(d.pdf(y))
    return ScoreValue(float(power_rule(p, lp_norm_integral(d, alpha), alpha)))


def pseudospherical_score(d, y, beta: float) -> ScoreValue:
    """Pseudospherical score -(p(y) / ||p||_beta)^(beta-1).

    ``||p||_beta`` is the L^beta norm (integral(p^beta))^(1/beta).  This
    normalisation is what makes the family strictly proper (the Holder
    equality case); at beta = 2 it is the familiar spherical score
    -p(y)/sqrt(integral(p^2)).  Negative wherever the forecast assigns
    density, exactly 0 at a zero-density outcome.
    """
    y = _check_outcome(y)
    beta = float(beta)
    if not beta > 1.0:
        raise ValueError("pseudospherical score needs beta > 1")
    p = float(d.pdf(y))
    if p <= 0.0:
        return ScoreValue(0.0)
    norm = lp_norm_integral(d, beta)
    return ScoreValue(float(pseudospherical_rule(p, norm, beta)))


def naive_linear_score(d, y) -> ScoreValue:
    """Improper linear score -p(y); the propriety negative control."""
    y = _check_outcome(y)
    return ScoreValue(-float(d.pdf(y)))


def score(spec: ScoreSpec, d, y, *, seed: Optional[int] = None,
          n: int = 1_000_000,
          density_floor: Optional[float] = None) -> ScoreValue:
    """Evaluate any score family from its spec.

    ``seed``/``n`` apply to the Monte-Carlo energy family only;
    ``density_floor`` to ignorance only.
    """
    if spec.family == "ignorance":
        return ignorance(d, y, density_floor=density_floor)
    if spec.family == "crps":
        return crps(d, y)
    if spec.family == "energy":
        if seed is None:
            raise ValueError("energy score requires an explicit seed")
        return energy_score(d, y, spec.beta, seed=seed, n=n)
    if spec.family == "power":
        return power_score(d, y, spec.alpha)
    if spec.family == "pseudospherical":
        return pseudospherical_score(d, y, spec.beta)
    if spec.family == "naive_linear":
        return naive_linear_score(d, y)
    raise ValueError(f"unknown score family {spec.family!r}")


def crps_outcome_derivative(d, y) -> float:
    """Sensitivity of the CRPS to the outcome: 2*cdf(y) - 1.

    Negative below the forecast median, positive above it; its zero is
    the outcome the CRPS likes best, which depends on the forecast only
    through the median's location.
    """
    y = _check_outcome(y)
    return 2.0 * float(d.cdf(y)) - 1.0
