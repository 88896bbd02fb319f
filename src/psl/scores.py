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

``RULES`` is the single registry of the families: one ``Rule`` per
family holds its parameter and valid range, its propriety and locality
flags, whether it draws Monte-Carlo samples (and so needs a seed), how
it is evaluated pointwise, in expectation under a truth density (in
closed form on padded Gaussian-mixture rows where one exists, else by
one batched quadrature over pairs of densities of any kind), and over
the records of an archive, and its recipe for implausibility witnesses.
``ScoreSpec``, ``score``, ``analysis`` and ``archive`` read the table
instead of testing family names.

The CRPS of Gaussian mixtures and of histograms has closed forms,
evaluated by the broadcasting kernels ``mixture_crps`` and
``histogram_crps`` over parameter rows of shape (..., K); ``crps`` calls
them with one row and archive scoring with one row per record.  Mixture
CRPS, pointwise and expected, and the exact expected energy score are
one pair sum of Gaussian absolute moments, ``mixture_energy``, whose
beta = 1 moment needs only ``distributions.erf``; scipy's ``hyp1f1`` is
imported at the first moment of another exponent.  The
pointwise rules (``ignorance_bits``, ``power_rule``,
``pseudospherical_rule``) are written once over arrays and shared.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import (GaussianMixture, PiecewiseUniform,
                            component_pairs, densities_at, erf, gaussian,
                            gaussian_mixture, lp_norm_integral,
                            lp_norm_integrals, mixture_lp_integral,
                            mixture_overlap, single_gaussian)
from .quadrature import integrate_many

__all__ = [
    "FAMILIES", "MIN_DRAWS", "RULES", "Rule", "ScoreSpec", "ScoreValue",
    "ignorance", "crps", "crps_gaussian_exact", "energy_score",
    "power_score", "pseudospherical_score", "naive_linear_score",
    "score", "crps_outcome_derivative",
    "gaussian_abs_moment", "mixture_energy", "mixture_crps",
    "histogram_crps",
    "ignorance_bits", "power_rule", "pseudospherical_rule",
]

_INV_SQRTPI = 1.0 / math.sqrt(math.pi)
_INV_LN2 = 1.0 / math.log(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
MIN_DRAWS = 10_000  # fewest Monte-Carlo draws an energy estimate accepts
_CRPS_SIDE_TOL = 5e-11  # absolute tolerance of each side of the outcome
# Past |m| / sqrt(2 v) = 1e16, E|N(m, v)|^beta is |m|^beta in float64: the
# next term of its asymptotic series is beta (beta - 1) v / (2 m^2).
_MOMENT_TAIL = 1e16


def encode_number(x):
    """JSON-safe float: non-finite values become labelled strings."""
    x = float(x)
    if math.isfinite(x):
        return x
    if math.isnan(x):
        return "nan"
    return "infinity" if x > 0 else "-infinity"


def round9(x):
    """``encode_number`` at the 9 significant digits every table prints."""
    return encode_number(f"{float(x):.9g}")


@dataclass(frozen=True)
class Rule:
    """One score family's entry in ``RULES``.

    ``param`` names the family's parameter ("alpha", "beta" or None),
    valid on the open interval ``bounds``; a ``monte_carlo`` family draws
    samples and needs a seed.  The evaluators take the spec first:

    - ``pointwise(spec, d, y, seed, n, density_floor)`` scores one
      outcome or a 1-D array of them (see ``score``);
    - ``expected(spec, forecasts, truths, integral)`` is the mean score
      of each forecast under its truth, for two lists of densities of
      any kind, as an array: ``integral(f)`` integrates ``f(x, k)`` over
      the supports of pair ``k`` for every pair in one batch, and
      ``distributions.densities_at`` reads the densities of pair ``k``
      inside ``f``; a forecast with no density where its truth has mass
      has ignorance +inf.  A ``monte_carlo`` family's
      ``expected(spec, forecast, truth, seed, n)`` instead estimates one
      pair from seeded draws, as a ``ScoreValue`` with a stderr;
    - ``expected_exact(spec, p_cols, q_cols)`` is the mean score of each
      forecast row under its truth row, both padded ``(w, mu, sigma)``
      mixture rows (``distributions.mixture_rows``), in closed form; nan
      for the rows it has none for;
    - ``columnar(spec, columns, density_floor)`` scores one archive
      system (``archive._SystemColumns``) in one numpy pass, nan for the
      records no closed form reaches;
    - ``witness(spec, r, root)`` builds a witness ``(p1, p2, y)``: p1
      has at least r times p2's density at y yet scores worse.
      ``root(f, lo, hi)`` solves f = 0 on a sign-changing bracket; a
      ratio the recipe cannot reach raises ``ValueError``.

    They call score functions by module-global name at call time, so
    rebinding a global reaches every family.
    """

    pointwise: Callable
    expected: Callable
    expected_exact: Callable
    columnar: Optional[Callable] = None
    witness: Optional[Callable] = None
    param: Optional[str] = None
    bounds: tuple = (-math.inf, math.inf)
    local: bool = False
    strictly_proper: bool = True
    monte_carlo: bool = False


def _parameter(family: str, value) -> float:
    """A family's parameter as a float; ValueError unless it is a finite
    number inside the family's range."""
    rule = RULES[family]
    lo, hi = rule.bounds
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and lo < value < hi):
        return float(value)
    span = (f"> {lo:g}" if hi == math.inf
            else f"strictly between {lo:g} and {hi:g}")
    raise ValueError(f"{family} score needs a finite {rule.param} {span}")


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
        param = self.rule.param
        for field in ("alpha", "beta"):
            if field != param and getattr(self, field) is not None:
                takes = "no parameters" if param is None \
                    else f"{param}, not {field}"
                raise ValueError(f"{self.family} score takes {takes}")
        if param is not None:
            _parameter(self.family, getattr(self, param))

    @property
    def rule(self) -> Rule:
        return RULES[self.family]

    @property
    def is_strictly_proper(self) -> bool:
        return self.rule.strictly_proper

    @property
    def is_local(self) -> bool:
        return self.rule.local

    def label(self) -> str:
        param = self.rule.param
        if param is None:
            return self.family
        return f"{self.family}({param}={getattr(self, param):g})"

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


def _check_outcome(y):
    """A finite outcome as a float, or finite outcomes as a 1-D array."""
    ys = np.asarray(y, dtype=float)
    if ys.ndim > 1:
        raise ValueError("outcomes must be a number or a 1-D array")
    if not np.isfinite(ys).all():
        raise ValueError("outcome must be finite")
    return float(ys) if ys.ndim == 0 else ys


def _scored(y, values):
    """A ``ScoreValue`` for one outcome (flagged infinite at +inf), the
    float array of ``values`` for an array of them."""
    if isinstance(y, float):
        value = float(values)
        return ScoreValue(value, infinite=value == math.inf)
    return np.asarray(values, dtype=float)


def ignorance_bits(log_density, density_floor: Optional[float] = None):
    """-log2 of the density from its natural log; +inf where it is zero.

    ``density_floor`` (off by default) substitutes max(p, floor) for the
    density first; it must be a finite positive number.
    """
    if density_floor is not None:
        if not (math.isfinite(density_floor) and density_floor > 0.0):
            raise ValueError("density floor must be positive and finite")
        log_density = np.maximum(log_density, math.log(float(density_floor)))
    return -log_density * _INV_LN2 + 0.0


def ignorance(d, y, *, density_floor: Optional[float] = None):
    """Ignorance score -log2 p(y), in bits.

    A zero density yields an infinite score, reported explicitly rather
    than floored away.  ``density_floor`` (off by default) substitutes
    max(p(y), floor) for archive evaluation where a hard +infinity would
    swamp an aggregate; it must be requested explicitly.
    """
    y = _check_outcome(y)
    return _scored(y, ignorance_bits(d.log_pdf(y), density_floor))


def gaussian_abs_moment(m, v, beta: float):
    """E|X|^beta for X ~ N(m, v), v > 0, broadcasting over ``m`` and ``v``.

    With z = |m| / sqrt(2 v): the folded-normal mean
    |m| erf(z) + sqrt(2 v / pi) exp(-z^2) at beta = 1, with the C
    library's erf (``distributions.erf``); else
    (2 v)^(beta/2) Gamma((1 + beta)/2) / sqrt(pi) 1F1(-beta/2; 1/2; -z^2),
    with scipy's ``hyp1f1`` imported at the first such call, and
    |m|^beta past z = 1e16, so z^2 never overflows.  Every mixture CRPS
    and every energy score at beta = 1 takes the first form, so none of
    them loads scipy.
    """
    m = np.abs(m)
    v = np.asarray(v, dtype=float)
    if np.count_nonzero(v <= 0.0):
        raise ValueError("variance must be positive")
    r = np.sqrt(2.0 * v)
    z = m / r
    z2 = np.minimum(z, _MOMENT_TAIL) ** 2
    if beta == 1.0:
        return m * erf(z) + r * _INV_SQRTPI * np.exp(-z2)
    from scipy.special import hyp1f1
    body = ((2.0 * v) ** (0.5 * beta) * math.gamma(0.5 * (1.0 + beta))
            / math.sqrt(math.pi) * hyp1f1(-0.5 * beta, 0.5, -z2))
    return np.where(z > _MOMENT_TAIL, m ** beta, body)[()]


def _pair_moment(w, mu, sigma, w_b, mu_b, sigma_b, beta):
    """sum_ij w_i w_j E|N(mu_i - mu_j, sigma_i^2 + sigma_j^2)|^beta."""
    ww, d, v = component_pairs(w, mu, sigma, w_b, mu_b, sigma_b)
    return (ww * gaussian_abs_moment(d, v, beta)).sum(axis=(-2, -1))


def mixture_energy(w, mu, sigma, w_y, mu_y, sigma_y, beta: float):
    """E|X - Y|^beta - E|X - X'|^beta / 2, X and X' from mixture rows of
    shape (..., K), Y from rows (..., J): the expected energy score, at
    beta = 1 the expected CRPS (Gneiting & Raftery, JASA 2007, section 4);
    a point-mass Y (weight 1, sd 0) gives the pointwise score."""
    x = [np.asarray(a, dtype=float) for a in (w, mu, sigma)]
    y = [np.asarray(a, dtype=float) for a in (w_y, mu_y, sigma_y)]
    return _pair_moment(*x, *y, beta) - 0.5 * _pair_moment(*x, *x, beta)


def mixture_crps(y, w, mu, sigma) -> np.ndarray:
    """Closed-form CRPS of Gaussian mixtures, E|X - y| - E|X - X'| / 2.

    ``w``, ``mu`` and ``sigma`` have shape (..., K), one mixture per row
    (padding components carry weight 0), and ``y`` the leading shape.
    It is ``mixture_energy`` at beta = 1 with Y a point mass at ``y``
    (Grimit, Gneiting, Berrocal & Johnson, QJRMS 2006).
    """
    y = np.asarray(y, dtype=float)[..., None]
    return mixture_energy(w, mu, sigma, [1.0], y, [0.0], 1.0)


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


def crps(d, y):
    """Continuous ranked probability score.

    Gaussian mixtures and histograms use their closed forms
    (``mixture_crps``, ``histogram_crps``).  Any other density (a
    pushforward) is integrated by adaptive quadrature: the integrand
    (cdf(x) - step(x - y))^2 is split at the outcome so no panel
    straddles the step, over the forecast's truncated support extended
    to include the outcome, beyond which the integrand is zero.  An
    array of outcomes takes one ``integrate_many`` call per side.
    """
    y = _check_outcome(y)
    if isinstance(d, GaussianMixture):
        return _scored(y, mixture_crps(y, d.weights, d.means, d.stddevs))
    if isinstance(d, PiecewiseUniform):
        return _scored(y, histogram_crps(y, d.breaks, d.masses))
    ys = np.atleast_1d(y)
    lo, hi = d.support()
    seeds = d.quad_seed_points()
    total = np.zeros(len(ys))
    for side, a, b, step in ((ys > lo, lo, ys, 0.0), (ys < hi, ys, hi, 1.0)):
        if side.any():
            total[side] += integrate_many(
                lambda x, k: (np.asarray(d.cdf(x), dtype=float) - step) ** 2,
                np.broadcast_to(a, ys.shape)[side],
                np.broadcast_to(b, ys.shape)[side],
                abs_tol=_CRPS_SIDE_TOL, seed_points=seeds)[0]
    return _scored(y, total.reshape(np.shape(y)))


def crps_gaussian_exact(mu: float, sigma: float, y: float) -> float:
    """Closed-form CRPS of a single Gaussian forecast.

    sigma * (z*(2*Phi(z)-1) + 2*phi(z) - 1/sqrt(pi)) with z=(y-mu)/sigma,
    which is ``mixture_crps`` with one component.
    """
    if sigma <= 0.0:
        raise ValueError("stddev must be positive")
    return float(mixture_crps(y, [1.0], [mu], [sigma]))


def _energy_estimate(d, beta, seed, n, *, y=None, truth=None) -> ScoreValue:
    """Paired-stream Monte-Carlo energy score of the forecast ``d``.

    Independent streams x, x' from the forecast contribute
    |x - y|^beta - |x - x'|^beta / 2 per draw; the mean is the score and
    the sample variance gives the stderr.  The outcome is ``y``, or a
    third stream drawn from ``truth`` for the expected score.  An array
    of outcomes reuses the two streams for each outcome and gives the
    array of means.  The seed is mandatory: there is no implicit entropy
    anywhere in the package.
    """
    if n < MIN_DRAWS:
        raise ValueError(f"energy score needs at least {MIN_DRAWS} draws")
    if seed is None:
        raise ValueError("energy score requires an explicit seed")
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    streams = ss.spawn(2 if truth is None else 3)
    x = d.sample(streams[0], n)
    spread = 0.5 * np.abs(x - d.sample(streams[1], n)) ** beta
    if truth is not None:
        y = truth.sample(streams[2], n)
    elif not isinstance(y, float):
        return np.array([np.mean(np.abs(x - v) ** beta - spread) for v in y])
    contrib = np.abs(x - y) ** beta - spread
    value = float(np.mean(contrib))
    stderr = float(np.std(contrib, ddof=1) / math.sqrt(n))
    return ScoreValue(value, stderr=stderr)


def energy_score(d, y, beta: float, *, seed: int, n: int = 1_000_000):
    """Monte-Carlo energy score for beta in (0, 2); see ``_energy_estimate``."""
    y = _check_outcome(y)
    return _energy_estimate(d, _parameter("energy", beta), seed, n, y=y)


def power_rule(p, norm, alpha: float):
    """-alpha p^(alpha-1) + (alpha-1) norm, from the density at the outcome
    and the integral of p^alpha; numpy arithmetic, so one outcome rounds
    as it does inside an array."""
    p = np.asarray(p, dtype=float)
    return -alpha * p ** (alpha - 1.0) + (alpha - 1.0) * norm


def pseudospherical_rule(p, norm, beta: float):
    """-(p / norm^(1/beta))^(beta-1), exactly 0 where p is 0."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = -(p ** (beta - 1.0)) / norm ** ((beta - 1.0) / beta)
    return np.where(p > 0.0, value, 0.0)


def power_score(d, y, alpha: float):
    """Power score -alpha p(y)^(alpha-1) + (alpha-1) integral(p^alpha)."""
    y = _check_outcome(y)
    alpha = _parameter("power", alpha)
    return _scored(y, power_rule(d.pdf(y), lp_norm_integral(d, alpha), alpha))


def pseudospherical_score(d, y, beta: float):
    """Pseudospherical score -(p(y) / ||p||_beta)^(beta-1).

    ``||p||_beta`` is the L^beta norm (integral(p^beta))^(1/beta).  This
    normalisation is what makes the family strictly proper (the Holder
    equality case); at beta = 2 it is the familiar spherical score
    -p(y)/sqrt(integral(p^2)).  Negative wherever the forecast assigns
    density, exactly 0 at a zero-density outcome.
    """
    y = _check_outcome(y)
    beta = _parameter("pseudospherical", beta)
    p = np.asarray(d.pdf(y), dtype=float)
    # The norm is needed, and integrated, only where there is density.
    norm = lp_norm_integral(d, beta) if (p > 0.0).any() else 1.0
    return _scored(y, pseudospherical_rule(p, norm, beta))


def naive_linear_score(d, y):
    """Improper linear score -p(y); the propriety negative control."""
    y = _check_outcome(y)
    return _scored(y, -np.asarray(d.pdf(y), dtype=float))


def score(spec: ScoreSpec, d, y, *, seed: Optional[int] = None,
          n: int = 1_000_000, density_floor: Optional[float] = None):
    """Evaluate any score family from its spec, through its ``RULES`` entry.

    ``y`` is one outcome, scored into a ``ScoreValue``, or a 1-D array
    of outcomes, scored in one call into a float array (+inf marks a
    zero-density ignorance; Monte-Carlo stderrs are dropped).  Each
    entry of the array equals the ``ScoreValue`` of that outcome alone,
    up to the rounding of the batched density and quadrature kernels.
    ``seed``/``n`` apply to the Monte-Carlo energy family only;
    ``density_floor`` to ignorance only.
    """
    return spec.rule.pointwise(spec, d, y, seed, n, density_floor)


def crps_outcome_derivative(d, y) -> float:
    """Sensitivity of the CRPS to the outcome: 2*cdf(y) - 1.

    Negative below the forecast median, positive above it; its zero is
    the outcome the CRPS likes best, which depends on the forecast only
    through the median's location.
    """
    y = _check_outcome(y)
    return 2.0 * float(d.cdf(y)) - 1.0


# ---------------------------------------------------------------------------
# The rule table
# ---------------------------------------------------------------------------

def _expected_ignorance(spec, forecasts, truths, integral):
    """integral(-log2 p q) per pair; +inf for a pair whose forecast has
    no density where its truth has mass: the integrand writes 0 at such
    a point and flags that pair alone."""
    p, q = densities_at(forecasts), densities_at(truths)
    infinite = np.zeros(len(forecasts), dtype=bool)

    def f(x, k):
        dq, lp = q("pdf", x, k), p("log_pdf", x, k)
        none = lp == -np.inf
        if none.any():
            infinite[k[none & (dq > 0.0)]] = True
            lp = np.where(none, 0.0, lp)
        return -lp * dq * _INV_LN2
    value = integral(f)
    return np.where(infinite, np.inf, value)


def _expected_ignorance_exact(spec, p, q):
    """The Gaussian cross-entropy in bits where both rows are single
    Gaussians: E log p(Y) = -log(s sqrt(2 pi)) - (t^2 + (m - n)^2) / 2 s^2
    for Y ~ N(n, t^2) and p = N(m, s^2); nan for the other rows."""
    one_p, m, s = single_gaussian(*p)
    one_q, n, t = single_gaussian(*q)
    log_density = (-np.log(s * _SQRT2PI)
                   - (t * t + (n - m) ** 2) / (2.0 * s * s))
    return np.where(one_p & one_q, ignorance_bits(log_density), np.nan)


def _expected_crps(spec, forecasts, truths, integral):
    """integral((F_p - F_q)^2) + integral(F_q (1 - F_q)) per pair."""
    p, q = densities_at(forecasts), densities_at(truths)

    def f(x, k):
        fp, fq = p("cdf", x, k), q("cdf", x, k)
        return (fp - fq) ** 2 + fq * (1.0 - fq)
    return integral(f)


def _expected_density_rule(term: Callable, finish: Callable) -> Callable:
    """The ``expected`` evaluator of a rule that reads the forecast
    through p(y): the integral of term(spec, p) q per pair, completed by
    finish(spec, value, norm) with the rule's norm part, where norm(k)
    is the integral of p^k per forecast (one ``lp_norm_integrals``
    call)."""
    def expected(spec, forecasts, truths, integral):
        p, q = densities_at(forecasts), densities_at(truths)
        value = integral(lambda x, k: term(spec, p("pdf", x, k))
                         * q("pdf", x, k))
        return finish(spec, value, lambda k: lp_norm_integrals(forecasts, k))
    return expected


def _expected_at_two(rule: Callable, k: float, p, q) -> np.ndarray:
    """rule(integral(p q), integral(p^2), 2) per row pair, nan unless
    k = 2: a rule of p(y) that is linear in p(y), as the power and
    pseudospherical rules are at parameter 2, has that expectation."""
    if k != 2.0:
        return np.full(len(p[0]), np.nan)
    return rule(mixture_overlap(*p, *q), mixture_lp_integral(*p, 2.0), 2.0)


def _columnar_norm_rule(rule: Callable, columns, k: float) -> np.ndarray:
    """rule(p(y), integral(p^k), k) over an archive system; nan for the
    records whose integral has no closed form."""
    def kernel(stack):
        norm = stack.lp_integral(k)
        ok = ~np.isnan(norm)
        out = np.full(len(norm), np.nan)
        out[ok] = rule(stack.pdf(ok), norm[ok], k)
        return out
    return columns.stacked(kernel)


def _finite_ratio(r: float) -> float:
    if not (math.isfinite(r) and r > 1.0):
        raise ValueError("witness ratio must be a finite number above 1")
    return r


def _crps_witness(spec, r, root):
    """The offset bimodal pair: y = 0 sits at p2's median where p2 has
    essentially no density, while p1 piles density right on y but has
    its median one unit away.  The measured ratio (about 2.6e21, or
    exactly inf for the piecewise-uniform variant used when r = inf)
    dominates any requested finite r."""
    if math.isinf(r):
        p2 = PiecewiseUniform((-1.5, -0.5, 0.5, 1.5), (0.5, 0.0, 0.5))
        p1 = PiecewiseUniform((-0.5, 0.5, 1.5, 2.5), (0.5, 0.0, 0.5))
        return p1, p2, 0.0
    if not r > 1.0:
        raise ValueError("witness ratio must exceed 1")
    p2 = gaussian_mixture([(0.5, -1.0, 0.1), (0.5, 1.0, 0.1)])
    p1 = gaussian_mixture([(0.5, 0.0, 0.1), (0.5, 2.0, 0.1)])
    measured = float(p1.pdf(0.0)) / float(p2.pdf(0.0))
    if measured < r:
        raise ValueError(
            f"requested ratio {r:g} exceeds the bimodal construction's "
            f"density ratio {measured:.3g}")
    return p1, p2, 0.0


def _power_density_bound(alpha: float, sigma1: float) -> float:
    """Largest p1(y) for which the power score of a width-sigma1 Gaussian
    stays positive: (alpha-1)^(1/(alpha-1)) alpha^(-3/(2(alpha-1)))
    / (sqrt(2 pi) sigma1)."""
    e = 1.0 / (alpha - 1.0)
    return ((alpha - 1.0) ** e * alpha ** (-1.5 * e)) / (_SQRT2PI * sigma1)


def _power_witness(spec, r, root):
    """p1 = N(0, 1) evaluated where its density is half the positivity
    bound, p2 = N(y (1 - r), r^2), which makes p2(y) = p1(y) / r exactly
    and s2 = r^(1-alpha) s1 with s1 > 0."""
    r, alpha, sigma1 = _finite_ratio(r), spec.alpha, 1.0
    p_target = 0.5 * _power_density_bound(alpha, sigma1)
    if p_target == 0.0:
        raise ValueError(f"no power witness for alpha={alpha!r}: the "
                         "recipe's density bound underflows to 0")
    y = math.sqrt(-2.0 * math.log(p_target * _SQRT2PI * sigma1))
    return gaussian(0.0, sigma1), gaussian(y * (1.0 - r), r * sigma1), y


def _pseudospherical_witness(spec, r, root):
    """Equal means, sigma2 large enough that the wide forecast wins
    regardless of its density deficit at y; y then solves the ratio
    equation by bisection on the log ratio."""
    r, beta, sigma1 = _finite_ratio(r), spec.beta, 1.0
    # s1 > s2 at ratio r needs sigma2 > r^(beta/(beta-1)) sigma1; the
    # classic sigma2 > r^beta sigma1 condition is only sufficient for
    # beta >= 2, so take whichever exponent is larger plus headroom.
    exponent = max(beta, beta / (beta - 1.0))
    if exponent * math.log(r) > 700.0:
        raise ValueError(f"ratio {r:g} is infeasible for {spec.label()}: "
                         f"the width 1.25 r^{exponent:g} exceeds e^700")
    sigma2 = 1.25 * r ** exponent * sigma1
    log_r = math.log(r)
    slope = 0.5 * (1.0 / sigma1 ** 2 - 1.0 / sigma2 ** 2)

    def f(y):
        return math.log(sigma2 / sigma1) - slope * y * y - log_r
    hi = 1.0
    while f(hi) > 0.0:
        hi *= 2.0
    return gaussian(0.0, sigma1), gaussian(0.0, sigma2), root(f, 0.0, hi)


def _energy_witness(spec, r, root):
    """Two narrow Gaussians at distances 1 (p2) and 2 (p1) from y = 0;
    p1's width is solved by bisection so the tail ratio at y is exactly
    r, and its doubled distance costs roughly 2^beta against p2's 1."""
    r, y = _finite_ratio(r), 0.0
    p2 = gaussian(y - 1.0, 0.1)
    target = math.log(r * float(p2.pdf(y)))

    def g(s):
        return -math.log(s * _SQRT2PI) - 2.0 / (s * s) - target
    return gaussian(y - 2.0, root(g, 0.15, 1.9)), p2, y


RULES = {
    "ignorance": Rule(
        pointwise=lambda s, d, y, seed, n, floor: ignorance(
            d, y, density_floor=floor),
        expected=_expected_ignorance,
        expected_exact=_expected_ignorance_exact,
        columnar=lambda s, columns, floor: ignorance_bits(columns.log_pdf(),
                                                          floor),
        local=True),
    "crps": Rule(
        pointwise=lambda s, d, y, seed, n, floor: crps(d, y),
        expected=_expected_crps,
        expected_exact=lambda s, p, q: mixture_energy(*p, *q, 1.0),
        columnar=lambda s, columns, floor: columns.stacked(
            lambda stack: stack.crps()),
        witness=_crps_witness),
    "energy": Rule(
        pointwise=lambda s, d, y, seed, n, floor: energy_score(
            d, y, s.beta, seed=seed, n=n),
        expected=lambda s, forecast, truth, seed, n: _energy_estimate(
            forecast, s.beta, seed, n, truth=truth),
        expected_exact=lambda s, p, q: mixture_energy(*p, *q, s.beta),
        witness=_energy_witness,
        param="beta", bounds=(0.0, 2.0), monte_carlo=True),
    "power": Rule(
        pointwise=lambda s, d, y, seed, n, floor: power_score(d, y, s.alpha),
        expected=_expected_density_rule(
            lambda s, p: -s.alpha * p ** (s.alpha - 1.0),
            lambda s, value, norm: value + (s.alpha - 1.0) * norm(s.alpha)),
        expected_exact=lambda s, p, q: _expected_at_two(power_rule, s.alpha,
                                                        p, q),
        columnar=lambda s, columns, floor: _columnar_norm_rule(
            power_rule, columns, s.alpha),
        witness=_power_witness,
        param="alpha", bounds=(1.0, math.inf)),
    "pseudospherical": Rule(
        pointwise=lambda s, d, y, seed, n, floor: pseudospherical_score(
            d, y, s.beta),
        expected=_expected_density_rule(
            lambda s, p: -p ** (s.beta - 1.0),
            lambda s, value, norm: value / norm(s.beta) ** (
                (s.beta - 1.0) / s.beta)),
        expected_exact=lambda s, p, q: _expected_at_two(
            pseudospherical_rule, s.beta, p, q),
        columnar=lambda s, columns, floor: _columnar_norm_rule(
            pseudospherical_rule, columns, s.beta),
        witness=_pseudospherical_witness,
        param="beta", bounds=(1.0, math.inf)),
    "naive_linear": Rule(
        pointwise=lambda s, d, y, seed, n, floor: naive_linear_score(d, y),
        expected=_expected_density_rule(lambda s, p: -p,
                                        lambda s, value, norm: value),
        expected_exact=lambda s, p, q: -mixture_overlap(*p, *q),
        columnar=lambda s, columns, floor: columns.stacked(
            lambda stack: -stack.pdf()),
        strictly_proper=False),
}

FAMILIES = tuple(RULES)
