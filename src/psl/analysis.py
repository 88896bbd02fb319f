"""Expected scores, propriety checking, witnesses, and transformation flips.

This module holds the machinery that turns pointwise scores into
statements about forecast systems:

- ``expected_score`` / ``relative_expected_score``: the long-run mean
  score when outcomes are drawn from a known truth density, and the
  difference between two systems (negative favours the first).
- ``inverse_width_skill_curve``: relative expected scores for the
  classic pair N(0, sigma^2) versus N(0, 1/sigma^2) judged under a
  standard Gaussian truth, swept over sigma.
- ``propriety_check``: a falsification harness for the propriety
  inequality E_q[S(p)] >= E_q[S(q)] over sampled density pairs.
- ``construct_witness`` / ``verify_witness``: build and check concrete
  (p1, p2, y) triples where one forecast assigns r times the density of
  the other at the outcome yet receives the worse score.
- ``transformed_relative_score`` / ``find_preference_flip``: how score
  differences behave when both forecasts and the outcome are pushed
  through a monotone change of variables.
- ``crps_argmin_outcome``: the outcome that minimises the CRPS of a
  fixed forecast, which lands on the forecast median no matter how
  little density sits there.

Each family's expected score and witness recipe come from its entry in
``scores.RULES``.  For two Gaussian mixtures the rule's
``expected_exact`` gives the expected score in closed form where one
exists: the CRPS and energy score through the Gaussian-pair sum
``scores.mixture_energy``, the power and pseudospherical scores at
parameter 2 and the naive linear score through the overlap integral of
two mixtures, and the ignorance of two single Gaussians as their
cross-entropy.  The other cases reduce to a single integral over the
union of both supports: the CRPS expectation to
integral((F_p - F_q)^2) + integral(F_q (1 - F_q)), the rules that read
the forecast through p(y) to integral(g(p) q) finished with the rule's
norm; the test suite validates each identity against a directly nested
integral of the pointwise score.  Expected scores and L1 distances are
computed for lists of pairs of any density kinds at once (closed forms
on padded mixture rows, then one batched quadrature,
``quadrature.integrate_many``, for every pair left); ``expected_score``
and ``l1_distance`` are their one-pair cases, except that
``expected_score`` uses paired-stream Monte Carlo for the energy family.
``propriety_check`` draws nothing at random, so energy margins down at
1e-7 are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import (
    GaussianMixture,
    Transform,
    densities_at,
    density_envelopes,
    density_to_json,
    gaussian,
    gaussian_mixture,
    mixture_rows,
    pushforward,
)
from .quadrature import integrate_many
from .scores import (ScoreSpec, ScoreValue, _parameter, encode_number,
                     gaussian_abs_moment, mixture_energy, score)

__all__ = [
    "SkillCurve", "WitnessReport", "FlipReport",
    "ProprietyFinding", "ProprietyReport",
    "expected_score", "relative_expected_score",
    "inverse_width_skill_curve",
    "propriety_check", "default_propriety_pairs", "l1_distance",
    "expected_energy_score_exact", "gaussian_abs_moment",
    "verify_witness", "construct_witness",
    "relative_score_curve", "transformed_relative_score",
    "find_preference_flip", "sign_change_root",
    "crps_argmin_outcome",
    "median_pathology_pair", "power_pathology_pair",
    "spherical_pathology_pair", "transform_flip_pair",
    "inverse_width_pair",
]

_LOG_RATIO_TOL = 1e-9
_L1_TOL = 1e-8  # absolute and relative quadrature tolerance of l1_distance
STRICT_L1 = 0.05  # see ProprietyReport
STRICT_MARGIN = 1e-4


def _score_value_json(v: ScoreValue) -> dict:
    out = {"value": encode_number(v.value)}
    if v.stderr is not None:
        out["stderr"] = encode_number(v.stderr)
    if v.infinite:
        out["infinite"] = True
    return out


def _integrate_pairs(f, forecasts, truths, **tol):
    """``integrate_many`` of f(x, k) over the union of the supports of
    each pair k of densities, cut at the seed points of both:
    (values, error estimates)."""
    n = len(forecasts)
    if n == 0:
        return np.empty(0), np.empty(0)
    lo, hi, seeds = density_envelopes(list(forecasts) + list(truths))
    values, errors, _ = integrate_many(
        f, np.minimum(lo[:n], lo[n:]), np.maximum(hi[:n], hi[n:]),
        seed_points=np.concatenate([seeds[:n], seeds[n:]], axis=1), **tol)
    return values, errors


# ---------------------------------------------------------------------------
# Expected and relative expected scores
# ---------------------------------------------------------------------------

def _expected_scores(spec: ScoreSpec, forecasts, truths):
    """Mean score of each forecast under its truth, with the error
    estimate of its quadrature (0 for a closed form).

    Pairs of Gaussian mixtures are stacked into padded rows and scored by
    the rule's ``expected_exact`` in one call; every row left nan, of
    whatever density kinds, goes to the rule's ``expected``, one
    ``integrate_many`` call for all of them.  A Monte-Carlo family is
    refused there: its margins need the closed form.
    """
    rule = spec.rule
    values = np.full(len(forecasts), np.nan)
    errors = np.zeros(len(forecasts))
    mix = [i for i, (p, q) in enumerate(zip(forecasts, truths))
           if isinstance(p, GaussianMixture) and isinstance(q, GaussianMixture)]
    if mix:
        values[mix] = rule.expected_exact(
            spec, mixture_rows([forecasts[i] for i in mix]),
            mixture_rows([truths[i] for i in mix]))
    left = np.flatnonzero(np.isnan(values))
    if len(left):
        if rule.monte_carlo:
            raise ValueError(f"{spec.family} propriety margins need the "
                             "closed form, which takes Gaussian mixtures "
                             "only")
        ps = [forecasts[i] for i in left]
        qs = [truths[i] for i in left]

        def integral(f):
            out, errors[left] = _integrate_pairs(f, ps, qs)
            return out
        values[left] = rule.expected(spec, ps, qs, integral)
    return values, errors


def expected_score(spec: ScoreSpec, forecast, truth, *,
                   seed: Optional[int] = None,
                   n: int = 1_000_000) -> ScoreValue:
    """Mean score of ``forecast`` when outcomes are drawn from ``truth``.

    The one-pair case of ``_expected_scores``: the family's ``RULES``
    entry evaluates it in closed form (``expected_exact``) for two
    Gaussian mixtures where one exists, else by deterministic quadrature
    over the union of both supports.  The energy family instead draws
    ``n`` paired Monte-Carlo samples (two independent streams from the
    forecast, one from the truth) and reports a standard error; it
    requires an explicit ``seed``.
    """
    if spec.rule.monte_carlo:
        return spec.rule.expected(spec, forecast, truth, seed, n)
    value = float(_expected_scores(spec, [forecast], [truth])[0][0])
    return ScoreValue(value, infinite=value == math.inf)


def relative_expected_score(spec: ScoreSpec, system_a, system_b, truth, *,
                            seed: Optional[int] = None,
                            n: int = 1_000_000) -> ScoreValue:
    """expected_score(A) - expected_score(B); negative favours A.

    Swapping the two systems negates the value exactly, because the same
    two expectations are computed and subtracted in the other order.
    For the energy family the two Monte-Carlo estimates use independent
    streams derived from ``seed`` and the standard errors combine in
    quadrature.
    """
    sa = sb = None
    if spec.rule.monte_carlo and seed is not None:
        sa, sb = np.random.SeedSequence(seed).spawn(2)
    a = expected_score(spec, system_a, truth, seed=sa, n=n)
    b = expected_score(spec, system_b, truth, seed=sb, n=n)
    stderr = None
    if a.stderr is not None or b.stderr is not None:
        stderr = math.hypot(a.stderr or 0.0, b.stderr or 0.0)
    return ScoreValue(a.value - b.value, stderr=stderr,
                      infinite=a.infinite or b.infinite)


# ---------------------------------------------------------------------------
# The inverse-width skill curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SkillCurve:
    """Relative expected scores on a parameter grid, one column per rule."""

    sigma: tuple
    columns: dict

    COLUMN_ORDER = ("ign", "ign_over_20", "crps", "pls", "sps")

    def __post_init__(self):
        grid = tuple(float(s) for s in self.sigma)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("sigma grid must be strictly increasing")
        object.__setattr__(self, "sigma", grid)
        cols = {k: tuple(float(v) for v in vs)
                for k, vs in self.columns.items()}
        for k, vs in cols.items():
            if len(vs) != len(grid):
                raise ValueError(f"column {k!r} length does not match grid")
        object.__setattr__(self, "columns", cols)

    def column_names(self):
        known = [c for c in self.COLUMN_ORDER if c in self.columns]
        extra = sorted(set(self.columns) - set(known))
        return tuple(known) + tuple(extra)

    def rows(self):
        names = self.column_names()
        for i, s in enumerate(self.sigma):
            yield (s,) + tuple(self.columns[c][i] for c in names)


def inverse_width_pair(sigma: float):
    """The reciprocal-width Gaussian pair N(0, sigma^2), N(0, 1/sigma^2)."""
    sigma = float(sigma)
    if sigma <= 1.0:
        raise ValueError("sigma must exceed 1 so the two widths differ")
    return gaussian(0.0, sigma), gaussian(0.0, 1.0 / sigma)


def inverse_width_skill_curve(sigma_grid: Sequence[float]) -> SkillCurve:
    """Relative expected IGN/CRPS/PLS/SPS for the reciprocal-width pair.

    System A forecasts N(0, sigma^2), system B forecasts N(0, 1/sigma^2),
    and outcomes are drawn from a standard Gaussian.  The spherical score
    cannot separate the two systems (the sps column is zero to rounding
    for every sigma), the ignorance and quadratic scores prefer
    the wide system A, and the CRPS prefers the narrow system B.  The
    ign_over_20 column repeats ign scaled by 1/20 for overlay plots.
    """
    grid = [float(s) for s in sigma_grid]
    if any(s <= 1.0 for s in grid):
        raise ValueError("sigma grid must lie strictly above 1")
    truth = gaussian(0.0, 1.0)
    specs = {
        "ign": ScoreSpec("ignorance"),
        "crps": ScoreSpec("crps"),
        "pls": ScoreSpec("power", alpha=2.0),
        "sps": ScoreSpec("pseudospherical", beta=2.0),
    }
    cols = {name: [] for name in specs}
    for s in grid:
        a, b = inverse_width_pair(s)
        for name, sp in specs.items():
            cols[name].append(relative_expected_score(sp, a, b, truth).value)
    cols["ign_over_20"] = [v / 20.0 for v in cols["ign"]]
    return SkillCurve(sigma=tuple(grid),
                      columns={k: tuple(v) for k, v in cols.items()})


# ---------------------------------------------------------------------------
# Propriety falsification
# ---------------------------------------------------------------------------

def _l1_distances(ps, qs):
    """Integral of |p - q| over the union of both supports for each pair
    of densities, any kinds, in one ``integrate_many`` call:
    (values, error estimates)."""
    p, q = densities_at(ps), densities_at(qs)
    return _integrate_pairs(lambda x, k: np.abs(p("pdf", x, k)
                                                - q("pdf", x, k)),
                            ps, qs, abs_tol=_L1_TOL, rel_tol=_L1_TOL)


def l1_distance(p, q) -> float:
    """Integral of |p - q| over the union of both supports: the one-pair
    case of ``_l1_distances``."""
    return float(_l1_distances([p], [q])[0][0])


def expected_energy_score_exact(forecast: GaussianMixture,
                                truth: GaussianMixture,
                                beta: float) -> float:
    """Closed-form expected energy score for Gaussian mixtures.

    Both the cross term E|x - y|^beta (x from the forecast, y from the
    truth) and the self term reduce to absolute moments of Gaussians,
    because differences of independent mixture draws are again mixtures
    (``scores.mixture_energy``).  Used where Monte-Carlo noise would
    swamp the quantity of interest (propriety margins); the Monte-Carlo
    path in ``expected_score`` is cross-checked against this in the
    test suite.
    """
    if not isinstance(forecast, GaussianMixture) or not isinstance(truth, GaussianMixture):
        raise TypeError("closed-form expected energy score needs Gaussian mixtures")
    return float(mixture_energy(
        forecast.weights, forecast.means, forecast.stddevs,
        truth.weights, truth.means, truth.stddevs,
        _parameter("energy", beta)))


@dataclass(frozen=True)
class ProprietyFinding:
    """One (truth, candidate) margin from a propriety sweep.

    ``margin_error`` is the summed quadrature error estimate of the two
    expected scores behind ``margin`` (0 where both are closed forms),
    and ``l1_error`` that of ``l1``.  Neither is part of ``to_json``.
    """

    truth: object
    candidate: object
    margin: float
    l1: float
    violation: bool
    reason: Optional[str] = None
    margin_error: float = 0.0
    l1_error: float = 0.0

    def to_json(self) -> dict:
        out = {
            "truth": density_to_json(self.truth),
            "candidate": density_to_json(self.candidate),
            "margin": encode_number(self.margin),
            "l1_distance": encode_number(self.l1),
            "violation": self.violation,
        }
        if self.reason:
            out["reason"] = self.reason
        return out


@dataclass(frozen=True)
class ProprietyReport:
    """Outcome of a propriety falsification sweep.

    ``passed`` means no sampled pair violated the inequality; it is
    evidence, not proof.  A violation is either an outright negative
    margin (below ``-tol``) or a margin that stays below
    ``strict_margin`` although the candidate is more than ``strict_l1``
    away from the truth in L1, which a strictly proper rule should
    separate decisively (``STRICT_MARGIN``, ``STRICT_L1``).
    """

    spec: ScoreSpec
    tol: float
    strict_l1: float
    strict_margin: float
    findings: tuple

    @property
    def violations(self):
        return tuple(f for f in self.findings if f.violation)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def min_margin(self) -> float:
        margins = [f.margin for f in self.findings if f.l1 > 0.0]
        return min(margins) if margins else 0.0

    def to_json(self) -> dict:
        return {
            "score": self.spec.to_json(),
            "tol": self.tol,
            "strict_l1": self.strict_l1,
            "strict_margin": self.strict_margin,
            "pairs": len(self.findings),
            "min_margin": encode_number(self.min_margin),
            "passed": self.passed,
            "violations": [f.to_json() for f in self.violations],
        }


def _random_gaussian(rng) -> GaussianMixture:
    return gaussian(rng.uniform(-3.0, 3.0), rng.uniform(0.2, 5.0))


def _random_two_mixture(rng) -> GaussianMixture:
    w = rng.uniform(0.2, 0.8)
    return gaussian_mixture([
        (w, rng.uniform(-3.0, 3.0), rng.uniform(0.2, 5.0)),
        (1.0 - w, rng.uniform(-3.0, 3.0), rng.uniform(0.2, 5.0)),
    ])


def default_propriety_pairs(seed: int, n_pairs: int = 50):
    """Sampled (truth, [candidate]) pairs: Gaussians and two-component
    mixtures with means in [-3, 3] and widths in [0.2, 5]."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n_pairs):
        draw = _random_gaussian if i % 2 == 0 else _random_two_mixture
        pairs.append((draw(rng), [draw(rng)]))
    return pairs


def counterexample_pair():
    """The pair that exposes the naive linear score: a truth-matching
    forecast loses to a spuriously narrow one."""
    return gaussian(0.0, 1.0), [gaussian(0.0, 0.5)]


def propriety_check(spec: ScoreSpec, pairs=None, *,
                    n_pairs: int = 50, seed: int = 0,
                    tol: float = 1e-7) -> ProprietyReport:
    """Check E_q[S(p)] >= E_q[S(q)] over (truth, candidates) pairs.

    ``pairs`` is an iterable of (truth, candidate sequence); when
    omitted, the documented counterexample pair plus ``n_pairs`` sampled
    pairs (from ``default_propriety_pairs(seed)``) are used.  The truth
    itself is always evaluated as a candidate, so the equality case is
    exercised on every pair.  Violations are findings, not errors: the
    report carries them and ``passed`` reflects their absence.  ``tol``
    must be a finite number >= 0.

    All pairs are scored together: the self scores of the truths and
    the scores of the candidates in one ``_expected_scores`` call (closed
    forms on stacked Gaussian mixtures, one batched quadrature for the
    rest), and every L1 distance in one ``_l1_distances`` call.  Energy
    margins come from the closed form, so energy pairs must be Gaussian
    mixtures; nothing is drawn at random.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tol must be a finite number >= 0")
    if pairs is None:
        pairs = [counterexample_pair()] + default_propriety_pairs(seed, n_pairs)

    truths, rows = [], []  # rows: (pair index, candidate) per finding
    for truth, candidates in pairs:
        candidates = list(candidates)
        if not any(c is truth for c in candidates):
            candidates.insert(0, truth)
        rows += [(len(truths), c) for c in candidates]
        truths.append(truth)
    # Only the findings whose candidate is not the truth itself are
    # scored; the others have margin and distance 0.
    moved = np.array([c is not truths[i] for i, c in rows], dtype=bool)
    pair = np.array([i for i, _ in rows], dtype=np.intp)[moved]
    cands = [c for (_, c), m in zip(rows, moved) if m]
    under = [truths[i] for i in pair]
    means, mean_errors = _expected_scores(spec, truths + cands,
                                          truths + under)
    t = len(truths)
    margin, margin_error = np.zeros(len(rows)), np.zeros(len(rows))
    dist, dist_error = np.zeros(len(rows)), np.zeros(len(rows))
    margin[moved] = means[t:] - means[pair]
    margin_error[moved] = mean_errors[t:] + mean_errors[pair]
    dist[moved], dist_error[moved] = _l1_distances(cands, under)

    findings = []
    for j, (i, cand) in enumerate(rows):
        reason = None
        if margin[j] < -tol:
            reason = "margin below -tol: the rule preferred a wrong forecast"
        elif dist[j] > STRICT_L1 and margin[j] < STRICT_MARGIN:
            reason = ("margin below the strict threshold for a candidate "
                      "far from the truth")
        findings.append(ProprietyFinding(
            truth=truths[i], candidate=cand, margin=float(margin[j]),
            l1=float(dist[j]), violation=reason is not None, reason=reason,
            margin_error=float(margin_error[j]),
            l1_error=float(dist_error[j])))
    return ProprietyReport(spec=spec, tol=tol, strict_l1=STRICT_L1,
                           strict_margin=STRICT_MARGIN,
                           findings=tuple(findings))


# ---------------------------------------------------------------------------
# Implausibility witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    """A concrete (p1, p2, y) with its density ratio and both scores.

    ``ratio`` is the measured pdf1(y)/pdf2(y) (``inf`` when p2 vanishes
    at y while p1 does not).  ``verified`` means ratio > 1 and s1 > s2:
    the forecast assigning more density to the outcome scored worse.
    """

    spec: ScoreSpec
    p1: object
    p2: object
    y: float
    ratio: float
    s1: ScoreValue
    s2: ScoreValue
    verified: bool

    def to_json(self) -> dict:
        return {
            "score": self.spec.to_json(),
            "p1": density_to_json(self.p1),
            "p2": density_to_json(self.p2),
            "y": self.y,
            "ratio": encode_number(self.ratio),
            "s1": _score_value_json(self.s1),
            "s2": _score_value_json(self.s2),
            "verified": self.verified,
        }


def verify_witness(spec: ScoreSpec, p1, p2, y: float, *,
                   seed: Optional[int] = None,
                   n: int = 1_000_000) -> WitnessReport:
    """Measure the density ratio at ``y`` and both scores.

    Raises if both densities vanish at ``y`` (the ratio is undefined);
    reports ``ratio = inf`` when only the second one does.
    """
    y = float(y)
    d1 = float(p1.pdf(y))
    d2 = float(p2.pdf(y))
    if d1 == 0.0 and d2 == 0.0:
        raise ValueError("both densities vanish at the outcome; "
                         "the density ratio is undefined")
    ratio = math.inf if d2 == 0.0 else d1 / d2
    s1 = score(spec, p1, y, seed=seed, n=n)
    s2 = score(spec, p2, y, seed=seed, n=n)
    verified = ratio > 1.0 and s1.value > s2.value
    return WitnessReport(spec=spec, p1=p1, p2=p2, y=y, ratio=ratio,
                         s1=s1, s2=s2, verified=verified)


def construct_witness(spec: ScoreSpec, r: float, *,
                      seed: Optional[int] = None,
                      n: int = 1_000_000) -> WitnessReport:
    """Build a verified witness for the requested density ratio.

    The family's ``RULES`` entry holds the recipe (``Rule.witness``): a
    pair with p1 denser than p2 at the outcome, yet scoring worse.  The
    crps recipe takes the offset bimodal pair (its ratio, about 2.6e21
    or exactly inf for ``r = inf``, dominates any requested r); power
    and pseudospherical recipes take two Gaussians with the ratio exact;
    the energy recipe two narrow Gaussians whose width is solved for the
    ratio, scored by Monte Carlo, so a seed is required.  The log-ratio
    equations are bisected by ``sign_change_root`` to |f| <= 1e-9.

    Raises when the family has no recipe or the requested ratio is
    infeasible for it.
    """
    witness = spec.rule.witness
    if witness is None:
        raise ValueError(f"no witness construction for family "
                         f"{spec.family!r}")
    p1, p2, y = witness(spec, float(r), lambda f, lo, hi: sign_change_root(
        f, lo, hi, tol=0.0, f_tol=_LOG_RATIO_TOL))
    if spec.rule.monte_carlo and seed is None:
        raise ValueError(f"{spec.family} witnesses are scored by Monte "
                         "Carlo and require an explicit seed")
    report = verify_witness(spec, p1, p2, y, seed=seed, n=n)
    if not report.verified:
        raise RuntimeError(
            f"witness construction failed to verify for {spec.label()} "
            f"at ratio {float(r):g}")
    return report


# ---------------------------------------------------------------------------
# Transformation behaviour
# ---------------------------------------------------------------------------

def _relative(spec: ScoreSpec, system_a, system_b, y, seed, n):
    """score(A, y) - score(B, y) at one outcome (a float), or along an
    array of outcomes, each system scoring all of them in one call."""
    a = score(spec, system_a, y, seed=seed, n=n)
    b = score(spec, system_b, y, seed=seed, n=n)
    if isinstance(a, ScoreValue):
        return a.value - b.value
    with np.errstate(invalid="ignore"):  # inf - inf is nan, as for floats
        return a - b


def relative_score_curve(spec: ScoreSpec, system_a, system_b,
                         y_grid: Sequence[float], *,
                         seed: Optional[int] = None,
                         n: int = 1_000_000):
    """Pointwise score(A, y) - score(B, y) along a grid of outcomes, as
    (y, relative) pairs; each system scores the whole grid in one
    ``score`` call."""
    ys = np.array([float(y) for y in y_grid])
    relative = _relative(spec, system_a, system_b, ys, seed, n)
    return list(zip(ys.tolist(), relative.tolist()))


def transformed_relative_score(spec: ScoreSpec, system_a, system_b,
                               y: float, transform: Transform, *,
                               seed: Optional[int] = None,
                               n: int = 1_000_000):
    """Relative score before and after a monotone change of variables.

    Returns ``(pre, post)`` where ``pre`` compares the systems at ``y``
    and ``post`` compares their pushforwards at ``transform(y)``.
    """
    y = float(y)
    ystar = float(np.asarray(transform.forward(y), dtype=float))
    return (_relative(spec, system_a, system_b, y, seed, n),
            _relative(spec, pushforward(system_a, transform),
                      pushforward(system_b, transform), ystar, seed, n))


@dataclass(frozen=True)
class FlipReport:
    """A change of variables reversing a score's preference at ``y``.

    ``relative_pre * relative_post < 0`` by construction: the rule
    prefers one system on the original scale and the other after the
    transform.  ``window`` brackets the outcome interval on the original
    scale where the disagreement holds (its endpoints are the two zero
    crossings, located to the search tolerance).
    """

    spec: ScoreSpec
    system_a: object
    system_b: object
    transform: Transform
    y: float
    relative_pre: float
    relative_post: float
    window: tuple

    def to_json(self) -> dict:
        return {
            "score": self.spec.to_json(),
            "system_a": density_to_json(self.system_a),
            "system_b": density_to_json(self.system_b),
            "transform": self.transform.to_json(),
            "y": self.y,
            "relative_pre": encode_number(self.relative_pre),
            "relative_post": encode_number(self.relative_post),
            "window": [self.window[0], self.window[1]],
        }


def sign_change_root(f: Callable[[float], float], lo: float, hi: float, *,
                     tol: float = 1e-6, max_iter: int = 200,
                     f_tol: float = 0.0) -> float:
    """Bisect a scalar function's sign change on [lo, hi].

    Stops when the bracket is at most ``tol`` wide or at a midpoint where
    |f| <= ``f_tol`` (by default, where f is exactly 0), and otherwise
    after ``max_iter`` halvings.  The witness constructions solve their
    log-ratio equations with ``tol=0`` and ``f_tol=1e-9``.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError("function does not change sign on the bracket")
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= f_tol:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_preference_flip(spec: ScoreSpec, system_a, system_b,
                         transform: Transform, y_range, *,
                         grid_points: int = 2001, tol: float = 1e-6,
                         seed: Optional[int] = None,
                         n: int = 1_000_000) -> Optional[FlipReport]:
    """Search ``y_range`` for an outcome where the transform flips the
    preference between the systems.

    Scans a ``grid_points`` grid of pre/post relative scores (skipping
    outcomes where either is non-finite), scoring each of the two
    systems and their two pushforwards on the whole grid in one call,
    then bisects the boundaries of the first interval with
    pre * post < 0 down to ``tol`` one outcome at a time.  Returns
    None when no flip exists in the range, which for an invariant rule
    such as ignorance is the expected result.  It needs at least 2 grid
    points and a finite ``tol`` >= 0.
    """
    lo, hi = (float(y_range[0]), float(y_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("y range must be a finite increasing interval")
    if grid_points < 2:
        raise ValueError("the flip scan needs at least 2 grid points")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tol must be a finite number >= 0")
    ta = pushforward(system_a, transform)
    tb = pushforward(system_b, transform)

    def pre(y):
        return _relative(spec, system_a, system_b, y, seed, n)

    def post(y):
        ystar = np.asarray(transform.forward(y), dtype=float)
        return _relative(spec, ta, tb, ystar[()], seed, n)

    def product(y):
        return pre(y) * post(y)

    ys = np.linspace(lo, hi, grid_points)
    with np.errstate(invalid="ignore"):  # inf * 0 is nan, as for floats
        values = pre(ys) * post(ys)
    finite = np.isfinite(values)
    flipped = finite & (values < 0.0)
    if not np.any(flipped):
        return None
    i = int(np.argmax(flipped))

    # Walk outward to the nearest finite grid points where the product
    # is non-negative, then bisect each boundary.
    left = i
    while left > 0 and finite[left - 1] and values[left - 1] < 0.0:
        left -= 1
    right = i
    while right + 1 < grid_points and finite[right + 1] and values[right + 1] < 0.0:
        right += 1
    if left > 0 and finite[left - 1]:
        window_lo = sign_change_root(product, float(ys[left - 1]),
                                     float(ys[left]), tol=tol)
    else:
        window_lo = float(ys[left])
    if right + 1 < grid_points and finite[right + 1]:
        window_hi = sign_change_root(product, float(ys[right]),
                                     float(ys[right + 1]), tol=tol)
    else:
        window_hi = float(ys[right])

    y_flip = 0.5 * (window_lo + window_hi)
    rel_pre, rel_post = pre(y_flip), post(y_flip)
    if not (rel_pre * rel_post < 0.0):
        # The window midpoint can sit on a numerical boundary; fall back
        # to the grid point where the flip was strict.
        y_flip = float(ys[i])
        rel_pre, rel_post = pre(y_flip), post(y_flip)
    return FlipReport(spec=spec, system_a=system_a, system_b=system_b,
                      transform=transform, y=y_flip,
                      relative_pre=rel_pre, relative_post=rel_post,
                      window=(window_lo, window_hi))


# ---------------------------------------------------------------------------
# The CRPS argmin-over-outcomes operation
# ---------------------------------------------------------------------------

def crps_argmin_outcome(d, search_range) -> float:
    """Outcome minimising the CRPS of a fixed forecast density.

    The CRPS derivative in the outcome is 2 cdf(y) - 1, so the minimiser
    is the median, however small the density there.  The minimum's bowl
    can be flatter than any quadrature tolerance (depth scales with the
    density near the median), so this bisects the derivative's sign
    change rather than comparing score values: it is the forecast's
    plateau-symmetric ``bracketed_quantile(0.5)`` on the search range.

    ``search_range`` must bracket the median: cdf below one half on the
    left end and above it on the right.
    """
    lo, hi = (float(search_range[0]), float(search_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("search range must be a finite increasing interval")
    if not (d.cdf_minus(lo, 0.5) < 0.0 < d.cdf_minus(hi, 0.5)):
        raise ValueError("search range must bracket the median")
    return d.bracketed_quantile(0.5, lo, hi)


# ---------------------------------------------------------------------------
# Canonical demonstration pairs
# ---------------------------------------------------------------------------

def median_pathology_pair():
    """Offset bimodal mixtures: at y = 0, system B piles density on the
    outcome yet its CRPS is worse than system A's, whose density there
    is ~8e-22 but whose median is exactly 0."""
    a = gaussian_mixture([(0.5, -1.0, 0.1), (0.5, 1.0, 0.1)])
    b = gaussian_mixture([(0.5, 0.0, 0.1), (0.5, 2.0, 0.1)])
    return a, b


def power_pathology_pair():
    """Narrow N(-3, 0.5^2) versus wide N(3, 1): left of -4 the narrow
    system carries all the density yet the quadratic score prefers the
    wide one."""
    return gaussian(-3.0, 0.5), gaussian(3.0, 1.0)


def spherical_pathology_pair():
    """N(0, 1) versus N(0, 5^2): for outcomes around |y| = 1.5 the
    narrow system assigns ~1.7x the density but the spherical score
    prefers the wide one."""
    return gaussian(0.0, 1.0), gaussian(0.0, 5.0)


def transform_flip_pair():
    """Interleaved bimodal mixtures whose CRPS preference reverses under
    the cubic transform for outcomes just above 11.5."""
    a = gaussian_mixture([(0.5, 10.0, 0.1), (0.5, 12.0, 0.1)])
    b = gaussian_mixture([(0.5, 11.0, 0.1), (0.5, 13.0, 0.1)])
    return a, b
