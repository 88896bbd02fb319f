"""Proper scoring rules for univariate density forecasts.

The package scores probabilistic forecasts (Gaussian mixtures, piecewise
uniforms, and their monotone transforms) with the ignorance, CRPS,
energy, power, and pseudospherical families, plus an improper linear
rule kept as a counterexample.  On top of the pointwise scores it
provides expected and relative scores under a truth density, numerical
propriety falsification, construction of density pairs that every
non-local rule misranks, transformation-invariance analysis, and
archive evaluation.  The ``psl`` console script exposes the same
operations from the shell.
"""

from .distributions import (
    GaussianComponent,
    GaussianMixture,
    PiecewiseUniform,
    Transform,
    TransformedDensity,
    affine_transform,
    cubic_transform,
    density_from_json,
    density_to_json,
    exp_transform,
    gaussian,
    gaussian_mixture,
    lp_norm_integral,
    pushforward,
    transform_from_json,
    uniform,
)
from .quadrature import (IntegrationResult, QuadratureError, expectation,
                         integrate, integrate_many)
from .scores import (
    FAMILIES,
    ScoreSpec,
    ScoreValue,
    crps,
    crps_gaussian_exact,
    crps_outcome_derivative,
    energy_score,
    gaussian_abs_moment,
    ignorance,
    naive_linear_score,
    power_score,
    pseudospherical_score,
    score,
)
from .analysis import (
    FlipReport,
    ProprietyFinding,
    ProprietyReport,
    SkillCurve,
    WitnessReport,
    construct_witness,
    crps_argmin_outcome,
    expected_energy_score_exact,
    expected_score,
    find_preference_flip,
    inverse_width_pair,
    inverse_width_skill_curve,
    l1_distance,
    median_pathology_pair,
    power_pathology_pair,
    propriety_check,
    relative_expected_score,
    relative_score_curve,
    spherical_pathology_pair,
    transform_flip_pair,
    transformed_relative_score,
    verify_witness,
)
from .archive import (
    EmpiricalScore,
    EvalReport,
    ForecastRecord,
    RelativeIgnorance,
    empirical_score,
    evaluate_archive,
    load_archive,
    load_archive_csv,
    relative_empirical_ignorance,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianComponent", "GaussianMixture", "PiecewiseUniform",
    "Transform", "TransformedDensity",
    "affine_transform", "cubic_transform", "exp_transform",
    "density_from_json", "density_to_json", "transform_from_json",
    "gaussian", "gaussian_mixture", "uniform", "pushforward",
    "lp_norm_integral",
    "IntegrationResult", "QuadratureError", "integrate", "integrate_many",
    "expectation",
    "FAMILIES", "ScoreSpec", "ScoreValue",
    "crps", "crps_gaussian_exact", "crps_outcome_derivative",
    "energy_score", "ignorance", "naive_linear_score", "power_score",
    "pseudospherical_score", "score",
    "SkillCurve", "WitnessReport", "FlipReport",
    "ProprietyFinding", "ProprietyReport",
    "expected_score", "relative_expected_score",
    "inverse_width_pair", "inverse_width_skill_curve",
    "propriety_check", "l1_distance",
    "gaussian_abs_moment", "expected_energy_score_exact",
    "construct_witness", "verify_witness",
    "relative_score_curve", "transformed_relative_score",
    "find_preference_flip", "crps_argmin_outcome",
    "median_pathology_pair", "power_pathology_pair",
    "spherical_pathology_pair", "transform_flip_pair",
    "ForecastRecord", "EmpiricalScore", "RelativeIgnorance", "EvalReport",
    "load_archive", "load_archive_csv",
    "empirical_score", "relative_empirical_ignorance", "evaluate_archive",
    "__version__",
]
