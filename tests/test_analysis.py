import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl.analysis import (
    _expected_scores,
    _l1_distances,
    FlipReport,
    SkillCurve,
    construct_witness,
    crps_argmin_outcome,
    expected_energy_score_exact,
    expected_score,
    find_preference_flip,
    gaussian_abs_moment,
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
from psl.distributions import (
    PiecewiseUniform,
    affine_transform,
    cubic_transform,
    exp_transform,
    gaussian,
    gaussian_mixture,
    pushforward,
    uniform,
)
from psl.quadrature import integrate
from psl.scores import ScoreSpec

import oracles


STD = gaussian(0.0, 1.0)
IGN = ScoreSpec("ignorance")
CRPS = ScoreSpec("crps")
PLS = ScoreSpec("power", alpha=2.0)
SPS = ScoreSpec("pseudospherical", beta=2.0)


# ---------------------------------------------------------------------------
# expected and relative scores
# ---------------------------------------------------------------------------

def test_expected_ignorance_is_entropy():
    got = expected_score(IGN, STD, STD).value
    assert got == pytest.approx(oracles.entropy_bits(1.0), abs=1e-9)


def test_expected_ignorance_cross_entropy():
    got = expected_score(IGN, gaussian(0.0, 2.0), STD).value
    assert got == pytest.approx(2.5060849448472795, abs=1e-9)


def test_expected_crps_closed_forms():
    self_score = expected_score(CRPS, STD, STD).value
    assert self_score == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-9)
    wide = expected_score(CRPS, gaussian(0.0, 2.0), STD).value
    assert wide == pytest.approx(oracles.expected_crps_gaussians(0, 2, 0, 1),
                                 abs=1e-9)
    assert wide == pytest.approx(0.6557449490572584, abs=1e-9)


def test_expected_power_matches_nested_quad():
    # single-integral identity vs a brute-force nested oracle
    d, q = gaussian(0.5, 1.4), gaussian(0.0, 1.0)
    got = expected_score(ScoreSpec("power", alpha=2.5), d, q).value
    alpha = 2.5
    norm = oracles.gauss_l_alpha(1.4, alpha)
    ref = oracles.expected_score_quad(
        lambda y: (-alpha * oracles.mixture_pdf([(1, 0.5, 1.4)], y)
                   ** (alpha - 1.0) + (alpha - 1.0) * norm),
        lambda y: oracles.phi(y), -9.0, 9.0)
    assert got == pytest.approx(ref, abs=1e-9)


def test_expected_ignorance_infinite_when_support_mismatch():
    v = expected_score(IGN, uniform(0.0, 1.0), uniform(0.0, 2.0))
    assert v.infinite


def test_relative_antisymmetry_is_exact():
    a, b = gaussian(0.0, 2.0), gaussian(0.3, 0.7)
    ab = relative_expected_score(CRPS, a, b, STD).value
    ba = relative_expected_score(CRPS, b, a, STD).value
    assert ab == -ba  # bitwise, not approx


def test_relative_ignorance_sigma_two():
    a, b = inverse_width_pair(2.0)
    got = relative_expected_score(IGN, a, b, STD).value
    ref = (oracles.cross_entropy_bits(0, 2, 0, 1)
           - oracles.cross_entropy_bits(0, 0.5, 0, 1))
    assert got == pytest.approx(ref, abs=1e-9)
    assert got == pytest.approx(-0.70506, abs=1e-4)


def test_energy_expected_score_mc_stream():
    v = relative_expected_score(ScoreSpec("energy", beta=1.0),
                                gaussian(0.0, 2.0), gaussian(0.0, 0.5),
                                STD, seed=99, n=200_000)
    assert v.stderr is not None and v.stderr > 0.0
    ref = (oracles.expected_crps_gaussians(0, 2, 0, 1)
           - oracles.expected_crps_gaussians(0, 0.5, 0, 1))
    assert abs(v.value - ref) < 4.0 * v.stderr


# ---------------------------------------------------------------------------
# skill curve
# ---------------------------------------------------------------------------

def test_skill_curve_signs_and_symmetry():
    curve = inverse_width_skill_curve([1.2, 1.8, 2.5])
    assert all(v < 0 for v in curve.columns["ign"])
    assert all(v < 0 for v in curve.columns["pls"])
    assert all(v > 0 for v in curve.columns["crps"])
    assert all(abs(v) < 1e-6 for v in curve.columns["sps"])
    assert curve.columns["ign_over_20"] == tuple(
        v / 20.0 for v in curve.columns["ign"])


def test_skill_curve_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        SkillCurve(sigma=(2.0, 1.0), columns={"ign": (0.0, 0.0)})
    with pytest.raises(ValueError, match="length"):
        SkillCurve(sigma=(1.5, 2.0), columns={"ign": (0.0,)})
    with pytest.raises(ValueError):
        inverse_width_skill_curve([0.9, 1.5])


def test_skill_curve_rows_order():
    curve = inverse_width_skill_curve([1.5, 2.0])
    names = curve.column_names()
    assert names == ("ign", "ign_over_20", "crps", "pls", "sps")
    rows = list(curve.rows())
    assert rows[0][0] == 1.5 and len(rows[0]) == 6


# ---------------------------------------------------------------------------
# propriety
# ---------------------------------------------------------------------------

def test_naive_linear_counterexample_margins():
    q = STD
    p = gaussian(0.0, 0.5)
    eq_p = expected_score(ScoreSpec("naive_linear"), p, q).value
    eq_q = expected_score(ScoreSpec("naive_linear"), q, q).value
    assert eq_p == pytest.approx(-0.356825, abs=1e-6)
    assert eq_q == pytest.approx(-0.282095, abs=1e-6)
    assert eq_p < eq_q  # the wrong forecast wins: impropriety


def test_propriety_check_flags_naive_linear():
    report = propriety_check(ScoreSpec("naive_linear"), n_pairs=6, seed=1)
    assert not report.passed
    first = report.violations[0]
    assert first.margin == pytest.approx(-0.0747300314566772, abs=1e-9)
    assert "preferred a wrong forecast" in first.reason
    payload = json.dumps(report.to_json())
    assert "violations" in payload


@pytest.mark.parametrize("spec", [
    IGN, CRPS, PLS, SPS,
    ScoreSpec("power", alpha=3.0),
    ScoreSpec("pseudospherical", beta=3.0),
])
def test_proper_families_pass_small_run(spec):
    report = propriety_check(spec, n_pairs=8, seed=4)
    assert report.passed, [f.reason for f in report.violations]
    assert report.min_margin >= -1e-7


def test_propriety_check_of_the_truth_alone():
    # no candidate but the truth: nothing left to integrate
    for pairs in ([(STD, [STD])], [(uniform(0.0, 1.0), [])]):
        report = propriety_check(IGN, pairs=pairs)
        assert report.passed and len(report.findings) == 1
        assert (report.findings[0].margin, report.findings[0].l1) == (0.0, 0.0)


def test_propriety_check_energy_uses_closed_form():
    report = propriety_check(ScoreSpec("energy", beta=1.5), n_pairs=6,
                             seed=9)
    assert report.passed


def test_propriety_check_energy_needs_mixtures():
    with pytest.raises(ValueError, match="closed form"):
        propriety_check(ScoreSpec("energy", beta=1.0),
                        pairs=[(STD, [uniform(-1.0, 1.0)])])


def test_expected_crps_of_mixtures_needs_no_quadrature(monkeypatch):
    import psl

    calls = []
    for name in ("quadrature", "distributions", "scores", "analysis"):
        module = getattr(psl, name)
        if hasattr(module, "integrate"):
            real = module.integrate

            def counted(*args, _real=real, **kw):
                calls.append(args)
                return _real(*args, **kw)
            monkeypatch.setattr(module, "integrate", counted)
    f = gaussian_mixture([(0.4, -1.0, 0.6), (0.6, 1.5, 1.1)])

    def run():
        assert expected_score(CRPS, f, STD).value > 0.0
        assert relative_expected_score(CRPS, f, STD, f).value < 0.0
        assert expected_energy_score_exact(f, STD, 0.5) > 0.0
    # no batched quadrature either, which is what expected_score uses
    assert _integrate_many_calls(monkeypatch, [run]) == [[]]
    assert calls == []


def _integrate_many_calls(monkeypatch, runs):
    """For each of ``runs``, the number of integrals of each
    ``integrate_many`` call it makes, also through ``integrate``."""
    import psl

    sizes = []
    real = psl.quadrature.integrate_many

    def counted(f, lo, hi, **kw):
        sizes.append(len(lo))
        return real(f, lo, hi, **kw)
    for module in (psl.quadrature, psl.distributions, psl.scores,
                   psl.analysis):
        if hasattr(module, "integrate_many"):
            monkeypatch.setattr(module, "integrate_many", counted)
    seen = []
    for run in runs:
        sizes.clear()
        run()
        seen.append(list(sizes))
    return seen


@pytest.mark.parametrize("spec,calls", [
    (CRPS, 1), (ScoreSpec("energy", beta=1.0), 1), (PLS, 1), (SPS, 1),
    (ScoreSpec("naive_linear"), 1), (IGN, 2),
    (ScoreSpec("power", alpha=3.0), 3),
    (ScoreSpec("pseudospherical", beta=1.5), 3),
], ids=lambda v: v.label() if isinstance(v, ScoreSpec) else str(v))
def test_propriety_check_calls_do_not_grow_with_the_pairs(monkeypatch, spec,
                                                          calls):
    # one batch of every L1 distance; ignorance adds one batch for its
    # mixture pairs, and exponents other than 2 one more for the mixture
    # norms; a return to integrating pair by pair grows tenfold
    seen = _integrate_many_calls(monkeypatch, [
        lambda n=n: propriety_check(spec, n_pairs=n, seed=3)
        for n in (20, 200)])
    assert [len(s) for s in seen] == [calls, calls]
    assert seen[0][-1] == 21 and seen[1][-1] == 201  # the L1s, last


def _histogram_pairs(n):
    """n histogram truths, each with a shifted histogram and an affine
    pushforward of itself as candidates."""
    pairs = []
    for i in range(n):
        c = 0.1 * i
        truth = PiecewiseUniform((c - 1.0, c, c + 0.5, c + 2.0),
                                 (0.3, 0.4, 0.3))
        pairs.append((truth, [
            PiecewiseUniform((c - 0.5, c + 0.5, c + 2.5), (0.6, 0.4)),
            pushforward(truth, affine_transform(1.2, 0.3))]))
    return pairs


@pytest.mark.parametrize("spec,calls", [
    (IGN, 2), (CRPS, 2), (ScoreSpec("power", alpha=3.0), 3),
], ids=lambda v: v.label() if isinstance(v, ScoreSpec) else str(v))
def test_propriety_check_calls_do_not_grow_with_histogram_pairs(monkeypatch,
                                                                spec, calls):
    # pairs that are not both Gaussian mixtures share the batches too: one
    # for the expected scores and one for the L1s, plus one for the norms
    # of the pushforwards at alpha = 3 (a histogram's is closed form); a
    # return to integrating pair by pair grows fourfold
    seen = _integrate_many_calls(monkeypatch, [
        lambda n=n: propriety_check(spec, pairs=_histogram_pairs(n))
        for n in (3, 12)])
    assert [len(s) for s in seen] == [calls, calls]
    assert seen[0][-1] == 6 and seen[1][-1] == 24  # the L1s, last


def test_batched_l1_equals_the_scalar_quadrature():
    # each batched L1 is the integral l1_distance computes alone, and
    # the integral integrate() computes on the same integrand, envelope
    # and tolerance (which misses the kinks at the crossings: the exact
    # crossing-point value differs by up to 3.4e-6 on these pairs)
    report = propriety_check(CRPS, n_pairs=200, seed=0)
    moved = [f for f in report.findings if f.candidate is not f.truth]
    assert len(moved) == 201
    for f in moved:
        p, q = f.candidate, f.truth
        lo = min(p.support()[0], q.support()[0])
        hi = max(p.support()[1], q.support()[1])
        seeds = sorted(set(p.quad_seed_points()) | set(q.quad_seed_points()))
        scalar = integrate(lambda x: np.abs(p.pdf(x) - q.pdf(x)), lo, hi,
                           abs_tol=1e-8, rel_tol=1e-8, seed_points=seeds)
        assert abs(f.l1 - scalar.value) <= 1e-15
        assert abs(f.l1 - l1_distance(p, q)) <= 1e-15


def test_propriety_findings_carry_their_error_estimates():
    ign = propriety_check(IGN, n_pairs=6, seed=2)
    crps = propriety_check(CRPS, n_pairs=6, seed=2)
    for a, b in zip(ign.findings, crps.findings):
        assert a.l1 == b.l1 and a.l1_error == b.l1_error
        if a.candidate is a.truth:
            assert (a.margin_error, a.l1_error) == (0.0, 0.0)
            continue
        assert 0.0 < a.l1_error <= 1e-8 * max(1.0, a.l1)
        assert b.margin_error == 0.0    # closed form
        single = len(a.truth.components) == len(a.candidate.components) == 1
        assert (a.margin_error == 0.0) == single
        assert a.margin_error <= 2e-9 * max(1.0, abs(a.margin))
    # pairs of other densities report their errors too.  Their integrand
    # is not a polynomial: a constant one (two uniforms) is integrated
    # exactly, and its estimate is rounding, 0 or 1e-16 by where its panel
    # sits in the batched Kronrod product
    odd = propriety_check(IGN, pairs=[(uniform(-1.0, 1.0), [
        gaussian_mixture([(0.5, -0.5, 0.6), (0.5, 0.7, 0.9)])])])
    assert odd.findings[1].margin_error > 0.0
    assert odd.findings[1].l1_error > 0.0
    assert "margin_error" not in json.dumps(ign.to_json())


def _histogram(lo, cells):
    breaks = lo + np.cumsum([0.0] + [w for w, _ in cells])
    masses = np.array([m for _, m in cells])
    return PiecewiseUniform(breaks, masses / math.fsum(masses))


_GAUSSIANS = st.builds(gaussian, st.floats(-1.0, 1.0), st.floats(0.3, 1.0))
_COMPONENT = st.tuples(st.floats(-1.5, 1.5), st.floats(0.3, 1.0))
_MIXTURES = st.builds(
    lambda w, a, b: gaussian_mixture([(w, *a), (1.0 - w, *b)]),
    st.floats(0.2, 0.8), _COMPONENT, _COMPONENT)
_HISTOGRAMS = st.builds(_histogram, st.floats(-2.0, 0.0), st.lists(
    st.tuples(st.floats(0.3, 1.5), st.floats(0.1, 1.0)),
    min_size=1, max_size=3))
_PUSHFORWARDS = st.builds(
    pushforward, st.one_of(_GAUSSIANS, _MIXTURES, _HISTOGRAMS),
    st.sampled_from([affine_transform(1.5, 0.5), affine_transform(-0.8, 0.2),
                     exp_transform()]))
_DENSITIES = st.one_of(_GAUSSIANS, _MIXTURES, _HISTOGRAMS, _PUSHFORWARDS)
# a histogram with a zero-mass gap at 0: infinite ignorance under N(0, 1)
_GAP = PiecewiseUniform((-1.0, -0.2, 0.2, 1.0), (0.5, 0.0, 0.5))


def _batch_row_is_lone_row(batch, lone):
    """A batched (value, error) agrees with its lone pair's within both
    error estimates plus rounding; an infinite value exactly."""
    if math.isinf(lone[0]):
        assert batch[0] == lone[0]
    else:
        assert abs(batch[0] - lone[0]) <= (batch[1] + lone[1]
                                           + 1e-14 * abs(lone[0]))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(_DENSITIES, _DENSITIES), max_size=4),
       at=st.integers(0, 4))
def test_mixed_batch_rows_equal_their_lone_pairs(pairs, at):
    # Gaussian mixtures, histograms and pushforwards of both in one batch:
    # every row is the pair computed alone.  Not bit for bit: the Kronrod
    # sums are one matrix-vector product per block of panels, which rounds
    # a panel by its position in the block (on 30 examples, 335 of 572
    # rows were bitwise equal and the rest within 7e-16 relative).
    at = min(at, len(pairs))
    pairs = pairs[:at] + [(_GAP, STD), (STD, gaussian(0.5, 0.8))] + pairs[at:]
    ps, qs = [p for p, _ in pairs], [q for _, q in pairs]
    for spec in (IGN, CRPS, ScoreSpec("power", alpha=3.0)):
        values, errors = _expected_scores(spec, ps, qs)
        for i, (p, q) in enumerate(pairs):
            lone = _expected_scores(spec, [p], [q])
            _batch_row_is_lone_row((values[i], errors[i]),
                                   (lone[0][0], lone[1][0]))
        if spec is IGN:
            # the gap flags its own row alone; the next row is finite
            assert values[at] == math.inf
            assert math.isfinite(values[at + 1])
    values, errors = _l1_distances(ps, qs)
    for i, (p, q) in enumerate(pairs):
        lone = _l1_distances([p], [q])
        _batch_row_is_lone_row((values[i], errors[i]),
                               (lone[0][0], lone[1][0]))
        assert l1_distance(p, q) == lone[0][0]


def test_expected_ignorance_flags_each_infinite_pair():
    got = expected_score(IGN, _GAP, STD)
    assert got.infinite and got.value == math.inf
    assert not expected_score(IGN, STD, _GAP).infinite
    values, _ = _expected_scores(IGN, [STD, _GAP, uniform(-1.0, 1.0)],
                                 [_GAP, STD, _GAP])
    assert values[1] == math.inf
    assert np.isfinite(values[[0, 2]]).all()


def test_l1_distance():
    assert l1_distance(STD, STD) == pytest.approx(0.0, abs=1e-9)
    assert l1_distance(uniform(0, 1), uniform(5, 6)) == pytest.approx(
        2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# energy closed form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,v,beta", [
    (0.0, 1.0, 1.0), (0.7, 2.0, 0.5), (-1.3, 0.25, 1.5), (2.0, 1.0, 1.9),
])
def test_gaussian_abs_moment(m, v, beta):
    assert gaussian_abs_moment(m, v, beta) == pytest.approx(
        oracles.abs_moment_quad(m, v, beta), rel=1e-9)


def test_expected_energy_exact_beta_one_equals_crps():
    f = gaussian_mixture([(0.4, -1.0, 0.6), (0.6, 1.5, 1.1)])
    exact = expected_energy_score_exact(f, STD, 1.0)
    via_quadrature = expected_score(CRPS, f, STD).value
    assert exact == pytest.approx(via_quadrature, abs=1e-10)


def test_expected_energy_exact_validation():
    with pytest.raises(ValueError):
        expected_energy_score_exact(STD, STD, 2.0)
    with pytest.raises(TypeError):
        expected_energy_score_exact(uniform(0, 1), STD, 1.0)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_verify_witness_power_worked_example():
    r = verify_witness(ScoreSpec("power", alpha=2.0),
                       power_pathology_pair()[0],
                       power_pathology_pair()[1], -5.0)
    assert r.verified
    assert r.s1.value == pytest.approx(0.563654262645, rel=1e-9)
    assert r.s2.value == pytest.approx(0.282094791774, rel=1e-9)
    assert r.ratio == pytest.approx(5.298e10, rel=1e-3)


def test_verify_witness_spherical_worked_example():
    a, b = spherical_pathology_pair()
    r = verify_witness(SPS, a, b, 1.5)
    assert r.verified
    assert r.ratio == pytest.approx(1.69797762822, rel=1e-9)
    assert r.s1.value == pytest.approx(-0.243854761306, rel=1e-9)
    assert r.s2.value == pytest.approx(-0.321132513088, rel=1e-9)


def test_verify_witness_infinite_ratio():
    a, b = median_pathology_pair()
    # B carries all the density at 0 yet scores worse
    r = verify_witness(CRPS, b, a, 0.0)
    assert r.verified
    assert r.ratio == pytest.approx(2.5923528e21, rel=1e-6)
    assert r.s1.value == pytest.approx(0.511684748863, rel=1e-9)
    assert r.s2.value == pytest.approx(0.471790520823, rel=1e-9)
    # a zero-density p2 gives an infinite ratio
    box = verify_witness(CRPS, uniform(0.0, 1.0), uniform(2.0, 3.0), 0.5)
    assert box.ratio == math.inf


def test_verify_witness_undefined_ratio():
    with pytest.raises(ValueError, match="undefined"):
        verify_witness(CRPS, uniform(0, 1), uniform(0, 1), 5.0)


def test_construct_witness_crps_infinite():
    r = construct_witness(CRPS, math.inf)
    assert r.verified and r.ratio == math.inf
    assert r.s1.value == pytest.approx(13.0 / 24.0, abs=1e-9)
    assert r.s2.value == pytest.approx(5.0 / 12.0, abs=1e-9)


def test_construct_witness_pseudospherical_r2():
    r = construct_witness(SPS, 2.0)
    assert r.verified
    assert r.y == pytest.approx(1.38164359541, abs=1e-6)
    assert round(r.y, 4) == 1.3816
    # the wide system is a 5x-scaled standard Gaussian
    assert r.p2.components[0].stddev == pytest.approx(5.0)
    assert r.s1.value == pytest.approx(-0.289195605601, rel=1e-8)
    assert r.s2.value == pytest.approx(-0.323330516459, rel=1e-8)


@pytest.mark.parametrize("family,param,ratios", [
    ("power", 1.5, (1.5, 10.0)),
    ("power", 3.0, (2.0, 100.0)),
    ("pseudospherical", 1.5, (1.5, 100.0)),
    ("pseudospherical", 3.0, (2.0, 10.0)),
])
def test_construct_witness_families(family, param, ratios):
    kw = {"alpha": param} if family == "power" else {"beta": param}
    for r in ratios:
        rep = construct_witness(ScoreSpec(family, **kw), r)
        assert rep.verified
        assert rep.ratio == pytest.approx(r, rel=1e-6)


def test_construct_witness_crps_finite_ratio():
    rep = construct_witness(CRPS, 100.0)
    assert rep.verified and rep.ratio >= 100.0


def test_construct_witness_energy():
    rep = construct_witness(ScoreSpec("energy", beta=0.5), 10.0,
                            seed=314, n=200_000)
    assert rep.verified
    assert rep.ratio == pytest.approx(10.0, rel=1e-6)


@pytest.mark.parametrize("spec", [IGN, ScoreSpec("naive_linear")],
                         ids=lambda s: s.label())
def test_construct_witness_needs_a_recipe(spec):
    with pytest.raises(ValueError, match="no witness construction for "
                                         f"family '{spec.family}'"):
        construct_witness(spec, 2.0)


def test_construct_witness_energy_needs_a_seed():
    with pytest.raises(ValueError, match="require an explicit seed"):
        construct_witness(ScoreSpec("energy", beta=1.0), 10.0)


def test_construct_witness_infeasible():
    with pytest.raises(ValueError, match="exceeds"):
        construct_witness(CRPS, 1e30)


def test_witness_report_json_encodes_infinity():
    r = construct_witness(CRPS, math.inf)
    payload = json.loads(json.dumps(r.to_json()))
    assert payload["ratio"] == "infinity"
    assert payload["verified"] is True


# ---------------------------------------------------------------------------
# transformation behavior
# ---------------------------------------------------------------------------

def test_ignorance_relative_invariant():
    a = gaussian_mixture([(0.6, -0.5, 0.7), (0.4, 1.2, 0.5)])
    b = gaussian(0.3, 1.1)
    for t in (affine_transform(2.0, -1.0), cubic_transform(),
              exp_transform()):
        for y in (-1.0, 0.2, 1.4):
            pre, post = transformed_relative_score(IGN, a, b, y, t)
            assert abs(pre - post) < 1e-9


def test_crps_scales_under_affine():
    a, b = gaussian(0.0, 1.0), gaussian(0.5, 2.0)
    pre, post = transformed_relative_score(CRPS, a, b, 0.8,
                                           affine_transform(3.0, 2.0))
    assert post / pre == pytest.approx(3.0, rel=1e-9)


def test_find_preference_flip_cubic():
    a, b = transform_flip_pair()
    rep = find_preference_flip(CRPS, a, b, cubic_transform(), (11.0, 12.5),
                               grid_points=301)
    assert rep is not None
    assert rep.relative_pre * rep.relative_post < 0.0
    assert rep.window[0] == pytest.approx(11.5, abs=1e-3)
    assert rep.window[1] > rep.window[0]
    # recompute soundness: the report's numbers regenerate from its fields
    pre, post = transformed_relative_score(rep.spec, rep.system_a,
                                           rep.system_b, rep.y,
                                           rep.transform)
    assert pre == pytest.approx(rep.relative_pre, rel=1e-12, abs=1e-15)
    assert post == pytest.approx(rep.relative_post, rel=1e-12, abs=1e-15)


def test_find_preference_flip_none_for_invariant_rule():
    a, b = transform_flip_pair()
    assert find_preference_flip(IGN, a, b, cubic_transform(),
                                (11.0, 12.5), grid_points=101) is None


def _scan_calls(monkeypatch, scan, sizes=(201, 2001)):
    """Integrand calls of the batched quadrature and density calls that
    ``scan(points)`` makes at each grid size; scalar integrals (one
    interval, as the flip bisection makes) are left out.  Blocks are made
    unbounded so a call count does not grow with the number of panels."""
    import psl

    monkeypatch.setattr(psl.quadrature, "_BLOCK_PANELS", 10 ** 9)
    real = psl.quadrature.integrate_many
    counts = {}

    def counted(f, lo, hi, **kw):
        def g(x, k):
            counts["integrand"] += len(lo) > 1
            return f(x, k)
        return real(g, lo, hi, **kw)
    monkeypatch.setattr(psl.scores, "integrate_many", counted)
    real_log_pdf = psl.distributions.GaussianMixture.log_pdf

    def log_pdf(self, x):
        counts["log_pdf"] += np.ndim(x) > 0
        return real_log_pdf(self, x)
    monkeypatch.setattr(psl.distributions.GaussianMixture, "log_pdf",
                        log_pdf)
    seen = []
    for points in sizes:
        counts.update(integrand=0, log_pdf=0)
        scan(points)
        seen.append(dict(counts))
    return seen


def test_flip_scan_calls_do_not_grow_with_the_grid(monkeypatch):
    # one score call per system and grid: a return to scoring one
    # outcome at a time makes the counts grow tenfold
    a, b = transform_flip_pair()
    small, large = _scan_calls(monkeypatch, lambda points: (
        find_preference_flip(CRPS, a, b, cubic_transform(), (10.0, 13.0),
                             grid_points=points),
        find_preference_flip(IGN, a, b, cubic_transform(), (10.0, 13.0),
                             grid_points=points)))
    assert small == large
    assert 0 < large["integrand"] <= 20
    assert large["log_pdf"] == 4    # both systems and both pushforwards


def test_relative_score_curve_calls_do_not_grow_with_the_grid(monkeypatch):
    a, b = transform_flip_pair()
    cube = cubic_transform()
    ta, tb = pushforward(a, cube), pushforward(b, cube)

    def scan(points):
        ys = np.linspace(10.0, 13.0, points)
        relative_score_curve(CRPS, ta, tb, cube.forward(ys))
        relative_score_curve(IGN, a, b, ys)
    small, large = _scan_calls(monkeypatch, scan)
    assert small == large
    assert 0 < large["integrand"] <= 20
    assert large["log_pdf"] == 2


def test_relative_score_curve_shape():
    a, b = power_pathology_pair()
    pts = relative_score_curve(PLS, a, b, [-5.0, -1.5, 0.0])
    assert len(pts) == 3
    assert pts[0][1] > 0.0   # left of -4: the dense system scores worse
    assert pts[1][1] > 0.0   # inside (-2, -1)


# ---------------------------------------------------------------------------
# median argmin
# ---------------------------------------------------------------------------

def test_crps_argmin_is_median_bimodal():
    a, b = median_pathology_pair()
    assert crps_argmin_outcome(a, (-3.0, 3.0)) == pytest.approx(0.0,
                                                                abs=1e-6)
    assert crps_argmin_outcome(b, (-2.0, 4.0)) == pytest.approx(1.0,
                                                                abs=1e-6)
    assert float(a.pdf(0.0)) < 1e-10  # the mass-free minimum


def test_crps_argmin_gaussian():
    assert crps_argmin_outcome(gaussian(5.0, 2.0), (0.0, 10.0)) == \
        pytest.approx(5.0, abs=1e-9)


def test_crps_argmin_requires_bracket():
    with pytest.raises(ValueError, match="bracket"):
        crps_argmin_outcome(STD, (5.0, 10.0))
