import io
import json
import math

import numpy as np
import pytest

from psl.archive import (
    EvalReport,
    ForecastRecord,
    empirical_score,
    evaluate_archive,
    load_archive,
    load_archive_csv,
    relative_empirical_ignorance,
)
from psl.distributions import (
    PiecewiseUniform,
    cubic_transform,
    gaussian,
    gaussian_mixture,
    pushforward,
    uniform,
)
from psl.scores import ScoreSpec, score

import oracles


IGN = ScoreSpec("ignorance")
CRPS = ScoreSpec("crps")


def _uniform_lines():
    # system "half" spreads over [0, 2], system "full" concentrates on [0, 1]
    rec = {
        "forecasts": {
            "half": {"type": "piecewise_uniform", "breaks": [0.0, 2.0],
                     "masses": [1.0]},
            "full": {"type": "piecewise_uniform", "breaks": [0.0, 1.0],
                     "masses": [1.0]},
        },
        "outcome": 0.5,
    }
    return "\n".join(json.dumps(rec) for _ in range(3))


def test_load_archive_from_path_and_file_like(tmp_path):
    text = _uniform_lines()
    path = tmp_path / "archive.jsonl"
    path.write_text(text + "\n")
    records = load_archive(path)
    assert len(records) == 3
    assert records[0].line == 1
    also = load_archive(io.StringIO(text))
    assert len(also) == 3
    assert records[0].outcome == 0.5
    assert set(records[0].forecasts) == {"half", "full"}


def test_load_archive_skips_blank_lines_but_counts_them():
    text = "\n\n" + json.dumps({
        "forecasts": {"a": {"type": "gaussian_mixture",
                            "components": [
                                {"w": 1.0, "mu": 0.0, "sigma": -1.0}]}},
        "outcome": 0.0,
    })
    with pytest.raises(ValueError, match=r"stddev must be positive, line 3"):
        load_archive(io.StringIO(text))


@pytest.mark.parametrize("line,message", [
    ("{not json", r"invalid JSON .*line 1"),
    ("[1, 2]", r"record must be a JSON object, line 1"),
    ('{"forecasts": {}, "outcome": 1.0}',
     r"forecasts must be a non-empty object, line 1"),
    ('{"forecasts": {"a": {"type": "gaussian", "mean": 0, "stddev": 1}}, '
     '"outcome": "oops"}',
     r"outcome must be a finite number, line 1"),
    ('{"forecasts": {"a": {"type": "gaussian", "mean": 0, "stddev": 1}}, '
     '"outcome": 1.0, "extra": true}',
     r"unknown record field"),
])
def test_load_archive_error_reporting(line, message):
    with pytest.raises(ValueError, match=message):
        load_archive(io.StringIO(line))


def test_record_validation():
    with pytest.raises(ValueError, match="at least one forecast"):
        ForecastRecord(forecasts={}, outcome=0.0)
    with pytest.raises(ValueError, match="finite"):
        ForecastRecord(forecasts={"a": gaussian(0, 1)}, outcome=math.nan)


def test_csv_loader_round_trip():
    text = ("outcome,ens_mu,ens_sigma,clim_mu,clim_sigma\n"
            "0.5,0.0,1.0,0.2,3.0\n"
            "1.5,1.0,0.5,0.2,3.0\n")
    records = load_archive_csv(io.StringIO(text))
    assert len(records) == 2
    assert set(records[0].forecasts) == {"ens", "clim"}
    assert records[1].line == 3
    d = records[0].forecasts["ens"]
    assert float(d.pdf(0.0)) == pytest.approx(oracles.phi(0.0), rel=1e-12)


@pytest.mark.parametrize("text,message", [
    ("outcome,a_mu\n0.5,0.0\n", r"no matching a_sigma"),
    ("a_mu,a_sigma\n0.0,1.0\n", r"needs an 'outcome' column"),
    ("outcome,a_mu,a_sigma\n0.5,0.0,zero\n", r"line 2"),
    ("outcome,a_mu,a_sigma\n0.5,0.0,-1.0\n",
     r"stddev must be positive, line 2"),
])
def test_csv_loader_errors(text, message):
    with pytest.raises(ValueError, match=message):
        load_archive_csv(io.StringIO(text))


def test_empirical_ignorance_uniform_archive_exact():
    records = load_archive(io.StringIO(_uniform_lines()))
    half = empirical_score(IGN, records, "half")
    full = empirical_score(IGN, records, "full")
    assert half.value == 1.0
    assert full.value == 0.0
    assert half.count == 3 and half.infinite_count == 0
    rel = relative_empirical_ignorance(records, "full", "half")
    assert rel.bits == -1.0          # exactly, not approximately
    assert rel.probability_ratio == 2.0


def test_relative_ignorance_antisymmetry():
    records = load_archive(io.StringIO(_uniform_lines()))
    fwd = relative_empirical_ignorance(records, "half", "full")
    assert fwd.bits == 1.0
    assert fwd.probability_ratio == 0.5


def test_relative_ignorance_same_system_zero():
    records = load_archive(io.StringIO(_uniform_lines()))
    rel = relative_empirical_ignorance(records, "half", "half")
    assert rel.bits == 0.0 and rel.probability_ratio == 1.0


def test_empirical_score_infinite_outcomes_counted():
    records = [
        ForecastRecord({"u": uniform(0.0, 1.0)}, 0.5),
        ForecastRecord({"u": uniform(0.0, 1.0)}, 3.0),
        ForecastRecord({"u": uniform(0.0, 1.0)}, 7.0),
    ]
    out = empirical_score(IGN, records, "u")
    assert out.infinite
    assert math.isinf(out.value)
    assert out.infinite_count == 2


def test_empirical_score_density_floor():
    records = [
        ForecastRecord({"u": uniform(0.0, 1.0)}, 0.5),
        ForecastRecord({"u": uniform(0.0, 1.0)}, 3.0),
        ForecastRecord({"u": uniform(0.0, 1.0)}, 7.0),
    ]
    out = empirical_score(IGN, records, "u", density_floor=1e-6)
    floored = -math.log2(1e-6)
    assert out.value == pytest.approx((0.0 + 2 * floored) / 3, rel=1e-12)
    assert out.infinite_count == 0


def test_both_zero_relative_ignorance_is_an_error():
    records = [ForecastRecord(
        {"a": uniform(0.0, 1.0), "b": uniform(0.0, 1.0)}, 5.0)]
    with pytest.raises(ValueError, match=r"zero density.*line|undefined"):
        relative_empirical_ignorance(records, "a", "b")


def test_missing_system_and_empty_archive_errors():
    records = load_archive(io.StringIO(_uniform_lines()))
    with pytest.raises(ValueError, match=r"system 'ghost' is missing"):
        empirical_score(IGN, records, "ghost")
    with pytest.raises(ValueError, match="archive is empty"):
        empirical_score(IGN, [], "half")


def test_empirical_crps_mean_matches_oracle():
    records = [
        ForecastRecord({"g": gaussian(0.0, 1.0)}, y)
        for y in (-0.5, 0.0, 1.2)
    ]
    out = empirical_score(CRPS, records, "g")
    ref = sum(oracles.crps_gaussian_closed(0.0, 1.0, y)
              for y in (-0.5, 0.0, 1.2)) / 3.0
    assert out.value == pytest.approx(ref, abs=1e-9)


def test_empirical_energy_requires_seed_and_reproduces():
    spec = ScoreSpec("energy", beta=1.0)
    records = [ForecastRecord({"g": gaussian(0.0, 1.0)}, 0.3),
               ForecastRecord({"g": gaussian(0.0, 1.0)}, -0.8)]
    with pytest.raises(ValueError, match="seed"):
        empirical_score(spec, records, "g")
    a = empirical_score(spec, records, "g", seed=7, n=50_000)
    b = empirical_score(spec, records, "g", seed=7, n=50_000)
    assert a.value == b.value
    ref = (oracles.crps_gaussian_closed(0, 1, 0.3)
           + oracles.crps_gaussian_closed(0, 1, -0.8)) / 2.0
    assert a.value == pytest.approx(ref, abs=0.01)


def test_empirical_mean_is_permutation_invariant():
    rng = np.random.default_rng(5)
    ys = rng.normal(size=64)
    fwd = [ForecastRecord({"g": gaussian(0.0, 1.0)}, float(y)) for y in ys]
    rev = list(reversed(fwd))
    assert empirical_score(IGN, fwd, "g").value == \
        empirical_score(IGN, rev, "g").value


def test_evaluate_archive_report_shape():
    records = load_archive(io.StringIO(_uniform_lines()))
    report = evaluate_archive(records, [IGN, CRPS])
    payload = report.to_json()
    assert payload["records"] == 3
    assert set(payload["systems"]) == {"half", "full"}
    ign_half = payload["systems"]["half"]["ignorance"]
    assert ign_half["mean"] == 1.0
    assert ign_half["infinite_records"] == 0
    rel = payload["relative_ignorance"]
    assert len(rel) == 1
    assert rel[0]["bits"] in (1.0, -1.0)
    # round-trips through the json module
    json.loads(json.dumps(payload))


def test_evaluate_archive_subset_and_infinite_encoding():
    records = [ForecastRecord(
        {"u": uniform(0.0, 1.0), "g": gaussian(0.0, 1.0)}, 3.0)]
    report = evaluate_archive(records, [IGN], systems=["u"])
    payload = report.to_json()
    assert list(payload["systems"]) == ["u"]
    assert payload["systems"]["u"]["ignorance"]["mean"] == "infinity"
    assert payload["relative_ignorance"] == []


def test_evaluate_archive_unknown_system():
    records = load_archive(io.StringIO(_uniform_lines()))
    with pytest.raises(ValueError, match="missing"):
        evaluate_archive(records, [IGN], systems=["half", "nope"])


def test_empirical_ignorance_converges_to_cross_entropy():
    # archive scoring agrees with the closed-form expectation in the limit
    rng = np.random.default_rng(2024)
    forecast = gaussian(0.0, 2.0)
    ys = rng.normal(size=2000)
    records = [ForecastRecord({"f": forecast}, float(y)) for y in ys]
    out = empirical_score(IGN, records, "f")
    mean_ref = 2.5060849448472795
    # per-record variance of the ignorance score under N(0, 1) outcomes
    draws = np.array([-math.log2(oracles.mixture_pdf([(1, 0, 2)], float(y)))
                      for y in ys])
    stderr = float(np.std(draws, ddof=1) / math.sqrt(len(ys)))
    assert abs(out.value - mean_ref) < 4.0 * stderr


# ---------------------------------------------------------------------------
# columnar scoring equals per-record scoring
# ---------------------------------------------------------------------------

MIX1 = gaussian(0.3, 1.1)
MIX2 = gaussian_mixture([(0.4, -1.0, 0.5), (0.6, 1.2, 0.8)])
MIX3 = gaussian_mixture([(0.2, -2.0, 0.3), (0.5, 0.0, 1.0), (0.3, 2.5, 0.6)])
HIST1 = PiecewiseUniform([-2.0, 2.0], [1.0])
HIST3 = PiecewiseUniform([-1.0, 0.0, 1.0, 2.0], [0.3, 0.0, 0.7])
HIST5 = PiecewiseUniform([-3.0, -1.0, 0.0, 0.5, 1.0, 3.0],
                         [0.1, 0.2, 0.3, 0.2, 0.2])
HIST_WIDE = PiecewiseUniform([-4.0, 0.0, 4.0, 10.0], [0.2, 0.3, 0.5])
CUBIC = pushforward(gaussian(2.0, 0.1), cubic_transform())

# Every system mixes density types.  Only system "a" has zero density
# (HIST3 at 0.5 sits in a zero-mass cell, HIST1 at 2.5 is outside its
# support), which makes its ignorance and its relative bits infinite.
MIXED = [
    ({"a": MIX1, "b": HIST1, "c": CUBIC}, 0.2),
    ({"a": HIST3, "b": MIX2, "c": MIX3}, 0.5),
    ({"a": MIX3, "b": CUBIC, "c": HIST_WIDE}, 7.9),
    ({"a": CUBIC, "b": MIX3, "c": HIST_WIDE}, 8.1),
    ({"a": HIST1, "b": HIST5, "c": MIX2}, 2.5),
    ({"a": MIX2, "b": HIST5, "c": HIST5}, -0.7),
    ({"a": HIST5, "b": MIX1, "c": HIST1}, 1.0),
]
MIXED_SPECS = [IGN, CRPS, ScoreSpec("power", alpha=2.0),
               ScoreSpec("power", alpha=3.0),
               ScoreSpec("pseudospherical", beta=2.0),
               ScoreSpec("pseudospherical", beta=3.0),
               ScoreSpec("naive_linear"),
               ScoreSpec("energy", beta=1.0)]


def _per_record_mean(spec, records, system, **kw):
    streams = np.random.SeedSequence(kw.pop("seed")).spawn(len(records))
    vals, infinite = [], 0
    for rec, stream in zip(records, streams):
        extra = {"seed": stream} if spec.family == "energy" else {}
        sv = score(spec, rec.forecasts[system], rec.outcome, **kw, **extra)
        vals.append(sv.value)
        infinite += sv.infinite
    return float(np.mean(vals)), infinite


@pytest.mark.parametrize("density_floor", [None, 1e-3])
def test_columnar_archive_matches_per_record_scores(density_floor):
    records = [ForecastRecord(fc, y, line=k)
               for k, (fc, y) in enumerate(MIXED, start=1)]
    report = evaluate_archive(records, MIXED_SPECS, seed=11, n=10_000,
                              density_floor=density_floor)
    for system in ("a", "b", "c"):
        for spec in MIXED_SPECS:
            mean, infinite = _per_record_mean(
                spec, records, system, seed=11, n=10_000,
                density_floor=density_floor)
            got = report.scores[system][spec.label()]
            assert got.value == pytest.approx(mean, rel=1e-12)
            assert got.infinite_count == infinite
    assert report.scores["a"]["ignorance"].infinite == (density_floor is None)
    for s1, s2, rel in report.relative:
        bits = np.mean([-(float(r.forecasts[s1].log_pdf(r.outcome))
                          - float(r.forecasts[s2].log_pdf(r.outcome)))
                        / math.log(2.0) for r in records])
        assert rel.bits == pytest.approx(bits, rel=1e-12)
        assert rel == relative_empirical_ignorance(records, s1, s2)


def test_mixture_and_histogram_archive_needs_no_quadrature(monkeypatch):
    import psl

    calls = []
    for name in ("quadrature", "distributions", "scores", "analysis",
                 "archive"):
        module = getattr(psl, name)
        if hasattr(module, "integrate"):
            real = module.integrate

            def counted(*args, _real=real, **kw):
                calls.append(args)
                return _real(*args, **kw)
            monkeypatch.setattr(module, "integrate", counted)
    records = [ForecastRecord({"m": m, "h": h}, y)
               for m, h, y in ((MIX1, HIST1, 0.2), (MIX3, HIST3, 0.5),
                               (MIX2, HIST5, 3.5), (MIX3, HIST1, -0.4))]
    report = evaluate_archive(records, [IGN, CRPS,
                                        ScoreSpec("power", alpha=2.0)])
    assert report.scores["m"]["crps"].value > 0.0
    assert calls == []
