import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from psl import cli
from psl.analysis import inverse_width_skill_curve

import oracles


PIECEWISE = '{"type": "piecewise_uniform", "breaks": [0, 1], "masses": [1]}'
STD_JSON = ('{"type": "gaussian_mixture", '
            '"components": [{"w": 1, "mu": 0, "sigma": 1}]}')
WIDE_JSON = ('{"type": "gaussian_mixture", '
             '"components": [{"w": 1, "mu": 0, "sigma": 2}]}')


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# score / expected
# ---------------------------------------------------------------------------

def test_score_unit_box_is_exactly_zero(capsys):
    code, out, _ = run(["score", "--family", "ignorance",
                        "--density", PIECEWISE, "--outcome", "0.5"], capsys)
    assert code == 0
    assert out == "0.0\n"


def test_score_matches_library(capsys):
    code, out, _ = run(["score", "--family", "ignorance",
                        "--density", STD_JSON, "--outcome", "0"], capsys)
    assert code == 0
    assert out.strip() == "1.32574806"


def test_score_json_format(capsys):
    code, out, _ = run(["score", "--family", "crps", "--density", STD_JSON,
                        "--outcome", "0", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(
        oracles.crps_gaussian_closed(0, 1, 0), rel=1e-8)
    assert payload["infinite"] is False
    assert payload["outcome"] == 0.0


def test_score_density_floor(capsys):
    code, out, _ = run(["score", "--family", "ignorance",
                        "--density", PIECEWISE, "--outcome", "5",
                        "--density-floor", "1e-6"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(-math.log2(1e-6), rel=1e-8)


def test_score_rejects_bad_density(capsys):
    code, _, err = run(["score", "--family", "ignorance",
                        "--density", "{oops", "--outcome", "0"], capsys)
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("family", [["crps"], ["power", "--alpha", "2"]])
def test_score_rejects_stddev_whose_square_underflows(capsys, family):
    # the density is refused when it is parsed, naming the stddev, instead
    # of failing inside a kernel ("variance must be positive") or warning
    tiny = ('{"type": "gaussian_mixture", '
            '"components": [{"w": 1, "mu": 0.5, "sigma": 1e-170}]}')
    code, out, err = run(["score", "--family", *family, "--density", tiny,
                          "--outcome", "0"], capsys)
    assert (code, out) == (2, "")
    assert "--density: stddev 1e-170" in err


def test_score_rejects_stray_parameter(capsys):
    code, _, err = run(["score", "--family", "crps", "--alpha", "2",
                        "--density", STD_JSON, "--outcome", "0"], capsys)
    assert code == 2
    assert "takes no parameters" in err


def test_expected_crps(capsys):
    code, out, _ = run(["expected", "--family", "crps",
                        "--density", WIDE_JSON, "--truth", STD_JSON], capsys)
    assert code == 0
    assert out.strip() == "0.655744949"


# The cubic pushforward of N(0, 1) has density ~ |y|^(-2/3) / 3 at 0, so
# the integral of its squared density diverges: a numerical failure
# (exit 3), not a usage error.
CUBIC_JSON = ('{"type": "gaussian_mixture", '
              '"components": [{"w": 1, "mu": 0, "sigma": 1}], '
              '"transform": {"kind": "cubic"}}')


def test_score_divergent_integral_is_numerical_failure(capsys):
    code, out, err = run(["score", "--family", "power", "--alpha", "2",
                          "--density", CUBIC_JSON, "--outcome", "1"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:") and "diverge" in err


def test_expected_divergent_integral_is_numerical_failure(capsys):
    code, out, err = run(["expected", "--family", "power", "--alpha", "2",
                          "--density", CUBIC_JSON, "--truth", STD_JSON],
                         capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:") and "diverge" in err


def test_expected_rejects_overflowing_histogram_cell(capsys):
    # 0.5 / 5e-324 overflows: a usage error, not an answer after warnings
    narrow = ('{"type": "piecewise_uniform", "breaks": [0, 5e-324, 1], '
              '"masses": [0.5, 0.5]}')
    code, out, err = run(["expected", "--family", "crps",
                          "--density", narrow, "--truth", STD_JSON], capsys)
    assert (code, out) == (2, "")
    assert "cell heights must be finite" in err


def test_energy_needs_a_seed(capsys, monkeypatch):
    monkeypatch.delenv("PSL_DEFAULT_SEED", raising=False)
    code, _, err = run(["score", "--family", "energy", "--beta", "1",
                        "--density", STD_JSON, "--outcome", "0"], capsys)
    assert code == 2
    assert "pass --seed or set PSL_DEFAULT_SEED" in err


def test_score_rejects_infinite_parameter(capsys):
    code, out, err = run(["score", "--family", "power", "--alpha", "inf",
                          "--density", STD_JSON, "--outcome", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "finite alpha" in err


@pytest.mark.parametrize("draws", ["0", "1"])
def test_expected_energy_rejects_too_few_draws(capsys, draws):
    code, out, err = run(["expected", "--family", "energy", "--beta", "1",
                          "--seed", "0", "--draws", draws,
                          "--density", STD_JSON, "--truth", STD_JSON],
                         capsys)
    assert code == 2
    assert out == ""
    assert "at least 10000" in err


@pytest.mark.parametrize("floor", ["nan", "inf", "-inf"])
def test_score_rejects_bad_density_floor(capsys, floor):
    # a nan floor printed "nan" and an infinite one "-infinity", exit 0
    code, out, err = run(["score", "--family", "ignorance",
                          "--density", STD_JSON, "--outcome", "0",
                          f"--density-floor={floor}"], capsys)
    assert code == 2
    assert out == ""
    assert "density floor must be positive and finite" in err


def _run_psl(argv):
    """``python -m psl argv`` in a fresh interpreter, so that warnings
    reach its stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "psl", *argv],
                          capture_output=True, text=True, env=env)


def test_score_far_tail_is_finite_and_silent():
    # the pair kernel squared |y - mu| / sqrt(2 v) and warned of overflow
    proc = _run_psl(["score", "--family", "crps",
                     "--density", STD_JSON, "--outcome", "1e200"])
    assert proc.returncode == 0
    assert proc.stdout == "1e+200\n"
    assert proc.stderr == ""


@pytest.mark.parametrize("family, expected", [
    (["ignorance"], '"infinity"'),
    (["power", "--alpha", "2"], "0.282094792"),
    (["pseudospherical", "--beta", "2"], "0.0"),
    (["naive_linear"], "-0.0"),
])
def test_score_density_far_tail_is_silent(family, expected):
    # the density kernels square (y - mu) / sigma, which overflows to inf
    # past 1.3e154; the density is then 0 and its log -inf, unwarned
    proc = _run_psl(["score", "--family", *family,
                     "--density", STD_JSON, "--outcome", "1e200"])
    assert proc.returncode == 0
    assert proc.stdout == expected + "\n"
    assert proc.stderr == ""


def test_archive_eval_far_tail_is_silent(tmp_path):
    path = tmp_path / "far.jsonl"
    path.write_text("\n".join(
        json.dumps({"forecasts": {"g": json.loads(STD_JSON)}, "outcome": y})
        for y in (1e200, 0.5)))
    proc = _run_psl(["archive-eval", "--archive", str(path), "--families",
                     "ignorance,crps,power,pseudospherical,naive_linear"])
    assert proc.returncode == 0
    means = {fam: m["mean"] for fam, m
             in json.loads(proc.stdout)["systems"]["g"].items()}
    assert means["ignorance"] == "infinity"
    assert means["crps"] == 5e199
    assert proc.stderr == ""


def test_energy_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("PSL_DEFAULT_SEED", "12345")
    code, out, _ = run(["score", "--family", "energy", "--beta", "1",
                        "--density", STD_JSON, "--outcome", "0",
                        "--draws", "200000"], capsys)
    assert code == 0
    assert float(out) == pytest.approx(oracles.crps_gaussian_closed(0, 1, 0),
                                       abs=5e-3)
    monkeypatch.setenv("PSL_DEFAULT_SEED", "not-an-int")
    code, _, err = run(["score", "--family", "energy", "--beta", "1",
                        "--density", STD_JSON, "--outcome", "0"], capsys)
    assert code == 2
    assert "must be an integer" in err


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def _parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.strip().splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_figure_one_columns_and_round_trip(capsys):
    code, out, _ = run(["figure", "--id", "1", "--points", "12"], capsys)
    assert code == 0
    meta, header, rows = _parse_csv(out)
    assert header == ["sigma", "ign", "ign_over_20", "crps", "pls", "sps"]
    assert len(rows) == 12
    sps = [float(r[5]) for r in rows]
    assert all(abs(v) < 1e-6 for v in sps)
    assert all(float(r[1]) < 0 for r in rows)        # ignorance favors A
    assert all(float(r[3]) > 0 for r in rows)        # crps favors B
    # round trip: the printed sigma regenerates the printed row exactly
    probe = rows[7]
    curve = inverse_width_skill_curve([float(probe[0])])
    regenerated = ["%.9g" % curve.columns[name][0]
                   for name in ("ign", "ign_over_20", "crps", "pls", "sps")]
    assert regenerated == probe[1:]


def test_figure_two_relative_sign(capsys):
    code, out, _ = run(["figure", "--id", "2", "--points", "61"], capsys)
    assert code == 0
    meta, header, rows = _parse_csv(out)
    assert header == ["y", "pdf_a", "pdf_b", "relative"]
    by_y = {float(r[0]): float(r[3]) for r in rows}
    # B is A shifted by +1 and A is symmetric about 0, so y = 0.5 is an
    # exact tie; A is preferred just left of it and B just right.
    assert by_y[0.5] == pytest.approx(0.0, abs=1e-12)
    assert by_y[0.3] < 0.0 < by_y[0.7]
    assert by_y[2.0] > 0.0    # at B's far mode, B preferred


def test_figure_three_sign_regions(capsys):
    code, out, _ = run(["figure", "--id", "3"], capsys)
    assert code == 0
    _, _, rows = _parse_csv(out)
    vals = [(float(r[0]), float(r[3])) for r in rows]
    assert all(rel > 0.0 for y, rel in vals if y < -4.0)
    assert all(rel > 0.0 for y, rel in vals if -2.0 < y < -1.0)
    assert any(rel < 0.0 for y, rel in vals)


def test_figure_five_thresholds(capsys):
    code, out, _ = run(["figure", "--id", "5"], capsys)
    assert code == 0
    meta, header, rows = _parse_csv(out)
    assert header == ["y", "relative_pre", "relative_post"]
    assert meta["pre_threshold"] == "11.5"
    post = float(meta["post_threshold"])
    assert post == pytest.approx(12.0582278, abs=1e-4)
    assert post > 11.5


def test_figure_json_format(capsys):
    code, out, _ = run(["figure", "--id", "1", "--points", "5",
                        "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"][0] == "sigma"
    assert len(payload["rows"]) == 5
    assert "system_a" in payload["meta"]


def test_figure_gnuplot_needs_out(capsys):
    code, _, err = run(["figure", "--id", "1", "--gnuplot"], capsys)
    assert code == 2
    assert "--gnuplot needs --out" in err


def test_figure_gnuplot_script(tmp_path, capsys):
    out_file = tmp_path / "fig1.csv"
    code, out, _ = run(["figure", "--id", "1", "--points", "4",
                        "--out", str(out_file), "--gnuplot"], capsys)
    assert code == 0
    assert "set datafile separator ','" in out
    assert f"'{out_file}'" in out
    meta, header, rows = _parse_csv(out_file.read_text())
    assert len(rows) == 4


def test_figure_grid_validation(capsys):
    code, _, err = run(["figure", "--id", "2", "--y-min", "3",
                        "--y-max", "-1"], capsys)
    assert code == 2
    assert "y-min < y-max" in err


# ---------------------------------------------------------------------------
# check-proper / find-witness / flip
# ---------------------------------------------------------------------------

def test_check_proper_passes_for_crps(capsys):
    code, out, _ = run(["check-proper", "--family", "crps",
                        "--pairs", "6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    # one finding per candidate, truth included, counterexample pair first
    assert payload["pairs"] == 2 * (6 + 1)
    assert payload["violations"] == []


def test_check_proper_fails_for_naive_linear(capsys):
    code, out, _ = run(["check-proper", "--family", "naive_linear",
                        "--pairs", "4"], capsys)
    assert code == 4
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["violations"]
    first = payload["violations"][0]
    assert first["margin"] < 0.0
    assert "forecast" in first["reason"]


def test_check_proper_csv(capsys):
    code, out, _ = run(["check-proper", "--family", "ignorance",
                        "--pairs", "3", "--format", "csv"], capsys)
    assert code == 0
    meta, header, rows = _parse_csv(out)
    assert header == ["pair", "margin", "l1_distance", "violation"]
    assert len(rows) == 2 * (3 + 1)
    assert all(r[3] == "0" for r in rows)


def test_check_proper_rejects_negative_pairs(capsys):
    code, out, err = run(["check-proper", "--family", "crps",
                          "--pairs", "-3"], capsys)
    assert code == 2
    assert out == ""
    assert "--pairs" in err


@pytest.mark.parametrize("env,extra", [
    (None, []),
])
def test_check_proper_energy_draws_nothing(capsys, monkeypatch, env, extra):
    # the closed form draws no samples, so no seed matters; --seed only
    # chooses the pairs (0 by default)
    monkeypatch.setenv("PSL_DEFAULT_SEED", "7")
    code, seeded, _ = run(["check-proper", "--family", "energy", "--beta",
                           "1", "--pairs", "2", "--seed", "0", "--format",
                           "csv"], capsys)
    assert code == 0
    if env is None:
        monkeypatch.delenv("PSL_DEFAULT_SEED")
    else:
        monkeypatch.setenv("PSL_DEFAULT_SEED", env)
    code, out, err = run(["check-proper", "--family", "energy", "--beta",
                          "1", "--pairs", "2", "--format", "csv", *extra],
                         capsys)
    assert (code, err) == (0, "")
    assert out == seeded
    assert len(_parse_csv(out)[2]) == 2 * (2 + 1)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_check_proper_rejects_bad_tol(capsys, tol):
    # a nan tol passed every pair; -1 made the truth itself a violation
    code, out, err = run(["check-proper", "--family", "crps", "--pairs",
                          "1", "--tol", tol], capsys)
    assert code == 2
    assert out == ""
    assert "tol must be a finite number >= 0" in err


@pytest.mark.parametrize("argv,fragment", [
    (["--family", "pseudospherical", "--beta", "1.0000001", "--ratio", "2"],
     "ratio 2 is infeasible"),
    (["--family", "pseudospherical", "--beta", "2", "--ratio", "1e300"],
     "ratio 1e+300 is infeasible"),
    (["--family", "power", "--alpha", "1.0000001", "--ratio", "2"],
     "alpha=1"),
])
def test_find_witness_infeasible_parameter_is_numerical_failure(
        capsys, argv, fragment):
    # an OverflowError traceback (exit 1), or a bare "math domain error"
    code, out, err = run(["find-witness", *argv], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:") and fragment in err


@pytest.mark.parametrize("family", ["ignorance", "naive_linear"])
def test_find_witness_without_construction_is_usage_error(capsys, family):
    code, out, err = run(["find-witness", "--family", family,
                          "--ratio", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "no witness construction" in err


def test_find_witness_pseudospherical(capsys):
    code, out, _ = run(["find-witness", "--family", "pseudospherical",
                        "--beta", "2", "--ratio", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["ratio"] == pytest.approx(2.0, abs=1e-6)
    assert payload["s1"]["value"] > payload["s2"]["value"]
    assert payload["p1"]["type"] == "gaussian_mixture"


def test_find_witness_infinite_ratio(capsys):
    code, out, _ = run(["find-witness", "--family", "crps",
                        "--ratio", "inf"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["ratio"] == "infinity"


def test_find_witness_infeasible_ratio_is_numerical_failure(capsys):
    code, _, err = run(["find-witness", "--family", "crps",
                        "--ratio", "1e30"], capsys)
    assert code == 3
    assert "numerical failure" in err


def test_find_witness_ratio_validation(capsys):
    code, _, err = run(["find-witness", "--family", "crps",
                        "--ratio", "0.5"], capsys)
    assert code == 2
    assert "must exceed 1" in err


def test_flip_finds_cubic_crossover(capsys):
    code, out, _ = run(["flip", "--family", "crps",
                        "--transform", "cubic"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["score"] == {"family": "crps"}
    assert payload["transform"]["kind"] == "cubic"
    assert payload["relative_pre"] * payload["relative_post"] < 0.0
    assert payload["window"][0] == pytest.approx(11.5, abs=1e-3)


def test_flip_none_for_ignorance(capsys):
    code, out, _ = run(["flip", "--family", "ignorance",
                        "--transform", "cubic", "--points", "201"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["flip"] is None
    assert "no preference flip" in payload["note"]


def test_flip_custom_densities_affine(capsys):
    code, out, _ = run([
        "flip", "--family", "ignorance", "--transform", "affine",
        "--transform-params", "2,1",
        "--density-a", STD_JSON, "--density-b", WIDE_JSON,
        "--y-min", "-2", "--y-max", "2", "--points", "101"], capsys)
    assert code == 0
    assert json.loads(out)["flip"] is None


@pytest.mark.parametrize("extra,fragment", [
    (["--points", "0"], "at least 2 grid points"),
    (["--points", "1"], "at least 2 grid points"),
    (["--tol", "nan"], "tol must be a finite number >= 0"),
    (["--tol", "-1"], "tol must be a finite number >= 0"),
])
def test_flip_rejects_bad_grid_and_tol(capsys, extra, fragment):
    # with at most one point scanned it reported "no preference flip"
    code, out, err = run(["flip", "--family", "crps", "--transform", "cubic",
                          *extra], capsys)
    assert code == 2
    assert out == ""
    assert fragment in err


def test_flip_density_a_without_b(capsys):
    code, _, err = run(["flip", "--family", "crps", "--transform", "cubic",
                        "--density-a", STD_JSON], capsys)
    assert code == 2
    assert "matching --density-b" in err


# ---------------------------------------------------------------------------
# archive-eval
# ---------------------------------------------------------------------------

ARCHIVE_LINE = json.dumps({
    "forecasts": {
        "half": {"type": "piecewise_uniform", "breaks": [0.0, 2.0],
                 "masses": [1.0]},
        "full": {"type": "piecewise_uniform", "breaks": [0.0, 1.0],
                 "masses": [1.0]},
    },
    "outcome": 0.5,
})


def test_archive_eval_jsonl(tmp_path, capsys):
    path = tmp_path / "toy.jsonl"
    path.write_text((ARCHIVE_LINE + "\n") * 4)
    code, out, _ = run(["archive-eval", "--archive", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["records"] == 4
    assert payload["systems"]["full"]["ignorance"]["mean"] == 0.0
    assert payload["systems"]["half"]["ignorance"]["mean"] == 1.0
    rel = payload["relative_ignorance"][0]
    assert rel == {"system1": "full", "system2": "half", "bits": -1.0,
                   "probability_ratio": 2.0}


def test_archive_eval_csv_input_and_output(tmp_path, capsys):
    path = tmp_path / "toy.csv"
    path.write_text("outcome,ens_mu,ens_sigma,clim_mu,clim_sigma\n"
                    "0.0,0.0,1.0,0.0,2.0\n")
    code, out, _ = run(["archive-eval", "--archive", str(path),
                        "--input-format", "csv", "--format", "csv"], capsys)
    assert code == 0
    assert "system,family,mean,infinite_records" in out
    assert "pair,bits,probability_ratio" in out
    for line in out.splitlines():
        if line.startswith("ens,ignorance"):
            assert float(line.split(",")[2]) == pytest.approx(
                1.3257480647, abs=1e-6)
            break
    else:
        raise AssertionError("no ens ignorance row")


def test_archive_eval_selected_families(tmp_path, capsys):
    path = tmp_path / "toy.jsonl"
    path.write_text(ARCHIVE_LINE + "\n")
    code, out, _ = run(["archive-eval", "--archive", str(path),
                        "--families", "ignorance,power,pseudospherical",
                        "--systems", "full"], capsys)
    assert code == 0
    payload = json.loads(out)
    fams = set(payload["systems"]["full"])
    assert fams == {"ignorance", "power(alpha=2)",
                    "pseudospherical(beta=2)"}
    assert payload["relative_ignorance"] == []


def test_archive_eval_divergent_integral_is_numerical_failure(tmp_path,
                                                              capsys):
    path = tmp_path / "toy.jsonl"
    path.write_text(json.dumps({
        "forecasts": {"cubed": json.loads(CUBIC_JSON),
                      "std": json.loads(STD_JSON)},
        "outcome": 0.5}) + "\n")
    code, out, err = run(["archive-eval", "--archive", str(path),
                          "--families", "ignorance,power"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:") and "diverge" in err


def test_archive_eval_missing_system(tmp_path, capsys):
    path = tmp_path / "toy.jsonl"
    path.write_text(ARCHIVE_LINE + "\n")
    code, _, err = run(["archive-eval", "--archive", str(path),
                        "--systems", "half,ghost"], capsys)
    assert code == 2
    assert "missing" in err


def test_archive_eval_bad_file(tmp_path, capsys):
    code, _, err = run(["archive-eval", "--archive",
                        str(tmp_path / "nope.jsonl")], capsys)
    assert code == 2
    assert "cannot read archive" in err


def test_archive_eval_broken_record_names_line(tmp_path, capsys):
    path = tmp_path / "toy.jsonl"
    path.write_text(ARCHIVE_LINE + "\n{broken\n")
    code, _, err = run(["archive-eval", "--archive", str(path)], capsys)
    assert code == 2
    assert "line 2" in err


# ---------------------------------------------------------------------------
# --out and the installed entry point
# ---------------------------------------------------------------------------

def test_out_writes_file_and_nothing_to_stdout(tmp_path, capsys):
    target = tmp_path / "value.txt"
    code, out, _ = run(["score", "--family", "ignorance",
                        "--density", PIECEWISE, "--outcome", "0.5",
                        "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text() == "0.0\n"


def test_installed_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "psl", "score", "--family", "ignorance",
         "--density", PIECEWISE, "--outcome", "0.5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "0.0\n"


@pytest.mark.parametrize("argv", [
    ["figure", "--id", "2", "--points", "3", "--seed", "5", "--draws", "3"],
    ["figure", "--id", "2", "--points", "3", "--seed", "5"],
    ["check-proper", "--family", "crps", "--pairs", "1", "--draws", "3"],
])
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    # figure draws nothing and check-proper's --seed only picks the pairs,
    # so a Monte-Carlo flag there would be silently ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
