"""Command-line front end.

Subcommands reproduce the bundled figure data, score single forecasts,
run the propriety and implausibility checks, locate preference flips,
and evaluate forecast archives.  All output is CSV or JSON on stdout or
a file; figures can additionally emit a gnuplot script.

Exit codes: 0 success, 2 validation error (a ``UsageError`` or any
``ValueError`` a command raises), 3 numerical failure, 4 when a check
finds a violation (a finding, not a crash).

The subcommands that can score the energy family take ``--seed`` and
``--draws``; the environment variable ``PSL_DEFAULT_SEED`` supplies the
seed when ``--seed`` is absent, and Monte-Carlo paths refuse to run
without one.  ``check-proper`` draws nothing: its ``--seed`` picks the
sampled pairs (default 0).  ``figure`` takes neither.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis, archive
from .distributions import (cubic_transform, density_from_json,
                            density_to_json, pushforward,
                            transform_from_json)
from .quadrature import QuadratureError
from .scores import (FAMILIES, MIN_DRAWS, RULES, ScoreSpec, encode_number,
                     round9, score)

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    """Bad arguments or malformed input; maps to exit code 2."""


class NumericalFailure(Exception):
    """A computation could not be completed; maps to exit code 3."""


def _fmt9(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return encode_number(x)
    return f"{x:.9g}"


def _resolve_seed(args) -> int | None:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PSL_DEFAULT_SEED")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise UsageError("PSL_DEFAULT_SEED must be an integer") from None


def _mc_seed(args, *specs) -> int | None:
    """The seed when a spec draws Monte-Carlo samples, which refuse to
    run without one or on fewer than ``MIN_DRAWS`` draws; None
    otherwise."""
    if not any(spec.rule.monte_carlo for spec in specs):
        return None
    seed = _resolve_seed(args)
    if seed is None:
        raise UsageError("this command draws Monte-Carlo samples: pass "
                         "--seed or set PSL_DEFAULT_SEED")
    if args.draws < MIN_DRAWS:
        raise UsageError(f"--draws must be at least {MIN_DRAWS} for "
                         "Monte-Carlo scores")
    return seed


def _spec_from_args(args) -> ScoreSpec:
    return ScoreSpec(args.family, alpha=getattr(args, "alpha", None),
                     beta=getattr(args, "beta", None))


def _density_from_args(text: str, what: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc.msg}") from None
    try:
        return density_from_json(obj)
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from None


def _write_out(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(columns, rows, meta, args, gnuplot_script=None) -> None:
    """Serialize a table as commented CSV or JSON, honoring --out."""
    if args.format == "json":
        body = json.dumps({
            "meta": meta,
            "columns": list(columns),
            "rows": [[round9(v) for v in row] for row in rows],
        }, indent=2) + "\n"
    else:
        lines = [f"# {k} = {v}" for k, v in meta.items()]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt9(v) for v in row) for row in rows)
        body = "\n".join(lines) + "\n"
    _write_out(body, args)
    if gnuplot_script is not None:
        if not getattr(args, "out", None):
            raise UsageError("--gnuplot needs --out so the script has a "
                             "data file to point at")
        sys.stdout.write(gnuplot_script)


def _emit_json(obj, args) -> None:
    _write_out(json.dumps(obj, indent=2) + "\n", args)


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------

def _snap9(values):
    """Round grid points to their 9-digit decimal floats.

    The CSV prints 9 significant digits, so a grid built from the
    snapped values re-reads bit-exactly and every column recomputes to
    the identical float.
    """
    return [float(f"{float(v):.9g}") for v in values]


def _figure_grid(args, lo: float, hi: float, points: int):
    lo = args.y_min if args.y_min is not None else lo
    hi = args.y_max if args.y_max is not None else hi
    points = args.points if args.points is not None else points
    if not (lo < hi) or points < 2:
        raise UsageError("grid needs y-min < y-max and at least 2 points")
    return _snap9(np.linspace(lo, hi, points))


def _gnuplot(args, meta, plot_lines, arrows=()) -> str | None:
    if not args.gnuplot:
        return None
    lines = ["set datafile separator ','",
             f"set title '{meta['command']}'",
             "set key left top"]
    for i, x in enumerate(arrows, start=1):
        lines.append(f"set arrow {i} from {x:.9g},graph 0 to "
                     f"{x:.9g},graph 1 nohead dashtype 2")
    data = args.out or "figure.csv"
    plots = ", ".join(p.replace("DATA", f"'{data}'" if i == 0 else "''")
                      for i, p in enumerate(plot_lines))
    lines.append("plot " + plots)
    return "\n".join(lines) + "\n"


def cmd_figure(args) -> int:
    if args.gnuplot and not args.out:
        raise UsageError("--gnuplot needs --out so the script has a data "
                         "file to point at")
    if args.id == 1:
        sigma_lo = args.sigma_min
        sigma_hi = args.sigma_max
        points = args.points if args.points is not None else 40
        if not (1.0 < sigma_lo < sigma_hi) or points < 2:
            raise UsageError("figure 1 needs 1 < sigma-min < sigma-max "
                             "and at least 2 points")
        grid = _snap9(np.linspace(sigma_lo, sigma_hi, points))
        curve = analysis.inverse_width_skill_curve(grid)
        meta = {
            "command": "figure 1: reciprocal-width Gaussian skill curves",
            "system_a": "N(0, sigma^2)",
            "system_b": "N(0, 1/sigma^2)",
            "truth": "N(0, 1)",
            "sigma_grid": f"linspace({sigma_lo:g}, {sigma_hi:g}, {points})",
            "note": "ign in bits; ign_over_20 is the overlay column",
        }
        cols = ("sigma",) + curve.column_names()
        script = _gnuplot(args, meta, [
            "DATA using 1:3 with lines title 'ignorance / 20'",
            "DATA using 1:4 with lines title 'crps'",
            "DATA using 1:5 with lines title 'power (alpha=2)'",
            "DATA using 1:6 with lines title 'pseudospherical (beta=2)'",
            "0 with lines dashtype 3 notitle",
        ])
        _emit_table(cols, list(curve.rows()), meta, args, script)
        return 0

    if args.id in (2, 3, 4):
        pair, spec, lo, hi, points, label = {
            2: (analysis.median_pathology_pair(), ScoreSpec("crps"),
                -2.5, 3.5, 601,
                "figure 2: offset bimodal mixtures, pointwise CRPS"),
            3: (analysis.power_pathology_pair(),
                ScoreSpec("power", alpha=2.0), -8.0, 6.0, 701,
                "figure 3: narrow vs wide Gaussian, pointwise power score"),
            4: (analysis.spherical_pathology_pair(),
                ScoreSpec("pseudospherical", beta=2.0), -5.0, 5.0, 501,
                "figure 4: narrow vs wide Gaussian, pointwise spherical "
                "score"),
        }[args.id]
        a, b = pair
        grid = _figure_grid(args, lo, hi, points)
        curve = analysis.relative_score_curve(spec, a, b, grid)
        ys = np.array(grid)
        rows = [(y, pa, pb, rel) for (y, rel), pa, pb
                in zip(curve, a.pdf(ys).tolist(), b.pdf(ys).tolist())]
        meta = {
            "command": label,
            "score": json.dumps(spec.to_json()),
            "system_a": json.dumps(density_to_json(a)),
            "system_b": json.dumps(density_to_json(b)),
            "y_grid": f"linspace({grid[0]:g}, {grid[-1]:g}, {len(grid)})",
            "note": "relative = score(A, y) - score(B, y); negative "
                    "prefers A",
        }
        script = _gnuplot(args, meta, [
            "DATA using 1:2 with lines title 'pdf A'",
            "DATA using 1:3 with lines title 'pdf B'",
            "DATA using 1:4 with lines title 'relative score'",
            "0 with lines dashtype 3 notitle",
        ])
        _emit_table(("y", "pdf_a", "pdf_b", "relative"), rows, meta, args,
                    script)
        return 0

    # figure 5: the cubic-transform preference flip
    a, b = analysis.transform_flip_pair()
    spec = ScoreSpec("crps")
    cube = cubic_transform()
    ta, tb = pushforward(a, cube), pushforward(b, cube)
    grid = _figure_grid(args, 10.0, 13.0, 301)
    pre = analysis.relative_score_curve(spec, a, b, grid)
    post = analysis.relative_score_curve(spec, ta, tb,
                                         cube.forward(np.array(grid)))
    rows = [(y, rel_pre, rel_post)
            for (y, rel_pre), (_, rel_post) in zip(pre, post)]

    def pre_at(y):
        return score(spec, a, y).value - score(spec, b, y).value

    def post_at(y):
        ystar = float(cube.forward(y))
        return score(spec, ta, ystar).value - score(spec, tb, ystar).value

    pre_threshold = _first_crossing(grid, [r[1] for r in rows], pre_at,
                                    "relative_pre")
    post_threshold = _first_crossing(grid, [r[2] for r in rows], post_at,
                                     "relative_post")
    meta = {
        "command": "figure 5: CRPS preference flip under the cubic "
                   "transform",
        "score": json.dumps(spec.to_json()),
        "system_a": json.dumps(density_to_json(a)),
        "system_b": json.dumps(density_to_json(b)),
        "transform": "y = x^3",
        "y_grid": f"linspace({grid[0]:g}, {grid[-1]:g}, {len(grid)})",
        "pre_threshold": _fmt9(pre_threshold),
        "post_threshold": _fmt9(post_threshold),
        "note": "relative_post compares the transformed systems at y^3 "
                "but is tabulated against the original y",
    }
    script = _gnuplot(args, meta, [
        "DATA using 1:2 with lines title 'relative pre'",
        "DATA using 1:3 with lines title 'relative post'",
        "0 with lines dashtype 3 notitle",
    ], arrows=(pre_threshold, post_threshold))
    _emit_table(("y", "relative_pre", "relative_post"), rows, meta, args,
                script)
    return 0


def _first_crossing(grid, values, relative, column: str) -> float:
    """The first sign change of a tabulated column, bisected on
    ``relative`` to 1e-9."""
    for y0, y1, v0, v1 in zip(grid, grid[1:], values, values[1:]):
        if v0 == 0.0:
            return y0
        if (v0 > 0.0) != (v1 > 0.0):
            return analysis.sign_change_root(relative, y0, y1, tol=1e-9)
    raise NumericalFailure(f"{column} never changes sign on the grid")


# ---------------------------------------------------------------------------
# score / expected
# ---------------------------------------------------------------------------

def _emit_scalar(value, args, extra=None) -> None:
    if args.format == "json":
        obj = {"value": round9(value.value),
               "infinite": value.infinite}
        if value.stderr is not None:
            obj["stderr"] = round9(value.stderr)
        if extra:
            obj.update(extra)
        _emit_json(obj, args)
    else:
        _write_out(json.dumps(round9(value.value)) + "\n", args)


def cmd_score(args) -> int:
    spec = _spec_from_args(args)
    d = _density_from_args(args.density, "--density")
    if not math.isfinite(args.outcome):
        raise UsageError("--outcome must be finite")
    value = score(spec, d, args.outcome, seed=_mc_seed(args, spec),
                  n=args.draws, density_floor=args.density_floor)
    _emit_scalar(value, args, {"score": spec.to_json(),
                               "outcome": args.outcome})
    return 0


def cmd_expected(args) -> int:
    spec = _spec_from_args(args)
    d = _density_from_args(args.density, "--density")
    truth = _density_from_args(args.truth, "--truth")
    value = analysis.expected_score(spec, d, truth, seed=_mc_seed(args, spec),
                                    n=args.draws)
    _emit_scalar(value, args, {"score": spec.to_json()})
    return 0


# ---------------------------------------------------------------------------
# check-proper / find-witness / flip / archive-eval
# ---------------------------------------------------------------------------

def cmd_check_proper(args) -> int:
    spec = _spec_from_args(args)
    if args.pairs < 0:
        raise UsageError("--pairs must be a non-negative count")
    report = analysis.propriety_check(spec, n_pairs=args.pairs,
                                      seed=args.seed, tol=args.tol)
    if args.format == "csv":
        meta = {"command": f"check-proper {spec.label()}",
                "pairs": args.pairs, "tol": _fmt9(args.tol),
                "passed": report.passed}
        rows = [(i, f.margin, f.l1, int(f.violation))
                for i, f in enumerate(report.findings)]
        _emit_table(("pair", "margin", "l1_distance", "violation"),
                    rows, meta, args)
    else:
        _emit_json(report.to_json(), args)
    return 0 if report.passed else 4


def _parse_ratio(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "+inf"):
        return math.inf
    try:
        r = float(text)
    except ValueError:
        raise UsageError(f"--ratio must be a number or 'inf', got "
                         f"{text!r}") from None
    if not r > 1.0:
        raise UsageError("--ratio must exceed 1")
    return r


def cmd_find_witness(args) -> int:
    spec = _spec_from_args(args)
    if spec.is_local or not spec.is_strictly_proper:
        raise UsageError(f"no witness construction for family "
                         f"{spec.family!r}: witnesses exist for the nonlocal "
                         "strictly proper rules only")
    ratio = _parse_ratio(args.ratio)
    try:
        report = analysis.construct_witness(
            spec, ratio, seed=_mc_seed(args, spec), n=args.draws)
    except (ValueError, RuntimeError) as exc:
        raise NumericalFailure(str(exc)) from None
    _emit_json(report.to_json(), args)
    return 0


def cmd_flip(args) -> int:
    spec = _spec_from_args(args)
    transform = _transform_from_args(args)
    if args.density_a:
        a = _density_from_args(args.density_a, "--density-a")
        b = _density_from_args(args.density_b or "", "--density-b") \
            if args.density_b else None
        if b is None:
            raise UsageError("--density-a needs a matching --density-b")
    else:
        a, b = analysis.transform_flip_pair()
    report = analysis.find_preference_flip(
        spec, a, b, transform, (args.y_min_flip, args.y_max_flip),
        grid_points=args.points if args.points is not None else 2001,
        tol=args.tol, seed=_mc_seed(args, spec), n=args.draws)
    if report is None:
        _emit_json({"flip": None,
                    "score": spec.to_json(),
                    "transform": transform.to_json(),
                    "note": "no preference flip in the searched range"},
                   args)
        return 0
    _emit_json(report.to_json(), args)
    return 0


def _transform_from_args(args):
    params = []
    if args.transform_params:
        try:
            params = [float(tok) for tok in args.transform_params.split(",")]
        except ValueError:
            raise UsageError("--transform-params must be comma-separated "
                             "numbers") from None
    return transform_from_json({"kind": args.transform, "params": params})


def cmd_archive_eval(args) -> int:
    loader = (archive.load_archive if args.input_format == "jsonl"
              else archive.load_archive_csv)
    try:
        records = loader(args.archive)
    except OSError as exc:
        raise UsageError(f"cannot read archive: {exc}") from None

    specs = []
    for name in args.families.split(","):
        name = name.strip()
        if not name:
            continue
        param = RULES[name].param if name in RULES else None
        specs.append(ScoreSpec(
            name, **({param: getattr(args, param)} if param else {})))
    if not specs:
        raise UsageError("--families names no score families")

    systems = None
    if args.systems:
        systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    report = archive.evaluate_archive(
        records, specs, systems=systems, seed=_mc_seed(args, *specs),
        n=args.draws, density_floor=args.density_floor)

    if args.format == "csv":
        meta = {"command": "archive-eval", "records": report.count,
                "families": ",".join(s.label() for s in specs)}
        rows = []
        cols = ("system", "family", "mean", "infinite_records")
        for name, per_family in report.scores.items():
            for label, es in per_family.items():
                rows.append((name, label, _fmt9(es.value),
                             es.infinite_count))
        lines = [f"# {k} = {v}" for k, v in meta.items()]
        lines.append(",".join(cols))
        lines.extend(",".join(str(v) for v in row) for row in rows)
        lines.append("pair,bits,probability_ratio")
        for s1, s2, ri in report.relative:
            lines.append(f"{s1} vs {s2},{_fmt9(ri.bits)},"
                         f"{_fmt9(ri.probability_ratio)}")
        _write_out("\n".join(lines) + "\n", args)
    else:
        _emit_json(report.to_json(), args)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psl",
        description="Proper scoring rules for univariate density "
                    "forecasts: figures, checks, witnesses, archives.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, fmt=("csv", "json"), default_fmt="csv"):
        p.add_argument("--out", help="write output to this file instead "
                                     "of stdout")
        p.add_argument("--format", choices=fmt, default=default_fmt)

    def monte_carlo(p):
        # only the subcommands that can score the energy family read these
        p.add_argument("--seed", type=int,
                       help="Monte-Carlo seed (energy score); "
                            "PSL_DEFAULT_SEED is the fallback")
        p.add_argument("--draws", type=int, default=1_000_000,
                       help="Monte-Carlo sample count (energy score)")

    def family(p, required=True):
        p.add_argument("--family", choices=FAMILIES, required=required)
        p.add_argument("--alpha", type=float,
                       help="power score exponent (> 1)")
        p.add_argument("--beta", type=float,
                       help="energy or pseudospherical exponent")

    p = sub.add_parser("figure", help="emit the data behind one of the "
                                      "five bundled figures")
    p.add_argument("--id", type=int, choices=(1, 2, 3, 4, 5), required=True)
    p.add_argument("--sigma-min", type=float, default=1.05,
                   help="figure 1 grid start (default 1.05)")
    p.add_argument("--sigma-max", type=float, default=3.0,
                   help="figure 1 grid end (default 3.0)")
    p.add_argument("--y-min", type=float, help="outcome grid start "
                                               "(figures 2-5)")
    p.add_argument("--y-max", type=float, help="outcome grid end "
                                               "(figures 2-5)")
    p.add_argument("--points", type=int, help="grid size (per-figure "
                                              "default)")
    p.add_argument("--gnuplot", action="store_true",
                   help="also print a gnuplot script (needs --out)")
    common(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("score", help="score one forecast density against "
                                     "a realized outcome")
    family(p)
    p.add_argument("--density", required=True, help="forecast density as "
                                                    "JSON")
    p.add_argument("--outcome", type=float, required=True)
    p.add_argument("--density-floor", type=float,
                   help="clip the density at this positive floor before "
                        "taking the log (ignorance only)")
    common(p, fmt=("plain", "json"), default_fmt="plain")
    monte_carlo(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("expected", help="expected score of a forecast "
                                        "under a truth density")
    family(p)
    p.add_argument("--density", required=True)
    p.add_argument("--truth", required=True)
    common(p, fmt=("plain", "json"), default_fmt="plain")
    monte_carlo(p)
    p.set_defaults(func=cmd_expected)

    p = sub.add_parser("check-proper", help="falsification run of the "
                                            "propriety inequality")
    family(p)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0,
                   help="seed that picks the sampled pairs (default 0)")
    p.add_argument("--tol", type=float, default=1e-7)
    common(p, default_fmt="json")
    p.set_defaults(func=cmd_check_proper)

    p = sub.add_parser("find-witness", help="construct a density pair the "
                                            "rule misranks at a given "
                                            "density ratio")
    family(p)
    p.add_argument("--ratio", required=True,
                   help="target density ratio (> 1, or 'inf')")
    common(p, fmt=("json",), default_fmt="json")
    monte_carlo(p)
    p.set_defaults(func=cmd_find_witness)

    p = sub.add_parser("flip", help="search for a preference flip under a "
                                    "change of variables")
    family(p)
    p.add_argument("--transform", choices=("affine", "cubic", "exp"),
                   required=True)
    p.add_argument("--transform-params",
                   help="comma-separated parameters (affine: a,b)")
    p.add_argument("--density-a", help="system A density as JSON "
                                       "(default: bundled mixture pair)")
    p.add_argument("--density-b", help="system B density as JSON")
    p.add_argument("--y-min", dest="y_min_flip", type=float, default=10.0)
    p.add_argument("--y-max", dest="y_max_flip", type=float, default=13.0)
    p.add_argument("--points", type=int)
    p.add_argument("--tol", type=float, default=1e-6)
    common(p, fmt=("json",), default_fmt="json")
    monte_carlo(p)
    p.set_defaults(func=cmd_flip)

    p = sub.add_parser("archive-eval", help="score every system in a "
                                            "forecast archive")
    p.add_argument("--archive", required=True, help="archive file path")
    p.add_argument("--input-format", choices=("jsonl", "csv"),
                   default="jsonl")
    p.add_argument("--systems", help="comma-separated system names "
                                     "(default: all, sorted)")
    p.add_argument("--families", default="ignorance,crps",
                   help="comma-separated score families to apply")
    p.add_argument("--alpha", type=float, default=2.0,
                   help="power exponent when 'power' is listed")
    p.add_argument("--beta", type=float, default=2.0,
                   help="pseudospherical/energy exponent when listed")
    p.add_argument("--density-floor", type=float)
    common(p, default_fmt="json")
    monte_carlo(p)
    p.set_defaults(func=cmd_archive_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, NumericalFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
