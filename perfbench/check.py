"""Field-by-field comparison of command outputs with the recorded reference.

Tolerances are the ones each command promises, never a byte hash:

- scores and expected scores: the quadrature ``rel_tol`` of 1e-9,
  taken against ``|ref|`` plus the column's scale (at least 1), since a
  relative score is a difference of two integrals of that scale;
- numbers printed at 9 significant digits: one more unit in the 9th
  digit, because two equal-to-tolerance values may round apart;
- propriety margins: an absolute 1e-8 (margins are differences of
  expected scores of order 1); L1 distances: their own 1e-8 tolerance;
- bisected points (flip windows, figure-5 thresholds): the bisection
  tolerance, and a flip's relative scores by the recorded slope times
  that tolerance;
- exit codes, counts, flags, names and densities: exact.

Each check returns a list of messages, empty when the output agrees.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import (ARCHIVE_FAMILIES, SYSTEMS, fmt, witness_key)

SCORE_RTOL = 1e-9
MARGIN_ATOL = 1e-8
L1_TOL = 1e-8
_INV_LN2 = 1.0 / math.log(2.0)


def unit9(x: float) -> float:
    """One unit in the 9th significant digit of x."""
    if x == 0.0 or not math.isfinite(x):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(x))) - 8)


def as_number(v):
    if isinstance(v, str):
        v = {"infinity": "inf", "-infinity": "-inf"}.get(v, v)
    return float(v)


def close(got, ref, *, rtol=SCORE_RTOL, atol=0.0, printed=False) -> bool:
    try:
        g, r = as_number(got), as_number(ref)
    except (TypeError, ValueError):
        return False
    if not (math.isfinite(g) and math.isfinite(r)):
        return g == r or (math.isnan(g) and math.isnan(r))
    tol = rtol * abs(r) + atol + (unit9(r) if printed else 0.0)
    return abs(g - r) <= tol


def compare_json(got, ref, path="", **tol) -> list:
    """Recursive comparison: numbers within ``tol``, all else exact."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path or '/'}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(ref)}"]
        return [m for k in ref
                for m in compare_json(got[k], ref[k], f"{path}/{k}", **tol)]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: list length differs"]
        return [m for i, (g, r) in enumerate(zip(got, ref))
                for m in compare_json(g, r, f"{path}/{i}", **tol)]
    numeric = (isinstance(ref, (int, float)) and not isinstance(ref, bool)
               or ref in ("infinity", "-infinity", "nan"))
    if numeric and not isinstance(got, bool):
        if close(got, ref, **tol):
            return []
    elif got == ref and type(got) is type(ref):
        return []
    return [f"{path}: {got!r} != reference {ref!r}"]


def parse_csv(text: str):
    """Commented CSV -> (meta dict, column names, rows of strings)."""
    meta, lines = {}, text.splitlines()
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(" = ")
        meta[key] = value
    if not lines:
        return meta, [], []
    return meta, lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _snap_grid(lo: float, hi: float, points: int) -> list:
    return [fmt(float(fmt(v))) for v in np.linspace(lo, hi, points)]


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def check_figure(cmd, out: str, ref: dict) -> list:
    p = cmd.params
    meta, cols, rows = parse_csv(out)
    errors = []
    if cols != ref["columns"]:
        return [f"columns {cols} != {ref['columns']}"]
    grid_key = "sigma_grid" if p["fig"] == 1 else "y_grid"
    want_meta = dict(ref["meta"])
    want_meta[grid_key] = f"linspace({p['lo']:g}, {p['hi']:g}, {p['points']})"
    if set(meta) != set(want_meta):
        errors.append(f"header keys {sorted(meta)} != {sorted(want_meta)}")
    for key, want in want_meta.items():
        got = meta.get(key)
        if key.endswith("_threshold"):
            ok = close(got, want, rtol=0.0, atol=1e-9, printed=True)
        else:
            ok = got == want
        if not ok:
            errors.append(f"header {key}: {got!r} != {want!r}")
    keys = _snap_grid(p["lo"], p["hi"], p["points"])
    if [r[0] for r in rows] != keys:
        return errors + [f"grid of {len(rows)} rows differs from the "
                         f"expected {p['points']}-point lattice"]
    # Rows are matched to the nearest reference abscissa: a lattice point
    # at zero may print as a rounding residue such as 8.8817842e-16.
    ref_y = np.array([float(r[0]) for r in ref["rows"]])
    step = float(np.min(np.diff(ref_y)))
    scale = ref["scale"]
    for row in rows:
        i = int(np.argmin(np.abs(ref_y - float(row[0]))))
        want = ref["rows"][i]
        if abs(ref_y[i] - float(row[0])) > 1e-9 * step or len(row) != len(want):
            errors.append(f"row {row[0]}: not in the reference")
            continue
        for c, (g, w) in enumerate(zip(row[1:], want[1:]), start=1):
            if not close(g, w, atol=SCORE_RTOL * max(1.0, scale[c]),
                         printed=True):
                errors.append(f"row {row[0]} {cols[c]}: {g} != {w}")
    return errors


def check_flip(cmd, out: str, ref: dict) -> list:
    got = json.loads(out)
    want = ref["output"]
    if want.get("flip", "") is None or got.get("flip", "") is None:
        return compare_json(got, want)
    tol = cmd.params["tol"]
    exact = {k: got.get(k) for k in ("score", "system_a", "system_b",
                                     "transform")}
    errors = compare_json(exact, {k: want[k] for k in exact})
    if set(got) != set(want):
        errors.append(f"keys {sorted(got)} != {sorted(want)}")
        return errors
    for i in (0, 1):
        if not close(got["window"][i], want["window"][i], rtol=0.0, atol=tol):
            errors.append(f"window[{i}] {got['window'][i]!r} is not within "
                          f"{tol:g} of {want['window'][i]!r}")
    if not close(got["y"], want["y"], rtol=0.0, atol=tol):
        errors.append(f"y {got['y']!r} is not within {tol:g} of {want['y']!r}")
    for key in ("relative_pre", "relative_post"):
        atol = 2.0 * ref[f"slope_{key}"] * tol + SCORE_RTOL
        if not close(got[key], want[key], atol=atol):
            errors.append(f"{key} {got[key]!r} != reference {want[key]!r}")
    if not got["relative_pre"] * got["relative_post"] < 0.0:
        errors.append("reported flip does not reverse the preference")
    return errors


# ---------------------------------------------------------------------------
# propriety
# ---------------------------------------------------------------------------

def check_proper(cmd, out: str, ref: dict) -> list:
    n_rows = 2 * (cmd.params["pairs"] + 1)
    rows_ref = ref["rows"][:n_rows]
    violation = any(r[3] == "1" for r in rows_ref)
    errors = []
    meta, cols, rows = parse_csv(out)
    want_meta = dict(ref["meta"], pairs=str(cmd.params["pairs"]),
                     passed=str(not violation))
    if meta != want_meta:
        errors.append(f"header {meta} != {want_meta}")
    if cols != ref["columns"]:
        return errors + [f"columns {cols} != {ref['columns']}"]
    if len(rows) != n_rows:
        return errors + [f"{len(rows)} rows, expected {n_rows}"]
    for got, want in zip(rows, rows_ref):
        if (got[0], got[3]) != (want[0], want[3]):
            errors.append(f"pair {want[0]}: {got} != {want}")
        elif not close(got[1], want[1], atol=MARGIN_ATOL, printed=True):
            errors.append(f"pair {want[0]} margin {got[1]} != {want[1]}")
        elif not close(got[2], want[2], rtol=L1_TOL, atol=L1_TOL,
                       printed=True):
            errors.append(f"pair {want[0]} l1 {got[2]} != {want[2]}")
    return errors


def check_witness(cmd, out: str, ref: dict) -> list:
    want = ref.get(witness_key(cmd.params))
    if want is None:
        return [f"no reference for witness {witness_key(cmd.params)}"]
    return compare_json(json.loads(out), want, atol=1e-10)


# ---------------------------------------------------------------------------
# archive
# ---------------------------------------------------------------------------

def _round9(x: float):
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "infinity" if x > 0 else "-infinity"
    return float(f"{x:.9g}")


def expected_archive_report(ref: dict, indices: list) -> dict:
    """The report archive-eval must print for the pool events ``indices``.

    Means are taken over the recorded per-event values in file order
    with ``np.mean``, as the archive module takes them.
    """
    idx = np.asarray(indices)
    lp = np.asarray(ref["log_pdf"], dtype=float)[idx]
    per_family = {
        "ignorance": np.where(np.isinf(lp), np.inf, -lp * _INV_LN2 + 0.0),
        "crps": np.asarray(ref["crps"], dtype=float)[idx],
        "power(alpha=2)": np.asarray(ref["power"], dtype=float)[idx],
    }
    systems = {}
    for s, name in enumerate(SYSTEMS):
        systems[name] = {
            label: {"mean": _round9(float(np.mean(vals[:, s]))),
                    "infinite_records": int(np.sum(np.isinf(vals[:, s])))}
            for label, vals in per_family.items()}
    relative = []
    for i, s1 in enumerate(SYSTEMS):
        for j in range(i + 1, len(SYSTEMS)):
            bits = float(np.mean(-(lp[:, i] - lp[:, j]) * _INV_LN2))
            relative.append({"system1": s1, "system2": SYSTEMS[j],
                             "bits": _round9(bits),
                             "probability_ratio": _round9(2.0 ** (-bits))})
    return {"records": len(indices), "systems": systems,
            "relative_ignorance": relative}


def check_archive(cmd, out: str, ref: dict) -> list:
    if tuple(ref["families"]) != ARCHIVE_FAMILIES:
        return [f"reference holds families {ref['families']}"]
    want = expected_archive_report(ref, cmd.params["indices"])
    return compare_json(json.loads(out), want, atol=SCORE_RTOL,
                        printed=True)


def check_command(cmd, rc: int, out: str, reference: dict) -> list:
    """Messages for every way the output of ``cmd`` misses the reference."""
    if rc != cmd.expect_rc:
        return [f"exit code {rc}, expected {cmd.expect_rc}"]
    p = cmd.params
    try:
        if cmd.name.startswith("check-proper"):
            return check_proper(cmd, out, reference["check_proper"]
                                [str(p["pair_seed"])][p["family"]])
        if cmd.name.startswith("figure"):
            return check_figure(cmd, out,
                                reference["figures"][str(p["fig"])])
        if cmd.name.startswith("flip"):
            return check_flip(cmd, out,
                              reference["flip"][p["family"]])
        if cmd.name.startswith("witness"):
            return check_witness(cmd, out, reference["witness"])
        return check_archive(cmd, out, reference)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
