"""Record the reference outputs that ``run.py`` checks every seed against.

Run from the repository root at a commit whose numbers are trusted:

    python3 perfbench/record.py

It runs the CLI on the superset of every seeded input (the widest
figure grids, the longest pair lists, every witness ratio, every pool
event) and writes ``perfbench/reference/<workload>.json.gz``.  A change
that claims a gain must not re-record.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from psl import analysis, archive, distributions, scores  # noqa: E402

import workloads as wl  # noqa: E402
from check import parse_csv  # noqa: E402
from worker import run_pass  # noqa: E402

REFERENCE = HERE / "reference"
OUT = HERE / "out"


def cli(argv):
    rc, out, err = run_pass([argv])["outputs"][0]
    if err:
        raise RuntimeError(f"{' '.join(argv)} wrote to stderr: {err}")
    return rc, out


def table(argv, expect_rc=0) -> dict:
    rc, out = cli(argv)
    if rc != expect_rc:
        raise RuntimeError(f"{' '.join(argv)} exited {rc}")
    meta, cols, rows = parse_csv(out)
    return {"meta": meta, "columns": cols, "rows": rows}


def record_figures() -> dict:
    figures = {}
    for fig in wl.FIGURE_GRIDS:
        t = table(wl.figure_argv(fig, *wl.superset_lattice(fig)))
        t["scale"] = [0.0] + [max(abs(float(r[c])) for r in t["rows"])
                              for c in range(1, len(t["columns"]))]
        figures[str(fig)] = t

    flip = {}
    lo, hi = wl.FLIP_RANGE
    for family in ("crps", "ignorance"):
        _, out = cli(wl.flip_argv(family, lo, hi, wl.FLIP_POINTS, "1e-12"))
        flip[family] = {"output": json.loads(out)}
    # How fast the reported relative scores move with the flip point, so
    # a flip point found to the bisection tolerance can be checked.
    y = flip["crps"]["output"]["y"]
    a, b = analysis.transform_flip_pair()
    spec = scores.ScoreSpec("crps")
    h = 1e-5
    rel = [analysis.transformed_relative_score(
        spec, a, b, y + d, distributions.cubic_transform())
        for d in (-h, 0.0, h)]
    for i, key in enumerate(("relative_pre", "relative_post")):
        flip["crps"][f"slope_{key}"] = max(
            abs(rel[1][i] - rel[0][i]), abs(rel[2][i] - rel[1][i])) / h
    return {"figures": figures, "flip": flip}


def record_propriety() -> dict:
    pairs = wl.PAIRS + wl.PAIRS_JITTER
    check_proper = {}
    for pair_seed in wl.PAIR_SEEDS:
        check_proper[str(pair_seed)] = {
            family: table(wl.check_proper_argv(family, pairs, pair_seed),
                          expect_rc=4 if family == "naive_linear" else 0)
            for family in wl.FAMILY_ARGS}
    witness = {}
    for family in wl.WITNESS_FAMILIES:
        mc_seeds = wl.ENERGY_MC_SEEDS if family == "energy" else (None,)
        for ratio in wl.WITNESS_RATIOS:
            for mc_seed in mc_seeds:
                params = {"family": family, "ratio": ratio}
                if mc_seed is not None:
                    params["mc_seed"] = mc_seed
                rc, out = cli(wl.witness_argv(params))
                if rc != 0:
                    raise RuntimeError(f"witness {params} exited {rc}")
                witness[wl.witness_key(params)] = json.loads(out)
    return {"check_proper": check_proper, "witness": witness}


def record_archive() -> dict:
    lines = wl.archive_pool()
    records = archive.load_archive(lines)
    specs = {"crps": scores.ScoreSpec("crps"),
             "power": scores.ScoreSpec("power", alpha=2.0)}
    out = {"families": list(wl.ARCHIVE_FAMILIES),
           "pool_sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
           "log_pdf": [], "crps": [], "power": []}
    for rec in records:
        out["log_pdf"].append([float(rec.forecasts[s].log_pdf(rec.outcome))
                               for s in wl.SYSTEMS])
        for key, spec in specs.items():
            out[key].append([scores.score(spec, rec.forecasts[s],
                                          rec.outcome).value
                             for s in wl.SYSTEMS])
    return out


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    path = OUT / "archive-record.jsonl"
    wl.write_archive(path, wl.archive_indices(0))
    recorders = {"figures": record_figures, "propriety": record_propriety,
                 "archive": record_archive}
    for workload, recorder in recorders.items():
        ref = recorder()
        plan = wl.plan_for(workload, 0, str(path))
        digests = run_pass([c.argv for c in plan])["digests"]
        ref["seed0_digests"] = dict(zip((c.name for c in plan), digests))
        blob = json.dumps(ref, sort_keys=True).encode()
        (REFERENCE / f"{workload}.json.gz").write_bytes(
            gzip.compress(blob, mtime=0))
        print(f"{workload}: {len(blob)} bytes of reference", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
