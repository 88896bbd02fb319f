"""Benchmark for ``psl``: one workload, one seed, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures --seed 0 --seconds 25 \
        --trace 0

With ``--trace 0`` it measures the end-to-end metrics: set-up time of a
fresh interpreter (``import psl.cli`` plus ``build_parser()``), then a
worker interpreter that calls ``psl.cli.main(argv)`` for every command
of the workload, once to warm up and then in timed passes.  With
``--trace 1`` the worker alternates untraced and traced passes and the
per-layer metrics come from the traced ones.  Every output is checked
against ``reference/`` (see ``check.py``).  The last line of standard
output is one JSON object; everything before it is for people.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed
import workloads as wl
from check import check_command

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_RUNS = 5
DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# (metric, unit, layer name in the trace, field).  Counts must repeat
# exactly between traced passes; times are medians over them.
LAYER_METRICS = [
    ("quadrature.integrate.calls", "count", "quadrature.integrate", "calls"),
    ("quadrature.integrate.self_s", "s", "quadrature.integrate", "self_s"),
    ("quadrature.integrate.panels", "count", "quadrature.integrate",
     "panels"),
    ("quadrature.integrate.integrand_points", "count",
     "quadrature.integrate", "n"),
    ("quadrature.integrate.failures", "count", "quadrature.integrate",
     "failures"),
]
for _m in ("pdf", "cdf", "log_pdf"):
    LAYER_METRICS += [
        (f"distributions.{_m}.calls", "count", f"distributions.{_m}", "calls"),
        (f"distributions.{_m}.points", "count", f"distributions.{_m}", "n"),
        (f"distributions.{_m}.self_s", "s", f"distributions.{_m}", "self_s"),
    ]
LAYER_METRICS += [
    ("distributions.cdf_minus.calls", "count", "distributions.cdf_minus",
     "calls"),
    ("distributions.sample.draws", "count", "distributions.sample", "n"),
]
for _f in ("lp_norm_integral", "density_from_json"):
    LAYER_METRICS += [
        (f"distributions.{_f}.calls", "count", f"distributions.{_f}", "calls"),
        (f"distributions.{_f}.self_s", "s", f"distributions.{_f}", "self_s"),
    ]
for _mod, _fns in (
        ("scores", ("ignorance", "crps", "energy_score", "power_score",
                    "pseudospherical_score", "naive_linear_score")),
        ("analysis", ("expected_score", "l1_distance",
                      "expected_energy_score_exact",
                      "inverse_width_skill_curve", "relative_score_curve",
                      "find_preference_flip", "sign_change_root",
                      "construct_witness"))):
    for _f in _fns:
        LAYER_METRICS += [
            (f"{_mod}.{_f}.calls", "count", f"{_mod}.{_f}", "calls"),
            (f"{_mod}.{_f}.self_s", "s", f"{_mod}.{_f}", "self_s"),
        ]
LAYER_METRICS += [
    ("archive.load_archive.self_s", "s", "archive.load_archive", "self_s"),
    ("archive.load_archive.records", "count", "archive.load_archive", "n"),
    ("archive.empirical_score.self_s", "s", "archive.empirical_score",
     "self_s"),
    ("archive.relative_empirical_ignorance.self_s", "s",
     "archive.relative_empirical_ignorance", "self_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
]
# Per-call cost (inclusive time over calls) of the paths the ROADMAP
# grounding table times by hand.
PER_CALL = [
    ("scores.ignorance.per_call_ms", "scores.ignorance"),
    ("scores.crps.gaussian.per_call_ms", "scores.crps:gaussian"),
    ("scores.crps.mixture.per_call_ms", "scores.crps:mixture"),
    ("scores.crps.cubic.per_call_ms", "scores.crps:cubic"),
    ("scores.crps.hist.per_call_ms", "scores.crps:hist"),
    ("scores.energy_score.per_call_ms", "scores.energy_score"),
    ("analysis.propriety_check.crps.per_call_ms",
     "analysis.propriety_check:crps"),
]
COUNT_FIELDS = ("calls", "n", "panels", "failures")


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"), **THREAD_ENV}


def load_reference(workload: str) -> dict:
    with gzip.open(HERE / "reference" / f"{workload}.json.gz") as fh:
        return json.load(fh)


SETUP_CODE = """\
import time
t0 = time.perf_counter()
import psl.cli
psl.cli.build_parser()
t1 = time.perf_counter()
import statistics, speed
print(t1 - t0, statistics.median(speed.kernel() for _ in range(10)))
"""


def measure_setup(env: dict, deadline: float) -> list:
    """Set-up times of fresh interpreters, in calibrated seconds.

    Each child times ``import psl.cli`` plus ``build_parser()`` and then
    ten runs of the speed kernel, whose median calibrates it; the first
    child only warms the file caches.
    """
    times = []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, check=True,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic())).stdout
        setup, kernel = map(float, out.split())
        times.append(setup * speed.REFERENCE_S / kernel)
    return times[1:]


def pass_wall(passes: list) -> float:
    """Calibrated wall time of one pass over the workload's commands:
    the sum over commands of each command's median over ``passes``
    (calibration in ``speed.py``)."""
    per_command = zip(*(p["command_s"] for p in passes))
    return sum(statistics.median(ts) for ts in per_command)


def layer_metrics(traces: list, passes: list) -> tuple:
    """Per-layer metrics and messages for counts that did not repeat."""
    errors = []
    first = traces[0]
    for i, tr in enumerate(traces[1:], start=2):
        for name in set(first) | set(tr):
            a, b = first.get(name, {}), tr.get(name, {})
            if any(a.get(f, 0) != b.get(f, 0) for f in COUNT_FIELDS):
                errors.append(f"traced pass {i}: counts of {name} differ "
                              f"from pass 1")

    def value(name, field):
        if field in COUNT_FIELDS:
            return first.get(name, {}).get(field, 0)
        return statistics.median(t.get(name, {}).get(field, 0.0)
                                 for t in traces)

    metrics = {m: {"value": value(name, field), "unit": unit}
               for m, unit, name, field in LAYER_METRICS}
    points = sum(first.get(f"distributions.{m}", {}).get("n", 0)
                 for m in ("pdf", "cdf", "log_pdf"))
    calls = sum(first.get(f"distributions.{m}", {}).get("calls", 0)
                for m in ("pdf", "cdf", "log_pdf"))
    metrics["distributions.points_per_call"] = {
        "value": points / calls if calls else 0.0, "unit": "count"}
    for metric, name in PER_CALL:
        calls = first.get(name, {}).get("calls", 0)
        total = value(name, "total_s")
        metrics[metric] = {"value": 1e3 * total / calls if calls else 0.0,
                           "unit": "ms"}
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics["cli.bytes_out"] = {"value": traced[0]["bytes_out"],
                                "unit": "count"}
    metrics["cli.cpu_s"] = {
        "value": statistics.median(p["cpu_s"] for p in untraced), "unit": "s"}
    metrics["trace.overhead_frac"] = {
        "value": pass_wall(traced) / pass_wall(untraced) - 1.0,
        "unit": "ratio"}
    return metrics, errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    src = Path.cwd() / "src"
    if not (src / "psl" / "cli.py").is_file():
        print("run.py: no src/psl/cli.py here; run from the root of a psl "
              "checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]),
               **THREAD_ENV)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    reference = load_reference(args.workload)

    archive_path = OUT / f"archive-{args.seed}.jsonl"
    if args.workload == "archive":
        pool = "\n".join(wl.archive_pool()).encode()
        if hashlib.sha256(pool).hexdigest() != reference["pool_sha256"]:
            print("run.py: the archive pool differs from the recorded one",
                  file=sys.stderr)
            return 2
        wl.write_archive(archive_path, wl.archive_indices(args.seed))
    plan = wl.plan_for(args.workload, args.seed, str(archive_path))
    plan_path = OUT / f"plan-{stem}.json"
    plan_path.write_text(json.dumps([c.argv for c in plan]), encoding="utf-8")

    setup = [] if args.trace else measure_setup(env, deadline)
    result_path = OUT / f"worker-{stem}.json"
    worker = [sys.executable, str(HERE / "worker.py"), "--plan",
              str(plan_path), "--seconds", str(args.seconds), "--trace",
              str(args.trace), "--out", str(result_path)]
    if args.trace:
        worker += ["--spans", str(OUT / f"spans-{stem}.npz")]
    subprocess.run(worker, env=env, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    result = json.loads(result_path.read_text(encoding="utf-8"))

    # Correctness: the warm-up outputs against the reference, then every
    # timed pass (traced or not) byte for byte against the warm-up.
    errors = {}
    for cmd, out in zip(plan, result["outputs"]):
        msgs = check_command(cmd, out["rc"], out["stdout"], reference)
        if msgs:
            errors[cmd.name] = msgs + ([out["stderr"].strip()]
                                       if out["stderr"] else [])
    attempted, failed = len(plan), len(errors)
    for i, p in enumerate(result["passes"], start=1):
        for cmd, want, got in zip(plan, result["digests"], p["digests"]):
            attempted += 1
            if got != want:
                failed += 1
                errors.setdefault(cmd.name, []).append(
                    f"pass {i}{' (traced)' if p['traced'] else ''}: output "
                    f"differs from the warm-up pass")

    untraced = [p for p in result["passes"] if not p["traced"]]
    wall = pass_wall(untraced)
    units = wl.units(args.workload, plan)
    if args.trace:
        metrics, trace_errors = layer_metrics(result["traces"],
                                              result["passes"])
        if trace_errors:
            failed += 1
            errors["trace"] = trace_errors
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "units_per_s": {"value": units / wall, "unit": "units/s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0,
                            "unit": "MB"},
        }

    env_info = environment()
    recorded = reference["seed0_digests"] if args.seed == 0 else {}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k}={v}" for k, v in env_info.items()))
    for cmd, digest in zip(plan, result["digests"]):
        note = ""
        if cmd.name in recorded:
            note = ("  (as recorded)" if recorded[cmd.name] == digest
                    else "  (differs from the recorded digest)")
        status = "FAILED" if cmd.name in errors else "ok"
        print(f"  {cmd.name:<30} {status:<6} sha256 {digest[:16]}{note}")
        for msg in errors.get(cmd.name, [])[:5]:
            print(f"      {msg}")
    for msg in errors.get("trace", []):
        print(f"  trace: {msg}")
    for msg in result["unwrapped"]:
        print(f"  trace: not traced, {msg}")
    print(f"  {len(result['passes'])} timed passes; uncalibrated wall of "
          "the untraced ones " + ", ".join(f"{p['wall_s']:.3f}"
                                           for p in untraced)
          + f" s; {units} units per pass")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:<14.6g} {m['unit']}")
    print(f"  {'failed_frac':<44} {failed / attempted:<14.6g} ratio "
          f"({failed} of {attempted} command runs)")

    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        **summary, "workload": args.workload, "seed": args.seed,
        "environment": env_info, "setup_runs_s": setup,
        "passes": [{k: v for k, v in p.items() if k != "digests"}
                   for p in result["passes"]],
        "digests": dict(zip((c.name for c in plan), result["digests"])),
        "errors": errors}, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
