"""Run one workload's commands through ``psl.cli.main`` in this process.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.
It makes an untimed warm-up pass, whose outputs are the ones checked,
then timed passes until the time budget is spent.  With ``--trace 1``
the timed passes alternate between untraced and traced, so the same
process yields the tracing overhead.  ``speed.Sampler`` runs during the
timed passes; each command's time is recorded both as measured and
calibrated.  The result is one JSON file.

    python3 perfbench/worker.py --plan plan.json --seconds 25 \
        --trace 0 --out result.json [--spans spans.npz]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import time

import psl.cli

import speed
from tracer import Tracer


def run_pass(commands):
    """Run every command once.

    Returns a dict with the start and end of each command, the CPU
    time of the commands, the outputs and their digests.
    """
    outputs, intervals = [], []
    cpu = 0.0
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        c0 = time.process_time()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = psl.cli.main(argv)
        intervals.append((t0, time.perf_counter()))
        cpu += time.process_time() - c0
        outputs.append((rc, out.getvalue(), err.getvalue()))
    digests = [hashlib.sha256(f"{rc}\n{o}".encode()).hexdigest()
               for rc, o, _ in outputs]
    return {"intervals": intervals, "cpu_s": cpu, "outputs": outputs,
            "digests": digests}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        commands = json.load(fh)

    warmup = run_pass(commands)
    passes, traces = [], []
    tracer = None
    unwrapped = []
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        while True:
            traced = args.trace == 1 and len(passes) % 2 == 1
            if traced:
                tracer = Tracer()
                tracer.install()
            try:
                p = run_pass(commands)
            finally:
                if traced:
                    tracer.uninstall()
            walls, calibrated = zip(*(sampler.calibrated(t0, t1)
                                      for t0, t1 in p.pop("intervals")))
            outputs = p.pop("outputs")
            p.update(traced=traced, wall_s=sum(walls), command_wall_s=walls,
                     command_s=calibrated,
                     bytes_out=sum(len(o.encode()) for _, o, _ in outputs))
            passes.append(p)
            if traced:
                traces.append(tracer.aggregate())
                unwrapped = tracer.unwrapped
            # Stop before a pass that would overrun the budget; a traced
            # run ends on a traced pass, so the two kinds pair up.
            spent = time.perf_counter() - start
            median = statistics.median(q["wall_s"] for q in passes)
            if spent + median > args.seconds and (args.trace == 0 or traced):
                break
    if tracer is not None and args.spans:
        tracer.save(args.spans)

    result = {
        "outputs": [{"rc": rc, "stdout": o, "stderr": e}
                    for rc, o, e in warmup["outputs"]],
        "digests": warmup["digests"],
        "passes": passes,
        "traces": traces,
        "unwrapped": unwrapped,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
