"""flowbound benchmark: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload witness-cli --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from `src/`.
With `--trace 0` the run makes the workload's once-per-run calls, then
repeats identical rounds of its operations until `--seconds` have
passed and at least 100 unit operations were timed, and reports the
end-to-end metrics. Times are in reference seconds (see `speed.py`).
With `--trace 1` it runs one round with the wrappers of `tracing.py` in
place between two rounds with tracing off, and reports per-layer
metrics plus the tracing overhead. Either way it checks the last
round's outputs with `checks.py` and prints, as the last line of
standard output, {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_OPS = 100      # a p90 with ten samples beyond it
SETUP_RUNS = 9

# metric names and units, in the order BENCHMARK.json lists them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def setup_seconds(sw, systems) -> float:
    """Median, in reference seconds, of a fresh interpreter that imports
    flowbound, parses the workload's systems and generates their code."""
    code = ("import flowbound, flowbound.cli\n"
            f"for name in {tuple(systems)!r}:\n"
            "    f = flowbound.load_system(name)\n"
            "    f.compiled_rhs(); f.compiled_tangent_rhs()\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", code]
    return statistics.median(
        sw.time(subprocess.run, argv, env=env, check=True, cwd=ROOT,
                stdin=subprocess.DEVNULL)[1]
        for _ in range(SETUP_RUNS))


def measure(workload, seconds):
    """`once`, then rounds until `seconds` have passed and at least
    MIN_OPS unit operations were timed."""
    from speed import Stopwatch
    sw = Stopwatch()
    start = time.perf_counter()
    first = workload.once(sw)
    rounds = []
    while (time.perf_counter() - start < seconds
           or sum(len(r.op_ms) for r in rounds) < MIN_OPS):
        rounds.append(workload.round(sw))
        workload.after_round()
    ops = [ms for r in rounds for ms in r.op_ms]
    longs = [s for r in [first, *rounds] for s in r.long_s]
    metrics = {
        "wall_s": first.wall_s + statistics.median(r.wall_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": statistics.median(ops),
        "op_p90_ms": statistics.quantiles(ops, n=10, method="inclusive")[-1],
        "long_call_s": statistics.median(longs),
    }
    return [first, *rounds], metrics


def measure_traced(fb, workload, trace_path):
    """Kernel costs; then `once` and one round traced, that round
    between two untraced ones. The overhead is the traced round's time
    minus the mean of its neighbours. Span times are scaled to reference
    seconds by the mean scale of the traced calls."""
    import tracing
    import workloads
    from speed import Stopwatch
    sw = Stopwatch()
    metrics = tracing.kernel_values(
        sw, fb, workloads.on_attractor(np.random.default_rng(0), 1)[0])
    tracer = tracing.Tracer()
    runs, raw_s, ref_s = [], 0.0, 0.0
    for step in ("once", "untraced", "traced", "untraced"):
        traced = step in ("once", "traced")
        if traced:
            tracer.install(fb)
            raw_s, ref_s = raw_s - sw.raw_s, ref_s - sw.ref_s
        try:
            if step == "once":
                runs.append(workload.once(sw, tracer))
            else:
                runs.append(workload.round(sw, tracer if traced else None))
        finally:
            tracer.uninstall()
        if traced:
            raw_s, ref_s = raw_s + sw.raw_s, ref_s + sw.ref_s
        if step != "once":
            workload.after_round()
    tracer.dump(trace_path)
    scale = ref_s / raw_s
    for name, value in tracer.layer_values().items():
        metrics[name] = value * scale if LAYER_UNITS[name] == "s" else value
    walls = [r.wall_s for r in runs[1:]]
    untraced = 0.5 * (walls[0] + walls[2])
    metrics["cli.artifact_bytes"] = tracer.counts["artifact_bytes"]
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = walls[1]
    metrics["trace.overhead_s"] = walls[1] - untraced
    return runs, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flowbound" / "__init__.py").is_file():
        print(f"no flowbound sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    kind = workloads.WORKLOADS[args.workload]

    # one core for the whole run, children included, so that every
    # calibration runs on the core whose speed it stands for
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import flowbound as fb
    import flowbound.cli  # noqa: F401  (makes fb.cli available)
    from speed import Stopwatch
    setup = None if args.trace else setup_seconds(Stopwatch(), kind.systems)
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = kind(fb, args.seed, out_dir)

    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        runs, values = measure_traced(fb, workload, trace_path)
        units = LAYER_UNITS
    else:
        runs, values = measure(workload, args.seconds)
        values["setup_s"] = setup
        units = END_TO_END_UNITS
    problems = workload.check()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} rounds={len(runs) - 1} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
