"""Run one benchmark workload in two checkouts, in alternating pairs.

    python3 tools/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT \
        --workload W --pairs N --out FILE [--first-seed S]

Pair i runs `python3 bench/run.py --workload W --seed S+i --seconds R`
once in each checkout, where R is the `run_seconds` of the parent's
BENCHMARK.json: the parent first in even pairs and the change first in
odd ones, one run at a time, so the two sides never share the machine.

FILE is a JSON object keyed by workload; this workload's entry is
written (an existing file keeps its other workloads). The entry holds
every run's output line, each side's failed share (failed operations
over attempted ones, all runs together) and, for each end-to-end
metric, each side's median and quartiles (inclusive method), the
change's wins (pairs in which the change's value is better in the
metric's direction, ties counting for neither side) and a verdict:

    worse       the change's median is worse than the parent's by more
                than the metric's `bound`, a fraction of the parent's
                median;
    better      the change wins at least 9 of every 10 pairs and its
                median is better than the parent's by more than the
                parent's quartile spread;
    unresolved  neither.

A run whose output line is not `correct` ends the script with exit 1.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited "
                         f"{proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {' '.join(argv)} was not correct\n"
                         f"{proc.stderr}")
    return result


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(spec: dict, runs: dict) -> dict:
    """Each side's failed share and, per end-to-end metric, each side's
    median and quartiles, the pairs the change wins and the verdict."""
    summary = {"failed_share": {
        side: sum(r["failed"] for r in runs[side])
        / sum(r["attempted"] for r in runs[side]) for side in SIDES}}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        wins = sum(sign * (c - p) < 0
                   for p, c in zip(values["parent"], values["change"]))
        spread = {side: _spread(values[side]) for side in SIDES}
        parent, pairs = spread["parent"], len(values["parent"])
        gain = sign * (parent["median"] - spread["change"]["median"])
        if -gain > metric["bound"] * abs(parent["median"]):
            verdict = "worse"
        elif 10 * wins >= 9 * pairs and gain > parent["q3"] - parent["q1"]:
            verdict = "better"
        else:
            verdict = "unresolved"
        summary[name] = {**spread, "change_wins": wins, "pairs": pairs,
                         "verdict": verdict}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = [args.first_seed + i for i in range(args.pairs)]
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(_run(checkouts[side], args.workload, seed, seconds))
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: op_p50_ms "
                  f"{runs[side][-1]['metrics']['op_p50_ms']['value']:.4g}",
                  file=sys.stderr)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.workload] = {
        "machine": {"python": platform.python_version(),
                    "platform": platform.platform()},
        "command": f"python3 bench/run.py --workload {args.workload} "
                   f"--seed <seed> --seconds {seconds}",
        "seeds": seeds,
        "first_side": [SIDES[i % 2] for i in range(args.pairs)],
        "summary": summarize(spec, runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
