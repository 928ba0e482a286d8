#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Usage, from the repository root:

    python3 perfbench/steady.py --workload <name> [--seeds 1 2 3 ...] [--seconds S]

1. Runs the untraced benchmark once per seed and prints, for every end-to-end
   metric, the median and the spread between the first and third quartile as a
   share of the median (`statistics.quantiles(values, n=4)`), next to the metric's
   bound from BENCHMARK.json. A spread at or above the bound fails the check.
2. Runs the traced benchmark twice on the first seed and fails unless the work
   counters repeat exactly.

Exits non-zero on any failed run, spread or counter.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTERS = [
    "exec.sim_ops", "exec.games", "exec.player_slots", "exec.solo_calls",
    "trace.events", "json.trace_bytes", "tournament.rounds", "scenario.preemptions",
]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed (exit {out.returncode}): {' '.join(cmd)}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"run reported wrong outputs: {' '.join(cmd)}")
    return result["metrics"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    ok = True
    values = {}
    for seed in args.seeds:
        metrics = run(args.workload, seed, args.seconds, 0)
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in metrics.items()), flush=True)
    print(f"\n{args.workload}: {len(args.seeds)} runs")
    for spec in bench["end_to_end"]:
        vals = values[spec["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        exempt = spec["name"] == "setup_s"
        verdict = "ok" if spread < spec["bound"] / 3 else (
            "wide" if spread < spec["bound"] else "FAIL")
        if verdict == "FAIL" and not exempt:
            ok = False
        print(f"  {spec['name']:<20} median {med:<14.6g} spread {spread:7.4f} "
              f"bound {spec['bound']:.2f} {verdict}{' (exempt)' if exempt else ''}")

    first, second = (run(args.workload, args.seeds[0], args.seconds, 1)
                     for _ in range(2))
    for name in COUNTERS:
        same = first[name]["value"] == second[name]["value"]
        ok &= same
        print(f"  {name:<20} {first[name]['value']:.0f} "
              f"{'repeats' if same else 'DIFFERS: %s' % second[name]['value']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
