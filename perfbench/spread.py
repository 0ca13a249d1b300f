#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload daemon-warm --seeds 1-10 [--seconds N]

Runs perfbench/run.py once per seed (untraced), then prints, for every
end-to-end metric, the median over the runs and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json and
a third of it.  Each run's host reference (a fixed memory-bound task
timed before and after the run, from the context line) is printed next to
its figures, so host drift shows.  Exits non-zero if a run fails or if
a spread other than setup_s's exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in seeds_of(args.seeds):
        r = subprocess.run(bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                               "--seconds", str(seconds), "--trace", "0"],
                           stdout=subprocess.PIPE, text=True)
        last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
        if r.returncode != 0 or not last.startswith("{"):
            print("seed %d: run failed (exit %d)" % (seed, r.returncode))
            return 1
        result = json.loads(last)
        if not result["correct"] or result["failed"]:
            print("seed %d: incorrect answers" % seed)
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        context = [l for l in r.stdout.splitlines() if l.startswith("context: ")]
        host = json.loads(context[0][len("context: "):])["host_ref_ms"] if context else []
        print("seed %d: %s  host_ref_ms=%s" % (
            seed, "  ".join("%s=%.4g" % (n, v[-1]) for n, v in values.items()),
            "/".join("%.1f" % h for h in host)), flush=True)
    worst = 0
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        over = spread > bounds[name] and name != "setup_s"
        worst |= over
        print("%-18s median %-12.6g spread %.4f  bound %.3f  third %.4f%s"
              % (name, med, spread, bounds[name], bounds[name] / 3,
                 "  OVER BOUND" if over else ""))
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
