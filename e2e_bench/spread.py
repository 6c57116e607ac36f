#!/usr/bin/env python3
"""Run-to-run spread of the e2e_bench metrics.

Runs e2e_bench/run.py once per seed for each workload and reports, for
every end-to-end metric, the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  Optionally adds traced runs for the per-layer medians and
writes everything as JSON:

    python3 e2e_bench/spread.py --seeds 10 --workloads run_n1020
    python3 e2e_bench/spread.py --seeds 10 --traced 1 --out e2e_bench/baseline.json

Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 or not result or result["correct"] is not True:
        sys.exit("run failed: %s seed %d trace %d (exit %d)"
                 % (workload, seed, trace, done.returncode))
    host = {}
    in_host = False
    for line in lines:
        if line == "host:":
            in_host = True
        elif in_host and line.startswith("  ") and ": " in line:
            key, value = line.strip().split(": ", 1)
            host[key] = value
        elif in_host:
            in_host = False
    return result, host


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values), "runs": len(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10, help="untraced runs, seeds 1..N")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    parser.add_argument("--out", help="write the summary as JSON to this file")
    options = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"run_seconds": options.seconds, "host": {}, "workloads": {}}
    worst = 0.0
    for workload in options.workloads.split(","):
        samples = {}
        units = {}
        for seed in range(1, options.seeds + 1):
            result, host = run_once(workload, seed, options.seconds, 0)
            summary["host"] = host
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        entry = {"end_to_end": {}, "per_layer": {}}
        print("%s (%d seeds, %g s each)" % (workload, options.seeds, options.seconds))
        for name, values in samples.items():
            stats = summarize(values)
            stats["unit"] = units[name]
            entry["end_to_end"][name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, stats["spread"] / bound)
                flag = "  <-- over a third of the bound" if stats["spread"] > bound / 3 else ""
            print("  %-16s median %14.6g  q1 %14.6g  q3 %14.6g  spread %7.4f  bound %s%s"
                  % (name, stats["median"], stats["q1"], stats["q3"], stats["spread"],
                     bound, flag))
        layer_samples = {}
        for seed in range(1, options.traced + 1):
            result, _ = run_once(workload, seed, options.seconds, 1)
            for name, metric in result["metrics"].items():
                layer_samples.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        for name, values in layer_samples.items():
            entry["per_layer"][name] = {"median": statistics.median(values),
                                        "unit": units[name], "runs": len(values)}
        summary["workloads"][workload] = entry
    print("largest spread / bound: %.3f" % worst)
    if options.out:
        with open(options.out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
