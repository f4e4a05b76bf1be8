#!/usr/bin/env python3
"""Summarizes benchmark result files into trajectory lines.

    python3 perfbench/summarize.py [--results DIR] [--label TEXT] [--append FILE]

Reads every DIR/<workload>-s<seed>-t<trace>.json that manirank_load wrote
(default .bench_build/work/results) and prints one JSON line per
workload: the host record of its first run, the seeds used, and for every
metric the median and quartiles over the runs that reported it. With
--append the lines are also appended to FILE (the committed trajectory
is perfbench/results/trajectory.jsonl).
"""

import argparse
import glob
import json
import os
import statistics


def summary(values):
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--results", default=os.path.join(".bench_build", "work", "results"))
    parser.add_argument("--label", default="")
    parser.add_argument("--append")
    args = parser.parse_args()

    runs = {}
    for path in sorted(glob.glob(os.path.join(args.results, "*.json"))):
        with open(path) as handle:
            run = json.load(handle)
        runs.setdefault(run["meta"]["workload"], []).append(run)

    lines = []
    for workload, results in sorted(runs.items()):
        host = dict(results[0]["meta"])
        for key in ("workload", "seed", "stream_hash", "steal_pct", "open_samples", "compared"):
            host.pop(key, None)
        metrics = {}
        for run in results:
            for name, metric in run["metrics"].items():
                metrics.setdefault(name, {"unit": metric["unit"], "values": []})
                metrics[name]["values"].append(metric["value"])
        line = {
            "label": args.label,
            "workload": workload,
            "host": host,
            "seeds": sorted({run["meta"]["seed"] for run in results}),
            "all_correct": all(run["correct"] for run in results),
            "steal_pct": summary([run["meta"]["steal_pct"] for run in results]),
            "metrics": {
                name: dict(summary(m["values"]), unit=m["unit"])
                for name, m in sorted(metrics.items())
            },
        }
        lines.append(json.dumps(line, sort_keys=True))
    for line in lines:
        print(line)
    if args.append:
        with open(args.append, "a") as handle:
            for line in lines:
                handle.write(line + "\n")


if __name__ == "__main__":
    main()
