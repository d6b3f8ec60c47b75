#!/usr/bin/env python3
"""Repeated benchmark runs and their spread: one point of the perf trajectory.

    python3 perfbench/trajectory.py --runs 10 [--workload NAME ...]
        [--first-seed N] [--label TEXT] [--out FILE]

Runs perfbench/run.py --trace 0 once per seed (first-seed, first-seed + 1,
...) on each workload and reports, for every end-to-end metric, the median,
the quartiles (statistics.quantiles(values, n=4)) and the spread: the
distance between the quartiles as a share of the median. A spread at or
above a third of the metric's bound is flagged "wide" (setup_s is exempt:
only its median is compared between commits). Each run's host-speed factor
and unscaled campaign_s are kept beside them. With --out the summary is
written as JSON, the format of the files in perfbench/trajectory/.
"""

import argparse
import json
import os
import subprocess
import sys

import run as bench


def measure(workload, seed, seconds):
    completed = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=bench.ROOT)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise bench.BenchError("run.py --workload %s --seed %d exited with %d"
                               % (workload, seed, completed.returncode))
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def summarize(values, bound):
    q1, q2, q3 = bench.quartiles(values)
    spread = (q3 - q1) / q2
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main(argv):
    config = bench.load_benchmark()
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench.build()

    summary = {"label": args.label, "build_type": bench.BUILD_TYPE, "nproc": os.cpu_count(),
               "cpu": cpu_model(),
               "runs": args.runs, "run_seconds": config["run_seconds"],
               "first_seed": args.first_seed, "workloads": {}}
    wide = 0
    for workload in args.workload or names:
        values = {m["name"]: [] for m in config["end_to_end"]}
        host_speed, raw_campaign_s = [], []
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            detail, result = measure(workload, seed, config["run_seconds"])
            host_speed.append(detail["host_speed"])
            raw_campaign_s.append(detail["raw_campaign_s"])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print("%-20s seed %-4d %s" % (workload, seed, "  ".join(
                "%s=%.6g" % (name, metric["value"]) for name, metric in result["metrics"].items())),
                flush=True)
        metrics = {}
        for metric in config["end_to_end"]:
            stats = summarize(values[metric["name"]], metric["bound"])
            stats["unit"] = metric["unit"]
            metrics[metric["name"]] = stats
            flag = ""
            if metric["name"] != "setup_s" and stats["spread"] >= metric["bound"] / 3:
                flag = "  wide"
                wide += 1
            print("%-20s %-18s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% "
                  "(bound %g)%s" % (workload, metric["name"], stats["median"], stats["q1"],
                                   stats["q3"], 100 * stats["spread"], metric["bound"], flag))
        print("%-20s op_fail_rate       %d/%d" % (workload, failed, attempted))
        summary["workloads"][workload] = {
            "jobs": detail["jobs"], "attempted": attempted, "failed": failed,
            "metrics": metrics, "host_speed": host_speed, "raw_campaign_s": raw_campaign_s}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if wide else 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except bench.BenchError as error:
        print("trajectory: %s" % error, file=sys.stderr)
        sys.exit(2)
