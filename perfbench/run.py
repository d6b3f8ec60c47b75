#!/usr/bin/env python3
"""CrashTuner repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the repository's src/ tree plus the ctperf driver) from
source into .bench_build/perfbench, measures set-up in fresh processes, runs
ctperf on one workload, and prints its metrics. The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The lines before it are a human-readable summary and a
{"detail": ...} line with quartiles, round counts and op accounting.

Exit status: 0 when every pipeline matched its reference, 1 when one did not
(the result line still says why), 2 on bad usage or a checkout that cannot
build the benchmark.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CTPERF = os.path.join(BUILD_DIR, "ctperf")
REFERENCE = os.path.join(HERE, "reference.json")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TYPE = "RelWithDebInfo"

SYSTEMS = ["yarn", "hdfs", "hbase", "zookeeper", "cassandra"]
LAYERS = ["model", "sim", "runtime", "logging", "analysis", "core", "trace", "obs"]
# Fresh processes that measure set-up, on top of the measuring process itself.
SETUP_PROCESSES = 10
CTPERF_TIMEOUT_S = 150
# ctperf brackets every timed round and set-up with a fixed calibration
# kernel. A time is divided by the host-speed factor calibration /
# CALIBRATION_REF_S, which reports it as it would read on a host where the
# kernel takes CALIBRATION_REF_S. On a shared host that drifts between speed
# regimes, the kernel slows with the program, so the scaled times vary far
# less between runs than raw ones; the raw median stays in the detail line.
CALIBRATION_REF_S = 0.0007

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class BenchError(Exception):
    """A checkout or configuration the benchmark cannot run on."""


# --------------------------------------------------------------------------
# Statistics.

def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        value = median(values)
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def nearest_rank(pct, count):
    """1-based nearest rank of percentile pct (to 0.1) among count samples."""
    return max(1, -(-round(pct * 10) * count // 1000))


def percentile(values, pct):
    """Nearest-rank percentile."""
    return sorted(values)[nearest_rank(pct, len(values)) - 1]


TAIL_CANDIDATES = (99.9, 99.0, 90.0, 75.0, 50.0)


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (pct, value), or (None, None) when even the median has fewer
    than ten samples above it.
    """
    count = len(values)
    for pct in TAIL_CANDIDATES:
        if count - nearest_rank(pct, count) >= 10:
            return pct, percentile(values, pct)
    return None, None


def scaled_times(times, calibrations):
    """Each time as it would read at the reference host speed."""
    if len(times) != len(calibrations) or not times:
        raise BenchError("ctperf gave %d times and %d calibrations" %
                         (len(times), len(calibrations)))
    return [t * CALIBRATION_REF_S / c for t, c in zip(times, calibrations)]


# --------------------------------------------------------------------------
# BENCHMARK.json.

def valid_name(name):
    return isinstance(name, str) and NAME_RE.match(name) is not None


def validate_benchmark(config):
    """Raises BenchError naming the first rule BENCHMARK.json breaks."""
    def need(condition, message):
        if not condition:
            raise BenchError("BENCHMARK.json: " + message)

    need(isinstance(config, dict), "not an object")
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    need(set(config) == keys, "keys must be exactly " + ", ".join(sorted(keys)))
    command = config["command"]
    need(isinstance(command, list) and 1 <= len(command) <= 32, "command: 1 to 32 strings")
    for part in command:
        need(isinstance(part, str) and 0 < len(part) <= 200, "command: bad string")
        need(not part.startswith("/") and ".." not in part.split("/"),
             "command: no absolute or escaping paths")
    paths = config["paths"]
    need(isinstance(paths, list) and 1 <= len(paths) <= 16, "paths: 1 to 16 entries")
    for path in paths:
        need(isinstance(path, str) and PATH_RE.match(path) is not None, "paths: bad path")
        need(not path.startswith("/") and ".." not in path.split("/"), "paths: must stay inside")
    run_seconds = config["run_seconds"]
    need(isinstance(run_seconds, int) and not isinstance(run_seconds, bool)
         and 1 <= run_seconds <= 60, "run_seconds: whole number 1..60")
    names = set()

    def unique(name):
        need(valid_name(name), "bad name %r" % (name,))
        need(name not in names, "name %r used twice" % name)
        names.add(name)

    workloads = config["workloads"]
    need(isinstance(workloads, list) and 2 <= len(workloads) <= 8, "workloads: 2 to 8")
    for workload in workloads:
        need(isinstance(workload, dict) and set(workload) == {"name", "why"},
             "workload: exactly name and why")
        unique(workload["name"])
        why = workload["why"]
        need(isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why,
             "workload %s: why must be one line of at most 200 characters" % workload["name"])
    end_to_end = config["end_to_end"]
    need(isinstance(end_to_end, list) and 1 <= len(end_to_end) <= 16, "end_to_end: 1 to 16")
    for metric in end_to_end:
        need(isinstance(metric, dict) and set(metric) == {"name", "unit", "better", "bound"},
             "end_to_end metric: exactly name, unit, better, bound")
        unique(metric["name"])
        need(isinstance(metric["unit"], str) and UNIT_RE.match(metric["unit"]) is not None,
             "bad unit for " + metric["name"])
        need(metric["better"] in ("lower", "higher"), "better: lower or higher")
        bound = metric["bound"]
        need(isinstance(bound, (int, float)) and not isinstance(bound, bool)
             and 0 < bound <= 0.25, "bound of %s must be in (0, 0.25]" % metric["name"])
    setup = [m for m in end_to_end if m["name"] == "setup_s"]
    need(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
         "setup_s (unit s, lower) is required")
    per_layer = config["per_layer"]
    need(isinstance(per_layer, list) and 1 <= len(per_layer) <= 128, "per_layer: 1 to 128")
    for metric in per_layer:
        need(isinstance(metric, dict) and set(metric) == {"name", "unit", "better"},
             "per_layer metric: exactly name, unit, better")
        unique(metric["name"])
        need(isinstance(metric["unit"], str) and UNIT_RE.match(metric["unit"]) is not None,
             "bad unit for " + metric["name"])
        need(metric["better"] in ("lower", "higher"), "better: lower or higher")
    return config


def load_benchmark(path=BENCHMARK_JSON):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise BenchError("cannot read %s: %s" % (path, error))
    if len(text.encode("utf-8")) > 64 * 1024:
        raise BenchError("BENCHMARK.json is larger than 64 KiB")
    try:
        config = json.loads(text)
    except ValueError as error:
        raise BenchError("BENCHMARK.json is not JSON: %s" % error)
    return validate_benchmark(config)


# --------------------------------------------------------------------------
# Build and launch.

def build():
    """Configures (once) and builds ctperf; build output goes to stderr."""
    for needed in (os.path.join(ROOT, "src", "CMakeLists.txt"), GOLDEN_DIR, REFERENCE):
        if not os.path.exists(needed):
            raise BenchError("not a CrashTuner checkout: %s is missing" % needed)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(["ninja", "--version"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0:
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_ctperf(arguments):
    """Runs ctperf to completion and returns its last stdout line as JSON."""
    completed = subprocess.run([CTPERF] + arguments, stdout=subprocess.PIPE,
                               stderr=sys.stderr, text=True, timeout=CTPERF_TIMEOUT_S,
                               cwd=ROOT)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchError("ctperf %s exited with %d" % (" ".join(arguments), completed.returncode))
    return json.loads(lines[-1])


def spans_path(workload, seed):
    return os.path.join(BUILD_DIR, "spans", "%s-seed%d.json" % (workload, seed))


# --------------------------------------------------------------------------
# Per-layer metrics from the traced run's spans and counters.

class SpanIndex:
    """Spans grouped by the root they belong to ("round", "probes", or none)."""

    def __init__(self, spans):
        # A parent begins before its children, so it has the smaller id.
        self.spans = sorted(spans, key=lambda span: span["id"])
        self.by_id = {span["id"]: span for span in self.spans}
        self.root_of = {}
        for span in self.spans:
            parent = span["parent"]
            self.root_of[span["id"]] = span["id"] if parent == 0 else self.root_of[parent]
        self.round_ids = [s["id"] for s in self.spans if s["name"] == "round" and s["parent"] == 0]

    @staticmethod
    def ms(span):
        return (span["end_us"] - span["start_us"]) / 1000.0

    def select(self, predicate, where="rounds"):
        """Spans matching predicate under traced rounds, probes or anywhere."""
        out = []
        for span in self.spans:
            if not predicate(span):
                continue
            root = self.by_id[self.root_of[span["id"]]]["name"]
            if where == "anywhere" or where == {"round": "rounds", "probes": "probes"}.get(root):
                out.append(span)
        return out

    def per_round_total_ms(self, name):
        """Median over traced rounds of the summed duration of spans `name`."""
        totals = {round_id: 0.0 for round_id in self.round_ids}
        found = False
        for span in self.select(lambda s: s["name"] == name):
            totals[self.root_of[span["id"]]] += self.ms(span)
            found = True
        return median(list(totals.values())) if found else None

    def self_ms_by_layer(self):
        """Each layer's self time: span time not covered by its children."""
        children = {}
        for span in self.spans:
            children.setdefault(span["parent"], []).append(span)
        out = {}
        for span in self.spans:
            intervals = sorted((c["start_us"], c["end_us"]) for c in children.get(span["id"], []))
            covered = 0.0
            cursor = span["start_us"]
            for start, end in intervals:
                start = max(start, cursor)
                end = min(end, span["end_us"])
                if end > start:
                    covered += end - start
                    cursor = end
            own = (span["end_us"] - span["start_us"] - covered) / 1000.0
            out[span["layer"]] = out.get(span["layer"], 0.0) + own
        return out


MAIN_TESTPOINT = ("FaultInjectionTester::TestPoint", "FaultInjectionTester::TestPoint[record]")
# ctperf runs at least this many traced rounds.
SAMPLE_ROUNDS = 3


def layer_metrics(raw, spans):
    """Every per-layer metric, by name, from one traced ctperf run."""
    index = SpanIndex(spans)
    counts = raw["counts"]
    values = {}

    def durations(name, where="rounds", sys_id=None):
        return [index.ms(s) for s in index.select(
            lambda s: s["name"] == name and (sys_id is None or s["sys"] == sys_id), where)]

    values["model.build_s"] = sum(durations("SystemUnderTest::model", "anywhere")) / 1000.0
    main_inject = index.select(lambda s: s["name"] in MAIN_TESTPOINT)
    # Injection-time percentiles use the first SAMPLE_ROUNDS traced rounds
    # only, so their sample count (and thus the tail percentile) repeats.
    sample_rounds = set(index.round_ids[:SAMPLE_ROUNDS])
    sampled_inject = [s for s in main_inject if index.root_of[s["id"]] in sample_rounds]
    for sys_id in SYSTEMS:
        run_ms = median(durations("Executor::Execute", sys_id=sys_id))
        values["sim.deploy_ms." + sys_id] = median(durations("SystemUnderTest::NewRun",
                                                             sys_id=sys_id))
        values["sim.run_ms." + sys_id] = run_ms
        for counter in ("events", "peak_pending", "messages", "heartbeats"):
            values["sim.%s.%s" % (counter, sys_id)] = counts["sim.%s.%s" % (counter, sys_id)]
        values["sim.ns_per_event." + sys_id] = run_ms * 1e6 / counts["sim.events." + sys_id]
        values["runtime.hook_firings." + sys_id] = counts["runtime.hook_firings." + sys_id]
        values["runtime.profiled_run_ms." + sys_id] = median(
            durations("profiled-run", "probes", sys_id))
        values["logging.instances." + sys_id] = counts["logging.instances." + sys_id]
        values["core.inject_ms.%s.p50" % sys_id] = median(
            [index.ms(s) for s in sampled_inject if s["sys"] == sys_id])
    inject_wall_s = sum(index.ms(s) for s in main_inject) / 1000.0
    values["sim.virtual_s_per_wall_s"] = counts["sim.virtual_ms"] / 1000.0 / inject_wall_s
    values["runtime.profile_ms"] = index.per_round_total_ms("Profiler::Profile")
    values["analysis.log_ms"] = index.per_round_total_ms("LogAnalysis::Analyze")
    values["analysis.infer_ms"] = index.per_round_total_ms("MetaInfoInference::Infer")
    values["analysis.crash_points_ms"] = index.per_round_total_ms("CrashPointAnalysis::Identify")
    for metric, name in (("analysis.call_graph_ms", "CallGraph::CallGraph"),
                         ("analysis.contexts_ms", "ContextEnumeration::EnumerateAll"),
                         ("obs.finalize_ms", "CampaignObserver::Finalize+dossiers")):
        in_rounds = index.per_round_total_ms(name)
        values[metric] = in_rounds if in_rounds is not None else sum(durations(name, "probes"))
    for counter in ("static_points", "dynamic_points", "contexts"):
        values["analysis." + counter] = counts["analysis." + counter]

    inject_ms = [index.ms(s) for s in sampled_inject]
    tail_pct, tail = tail_percentile(inject_ms)
    values["core.inject_ms.p50"] = median(inject_ms)
    values["core.inject_ms.tail"] = tail if tail is not None else median(inject_ms)
    values["core.inject_ms.tail_pct"] = tail_pct if tail_pct is not None else 50.0
    values["core.inject_ms.samples"] = len(inject_ms)
    attempts = counts["core.attempts"]
    values["core.hit_ratio"] = counts["core.hits"] / attempts
    values["core.fault_ratio"] = counts["core.faults"] / attempts
    values["core.bug_ratio"] = counts["core.bugs"] / attempts
    values["core.triage_ms"] = index.per_round_total_ms("TriageBugs")
    values["core.report_ms"] = (index.per_round_total_ms("ReportToJson") +
                                index.per_round_total_ms("ReportToMarkdown"))
    all_inject_ms = sum(index.ms(s) for s in index.select(
        lambda s: s["name"].startswith("FaultInjectionTester::TestPoint")))
    phase2_ms = sum(durations("phase2"))
    values["core.parallel_efficiency"] = all_inject_ms / (raw["jobs"] * phase2_ms)
    pipeline_ms = sum(index.ms(s) for s in index.select(
        lambda s: s["name"].startswith("pipeline:")))
    values["core.phase1_share"] = sum(durations("phase1")) / pipeline_ms

    values["trace.events"] = counts["trace.events"]
    values["trace.record_inject_ms.p50"] = median(
        durations("FaultInjectionTester::TestPoint[record]", "anywhere"))
    values["trace.replay_inject_ms.p50"] = median(
        durations("FaultInjectionTester::TestPoint[replay]", "anywhere"))
    values["obs.dossiers"] = counts["obs.dossiers"]
    values["obs.runs"] = counts["obs.runs"]

    self_ms = index.self_ms_by_layer()
    busy = sum(self_ms.get(layer, 0.0) for layer in LAYERS)
    for layer in LAYERS:
        values["self_share." + layer] = self_ms.get(layer, 0.0) / busy
    values["tracing_overhead"] = (
        median(scaled_times(raw["traced_rounds"], raw["traced_calibration_s"])) /
        median(scaled_times(raw["rounds"], raw["round_calibration_s"])) - 1.0)
    return values


# --------------------------------------------------------------------------
# One benchmark run.

def end_to_end_metrics(raw, setup_samples):
    """setup_samples: (setup_s, setup_calibration_s) pairs."""
    seconds_per_injection = scaled_times([1.0 / r for r in raw["injection_rates"]],
                                         raw["round_calibration_s"])
    return {
        "setup_s": median(scaled_times(*zip(*setup_samples))),
        "campaign_s": median(scaled_times(raw["rounds"], raw["round_calibration_s"])),
        "injections_per_s": 1.0 / median(seconds_per_injection),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def run(args, config):
    build()
    setup_samples = []
    for _ in range(SETUP_PROCESSES):
        setup = run_ctperf(["--setup-only"])
        setup_samples.append((setup["setup_s"], setup["setup_calibration_s"]))
    arguments = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", repr(args.seconds), "--trace", "1" if args.trace else "0",
                 "--reference", REFERENCE, "--golden-dir", GOLDEN_DIR]
    if args.trace:
        os.makedirs(os.path.dirname(spans_path(args.workload, args.seed)), exist_ok=True)
        arguments += ["--spans", spans_path(args.workload, args.seed)]
    if args.corrupt_reference:
        arguments.append("--corrupt-reference")
    raw = run_ctperf(arguments)
    setup_samples.append((raw["setup_s"], raw["setup_calibration_s"]))

    if args.trace:
        with open(spans_path(args.workload, args.seed), encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
        values = layer_metrics(raw, spans)
        declared = config["per_layer"]
    else:
        values = end_to_end_metrics(raw, setup_samples)
        declared = config["end_to_end"]
    metrics = {}
    for metric in declared:
        if metric["name"] not in values or values[metric["name"]] is None:
            raise BenchError("metric %s was not measured" % metric["name"])
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}

    attempted, failed = raw["attempted"], raw["failed"]
    q1, q2, q3 = quartiles(scaled_times(raw["rounds"], raw["round_calibration_s"]))
    detail = {
        "workload": args.workload, "seed": args.seed, "campaign_seed": raw["campaign_seed"],
        "build_type": BUILD_TYPE, "nproc": raw["nproc"], "jobs": raw["jobs"],
        "campaign_s": {"median": q2, "q1": q1, "q3": q3, "rounds": len(raw["rounds"])},
        "raw_campaign_s": median(raw["rounds"]),
        "host_speed": CALIBRATION_REF_S / median(raw["round_calibration_s"]),
        "setup_s_samples": scaled_times(*zip(*setup_samples)),
        "op_fail_rate": failed / attempted, "failures": raw["failures"],
    }
    if args.trace:
        detail["traced_rounds"] = len(raw["traced_rounds"])
        detail["spans"] = os.path.relpath(spans_path(args.workload, args.seed), ROOT)
    for name, metric in metrics.items():
        print("%-36s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("%-36s %14.6g %s  (%d of %d pipelines failed)" % (
        "op_fail_rate", failed / attempted, "ratio", failed, attempted))
    print(json.dumps({"detail": detail}, sort_keys=True))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip one byte of one reference (self-test of the checks)")
    return parser.parse_args(argv)


def main(argv):
    try:
        config = load_benchmark()
        args = parse_args(argv, [w["name"] for w in config["workloads"]])
        if args.seconds is None:
            args.seconds = float(config["run_seconds"])
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        return run(args, config)
    except BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired:
        print("perfbench: ctperf timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
