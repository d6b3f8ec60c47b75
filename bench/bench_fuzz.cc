// Fuzz smoke: a short coverage-guided fuzz campaign on every system.
//
// For each of the five minis the full pipeline runs once, then the fuzz
// phase explores `budget` grammar-op workloads at jobs=1 and jobs=4. The
// bench fails (nonzero exit) if any system discovers no ⟨point, call-string⟩
// pair beyond the fixed script, if the two jobs levels disagree on corpus or
// trace hash (the determinism contract fuzz_property_test pins in CI's
// stage 2 — here cross-checked against a live campaign), or — on machines
// with >= 4 hardware threads — if jobs=4 is not >= 2x faster overall. The
// speedup bar compares the medians of kTrials interleaved jobs=1 / jobs=4
// sweeps over all systems, alternating which runs first; per-system wall
// times are medians too, and the per-pair spread is printed beside the bar.
// Results land in BENCH_fuzz.json.
//
// Usage: bench_fuzz [budget] [--jobs N] [--json FILE]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/campaign.h"
#include "src/fuzz/fuzz_phase.h"

namespace {

// Interleaved jobs=1 / jobs=4 sweeps behind the speedup bar; odd, so every
// median is a sample.
constexpr int kTrials = 9;

struct SystemRow {
  std::string name;
  int runs = 0;
  int corpus_size = 0;
  int baseline_pairs = 0;
  int new_pairs = 0;
  int bug_runs = 0;
  double serial_seconds = 0;
  double parallel_seconds = 0;
  bool deterministic = true;

  double runs_per_sec() const { return serial_seconds > 0 ? runs / serial_seconds : 0; }
};

double Wall(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  int budget = 48;
  if (!flags.positional.empty()) {
    budget = std::atoi(flags.positional.front().c_str());
    if (budget < 1) {
      std::fprintf(stderr, "usage: bench_fuzz [budget] [--jobs N] [--json FILE]\n");
      return 2;
    }
  }
  const std::string json_path = flags.json_path.empty() ? "BENCH_fuzz.json" : flags.json_path;

  ctbench::PrintHeader("Coverage-guided workload fuzzing: " + std::to_string(budget) +
                       "-run smoke per system");
  std::printf("%-22s %6s %8s %10s %10s %8s %10s %10s\n", "system", "runs", "corpus",
              "baseline", "new_pairs", "bugs", "wall_s(1)", "runs/sec");

  auto systems = ctbench::AllSystems();
  std::vector<ctcore::SystemReport> reports;
  for (const auto& system : systems) {
    reports.push_back(ctcore::CrashTunerDriver().Run(*system));
  }
  ctfuzz::FuzzPhaseOptions serial_options;
  serial_options.runs = budget;
  serial_options.jobs = 1;
  ctfuzz::FuzzPhaseOptions parallel_options = serial_options;
  parallel_options.jobs = 4;
  std::vector<SystemRow> rows(systems.size());
  std::vector<std::vector<double>> serial_walls(systems.size()), parallel_walls(systems.size());
  std::vector<double> serial_totals, parallel_totals, speedups;
  for (int trial = 0; trial < kTrials; ++trial) {
    double serial_total = 0, parallel_total = 0;
    for (size_t i = 0; i < systems.size(); ++i) {
      // Each fuzz phase appends to its report, so every run gets a fresh copy.
      ctcore::SystemReport serial_report = reports[i];
      ctcore::SystemReport parallel_report = reports[i];
      auto timed = [&](ctcore::SystemReport* report, const ctfuzz::FuzzPhaseOptions& options,
                       double* wall) {
        const auto start = std::chrono::steady_clock::now();
        ctfuzz::FuzzResult result = ctfuzz::RunFuzzPhase(*systems[i], report, options);
        *wall = Wall(start);
        return result;
      };
      ctfuzz::FuzzResult serial, parallel;
      double serial_wall = 0, parallel_wall = 0;
      if (trial % 2 == 0) {
        serial = timed(&serial_report, serial_options, &serial_wall);
        parallel = timed(&parallel_report, parallel_options, &parallel_wall);
      } else {
        parallel = timed(&parallel_report, parallel_options, &parallel_wall);
        serial = timed(&serial_report, serial_options, &serial_wall);
      }
      serial_walls[i].push_back(serial_wall);
      parallel_walls[i].push_back(parallel_wall);
      serial_total += serial_wall;
      parallel_total += parallel_wall;

      SystemRow& row = rows[i];
      row.name = systems[i]->name();
      row.runs = serial.runs;
      row.corpus_size = static_cast<int>(serial.corpus.size());
      row.baseline_pairs = serial_report.fuzz.baseline_pairs;
      row.new_pairs = static_cast<int>(serial.new_keys.size());
      row.bug_runs = serial.bug_runs;
      row.deterministic = row.deterministic &&
                          serial.trace_hash == parallel.trace_hash &&
                          serial.corpus.size() == parallel.corpus.size() &&
                          serial.new_keys == parallel.new_keys;
    }
    serial_totals.push_back(serial_total);
    parallel_totals.push_back(parallel_total);
    speedups.push_back(parallel_total > 0 ? serial_total / parallel_total : 0);
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    SystemRow& row = rows[i];
    row.serial_seconds = ctbench::Quantile(serial_walls[i], 0.5);
    row.parallel_seconds = ctbench::Quantile(parallel_walls[i], 0.5);
    std::printf("%-22s %6d %8d %10d %10d %8d %10.3f %10.1f\n", row.name.c_str(), row.runs,
                row.corpus_size, row.baseline_pairs, row.new_pairs, row.bug_runs,
                row.serial_seconds, row.runs_per_sec());
  }

  ctbench::PrintRule();
  const double serial_median = ctbench::Quantile(serial_totals, 0.5);
  const double parallel_median = ctbench::Quantile(parallel_totals, 0.5);
  const double speedup = parallel_median > 0 ? serial_median / parallel_median : 0;
  const ctbench::Spread speedup_spread = ctbench::Spread::Of(speedups);
  const int hardware_threads = ctcore::ResolveJobs(0);
  const bool enforce_speedup = ctbench::EnforceSpeedupBar(hardware_threads);
  std::printf("jobs=4 speedup over all systems: %.2fx, median of %d interleaved pairs  (bar: "
              ">= 2x, %s on %d hardware thread(s))\n",
              speedup, kTrials, enforce_speedup ? "enforced" : "not enforced",
              hardware_threads);
  std::printf("jobs=4 per-pair speedup: min %.2fx, q1 %.2fx, q3 %.2fx, max %.2fx\n",
              speedup_spread.min, speedup_spread.q1, speedup_spread.q3, speedup_spread.max);

  int failures = 0;
  for (const SystemRow& row : rows) {
    if (row.new_pairs < 1) {
      std::printf("FAIL: %s discovered no pair beyond the fixed script\n", row.name.c_str());
      ++failures;
    }
    if (!row.deterministic) {
      std::printf("FAIL: %s diverged between jobs=1 and jobs=4\n", row.name.c_str());
      ++failures;
    }
  }
  failures += enforce_speedup && speedup < 2.0 ? 1 : 0;

  std::ofstream json(json_path);
  json << "{\n  \"schema\": \"crashtuner-bench-fuzz-v1\",\n";
  json << "  \"budget_per_system\": " << budget << ",\n";
  json << "  \"trials\": " << kTrials << ",\n";
  json << "  \"systems\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const SystemRow& row = rows[i];
    json << "    {\"system\": \"" << row.name << "\", \"runs\": " << row.runs
         << ", \"corpus_size\": " << row.corpus_size
         << ", \"baseline_pairs\": " << row.baseline_pairs
         << ", \"new_pairs\": " << row.new_pairs << ", \"bug_runs\": " << row.bug_runs
         << ", \"serial_seconds\": " << row.serial_seconds
         << ", \"parallel_seconds\": " << row.parallel_seconds
         << ", \"runs_per_sec\": " << row.runs_per_sec()
         << ", \"deterministic\": " << (row.deterministic ? "true" : "false") << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"jobs4_speedup\": " << speedup << ",\n";
  json << "  \"jobs4_speedup_per_pair\": " << speedup_spread.ToJson() << ",\n";
  json << "  \"hardware_threads\": " << hardware_threads << ",\n";
  json << "  \"speedup_bar_enforced\": " << (enforce_speedup ? "true" : "false") << ",\n";
  json << "  \"pass\": " << (failures == 0 ? "true" : "false") << "\n}\n";
  std::printf("wrote %s\n", json_path.c_str());

  return failures;
}
