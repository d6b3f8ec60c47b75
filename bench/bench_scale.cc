// Scale-out simulator bench (CI stage 4f): quantifies the ladder-queue /
// slab-allocated event loop against the original std::priority_queue loop,
// and sweeps full-system campaigns across deployment scales and worker
// counts.
//
// Part 1 — scheduler microbench. LegacyEventLoop below is the pre-ladder
// implementation, embedded verbatim (string owners, Event copies out of the
// priority queue, a cancelled-id list scanned linearly on every pop). Both
// loops run the identical self-sustaining schedule/cancel/pop workload: a
// live population of `window` events, each firing event scheduling a
// successor at a pseudorandom delay, with `cancel_pct`% of scheduled events
// cancelled immediately (and replaced, keeping the population constant).
// The acceptance bar is ladder >= 10x legacy events/sec.
//
// Part 2 — campaign sweep. For each --scale level and jobs in {1, 4}, runs
// a fixed batch of fault-free deployments of all five systems (seeds vary
// per replicate) through CampaignEngine, reporting runs/sec, events/sec and
// peak pending-event depth. Per-run event counts must be identical across
// jobs counts (determinism), and jobs=4 must be >= 2x jobs=1 at the largest
// level.
//
// Both wall-clock bars judge medians of kTrials interleaved pairs (legacy /
// ladder, jobs=1 / jobs=4), alternating which side of a pair runs first; the
// per-pair spread is printed and archived beside each median.
//
//   bench_scale [--json FILE] [SCALE...]        (default levels: 1 2 8)
//
// Writes BENCH_scale.json (or --json FILE); wall times there are medians.
// Exit status is the number of violated criteria.
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/campaign.h"
#include "src/sim/event_loop.h"

namespace {

// ---------------------------------------------------------------------------
// The event loop this PR replaced, kept as the microbench baseline. This is
// the original implementation (trace/alive hooks dropped — the workload uses
// neither), not a simplification: per-pop costs are the Event copy out of
// priority_queue::top() and the linear cancelled_ scan.
class LegacyEventLoop {
 public:
  using Time = ctsim::Time;
  using EventId = ctsim::EventId;

  Time Now() const { return now_; }

  EventId Schedule(Time delay, std::function<void()> fn, std::string owner = "") {
    return ScheduleAt(now_ + delay, std::move(fn), std::move(owner));
  }

  EventId ScheduleAt(Time when, std::function<void()> fn, std::string owner = "") {
    Event event;
    event.when = when;
    event.seq = next_seq_++;
    event.id = next_id_++;
    event.owner = std::move(owner);
    event.fn = std::move(fn);
    EventId id = event.id;
    queue_.push(std::move(event));
    return id;
  }

  void Cancel(EventId id) { cancelled_.push_back(id); }

  void RunToCompletion() {
    while (PopAndRun()) {
    }
  }

  uint64_t executed_events() const { return executed_events_; }

 private:
  struct Event {
    Time when = 0;
    uint64_t seq = 0;
    EventId id = 0;
    std::string owner;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  bool PopAndRun() {
    while (!queue_.empty()) {
      Event event = queue_.top();  // the copy the ladder loop eliminates
      queue_.pop();
      if (std::find(cancelled_.begin(), cancelled_.end(), event.id) != cancelled_.end()) {
        std::erase(cancelled_, event.id);
        continue;
      }
      now_ = std::max(now_, event.when);
      ++executed_events_;
      event.fn();
      return true;
    }
    return false;
  }

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<EventId> cancelled_;
  Time now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  uint64_t executed_events_ = 0;
};

double Wall(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct MicroResult {
  uint64_t schedule_ops = 0;
  uint64_t fired = 0;
  double wall_seconds = 0;
  double events_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(schedule_ops) / wall_seconds : 0;
  }
};

// Identical workload for both loop types: `window` live events, each firing
// event schedules one successor, `cancel_pct`% of schedules are immediately
// cancelled and replaced. Deterministic LCG, same stream for both loops.
template <typename Loop>
MicroResult RunMicro(long long total_events, int window, int cancel_pct) {
  Loop loop;
  uint64_t lcg = 0x9e3779b97f4a7c15ull;
  auto next = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(lcg >> 33);
  };
  MicroResult result;
  long long remaining = total_events;
  std::function<void()> tick;
  auto schedule_one = [&] {
    while (remaining > 0) {
      --remaining;
      ++result.schedule_ops;
      const ctsim::Time delay = 1 + next() % 2048;
      const ctsim::EventId id = loop.Schedule(delay, tick);
      if (static_cast<int>(next() % 100) < cancel_pct) {
        loop.Cancel(id);
        continue;  // replace the cancelled event; population stays at window
      }
      break;
    }
  };
  tick = [&] {
    ++result.fired;
    schedule_one();
  };
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < window; ++i) {
    schedule_one();
  }
  loop.RunToCompletion();
  result.wall_seconds = Wall(start);
  return result;
}

// ---------------------------------------------------------------------------
// Campaign sweep: replicated fault-free deployments through CampaignEngine.

struct RunStats {
  uint64_t executed = 0;
  uint64_t scheduled = 0;
  uint64_t peak_pending = 0;
};

struct CellResult {
  int scale = 0;
  int jobs = 0;
  int runs = 0;
  double wall_seconds = 0;
  uint64_t events = 0;
  uint64_t peak_pending = 0;
  std::vector<uint64_t> per_task_events;  // determinism fingerprint
  double runs_per_sec() const {
    return wall_seconds > 0 ? runs / wall_seconds : 0;
  }
  double events_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0;
  }
};

constexpr int kReplicates = 8;
// Interleaved pairs behind each wall-clock bar; odd, so every median is a
// sample.
constexpr int kTrials = 5;

RunStats ExecuteFaultFree(const ctcore::SystemUnderTest& system, uint64_t seed) {
  std::unique_ptr<ctcore::WorkloadRun> run =
      system.NewRun(system.default_workload_size(), seed);
  ctrt::ScopedRunContext bind(run->context());
  run->cluster().StartAll();
  run->Start();
  ctsim::EventLoop& loop = run->cluster().loop();
  loop.RunUntil(run->ExpectedDurationMs() * 2);
  RunStats stats;
  stats.executed = loop.executed_events();
  stats.scheduled = loop.scheduled_events();
  stats.peak_pending = loop.peak_pending_events();
  return stats;
}

CellResult SweepCell(const std::vector<std::unique_ptr<ctcore::SystemUnderTest>>& systems,
                     int scale, int jobs) {
  ctcore::CampaignEngine engine(jobs);
  const int tasks = static_cast<int>(systems.size()) * kReplicates;
  const auto start = std::chrono::steady_clock::now();
  std::vector<RunStats> stats = engine.Map(tasks, [&](int i) {
    const auto& system = systems[static_cast<size_t>(i) % systems.size()];
    const uint64_t replicate = static_cast<uint64_t>(i) / systems.size();
    return ExecuteFaultFree(*system, 0x5eedull + replicate);
  });
  CellResult cell;
  cell.scale = scale;
  cell.jobs = jobs;
  cell.runs = tasks;
  cell.wall_seconds = Wall(start);
  for (const RunStats& s : stats) {
    cell.events += s.executed;
    cell.peak_pending = std::max(cell.peak_pending, s.peak_pending);
    cell.per_task_events.push_back(s.scheduled);
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  ctbench::BenchFlags flags = ctbench::ParseFlags(argc, argv);
  std::vector<int> levels;
  for (const std::string& arg : flags.positional) {
    const int level = std::atoi(arg.c_str());
    if (level >= 1) {
      levels.push_back(level);
    }
  }
  if (levels.empty()) {
    levels = {1, 2, 8};
  }
  const std::string json_path = flags.json_path.empty() ? "BENCH_scale.json" : flags.json_path;

  ctbench::PrintHeader("Scale-out simulator core: scheduler + campaign sweep");

  // Part 1: microbench.
  const long long kMicroEvents = 400000;
  const int kWindow = 10000;
  const int kCancelPct = 30;
  std::vector<double> legacy_rates, ladder_rates, micro_ratios;
  bool fired_match = true;
  for (int trial = 0; trial < kTrials; ++trial) {
    MicroResult legacy, ladder;
    if (trial % 2 == 0) {
      legacy = RunMicro<LegacyEventLoop>(kMicroEvents, kWindow, kCancelPct);
      ladder = RunMicro<ctsim::EventLoop>(kMicroEvents, kWindow, kCancelPct);
    } else {
      ladder = RunMicro<ctsim::EventLoop>(kMicroEvents, kWindow, kCancelPct);
      legacy = RunMicro<LegacyEventLoop>(kMicroEvents, kWindow, kCancelPct);
    }
    fired_match = fired_match && legacy.fired == ladder.fired;
    legacy_rates.push_back(legacy.events_per_sec());
    ladder_rates.push_back(ladder.events_per_sec());
    micro_ratios.push_back(legacy.events_per_sec() > 0
                               ? ladder.events_per_sec() / legacy.events_per_sec()
                               : 0);
  }
  const double legacy_rate = ctbench::Quantile(legacy_rates, 0.5);
  const double ladder_rate = ctbench::Quantile(ladder_rates, 0.5);
  const double ratio = legacy_rate > 0 ? ladder_rate / legacy_rate : 0;
  const ctbench::Spread ratio_spread = ctbench::Spread::Of(micro_ratios);
  std::printf("scheduler microbench (%lld events, %d live, %d%% cancels, median of %d "
              "interleaved pairs)\n",
              kMicroEvents, kWindow, kCancelPct, kTrials);
  std::printf("  legacy priority_queue : %12.0f events/sec\n", legacy_rate);
  std::printf("  ladder + slab         : %12.0f events/sec\n", ladder_rate);
  std::printf("  speedup               : %11.1fx  (bar: >= 10x)\n", ratio);
  std::printf("  per-pair speedup      : min %.1fx, q1 %.1fx, q3 %.1fx, max %.1fx\n",
              ratio_spread.min, ratio_spread.q1, ratio_spread.q3, ratio_spread.max);
  if (!fired_match) {
    std::printf("  WARNING: fired-event counts differ between legacy and ladder\n");
  }

  // Part 2: campaign sweep. Each cell's wall time is the median of its
  // trials; the jobs=4 speedup bar compares the two medians at the largest
  // level.
  ctbench::PrintRule();
  std::printf("%-7s %-5s %6s %10s %12s %14s %12s\n", "scale", "jobs", "runs", "wall_s",
              "runs/sec", "events/sec", "peak_pend");
  std::vector<CellResult> cells;
  std::vector<double> speedups;  // per pair, at the largest level
  bool deterministic = true;
  for (int scale : levels) {
    auto systems = ctbench::AllSystems();
    for (auto& system : systems) {
      system->set_scale(scale);
      (void)system->model();  // warm the per-system artifact singletons
    }
    std::vector<double> sequential_walls, parallel_walls;
    CellResult sequential, parallel;
    speedups.clear();
    for (int trial = 0; trial < kTrials; ++trial) {
      if (trial % 2 == 0) {
        sequential = SweepCell(systems, scale, 1);
        parallel = SweepCell(systems, scale, 4);
      } else {
        parallel = SweepCell(systems, scale, 4);
        sequential = SweepCell(systems, scale, 1);
      }
      deterministic = deterministic && sequential.per_task_events == parallel.per_task_events;
      sequential_walls.push_back(sequential.wall_seconds);
      parallel_walls.push_back(parallel.wall_seconds);
      speedups.push_back(parallel.wall_seconds > 0
                             ? sequential.wall_seconds / parallel.wall_seconds
                             : 0);
    }
    sequential.wall_seconds = ctbench::Quantile(sequential_walls, 0.5);
    parallel.wall_seconds = ctbench::Quantile(parallel_walls, 0.5);
    for (const CellResult& cell : {sequential, parallel}) {
      std::printf("%-7d %-5d %6d %10.3f %12.1f %14.0f %12llu\n", cell.scale, cell.jobs,
                  cell.runs, cell.wall_seconds, cell.runs_per_sec(), cell.events_per_sec(),
                  static_cast<unsigned long long>(cell.peak_pending));
    }
    cells.push_back(sequential);
    cells.push_back(parallel);
  }
  const CellResult& last_seq = cells[cells.size() - 2];
  const CellResult& last_par = cells[cells.size() - 1];
  const double jobs4_speedup =
      last_par.wall_seconds > 0 ? last_seq.wall_seconds / last_par.wall_seconds : 0;
  const ctbench::Spread speedup_spread = ctbench::Spread::Of(speedups);
  // The speedup bar only means something when 4 workers have 4 cores to run
  // on; on smaller machines (single-core CI containers) the number is
  // reported but not enforced, same as the stage-4 parallel smoke.
  // CRASHTUNER_ENFORCE_SPEEDUP=1/0 overrides the auto-detection either way.
  const int hardware_threads = ctcore::ResolveJobs(0);
  const bool enforce_speedup = ctbench::EnforceSpeedupBar(hardware_threads);
  std::printf("jobs=4 speedup at scale %d: %.2fx, median of %d interleaved pairs  (bar: >= 2x, "
              "%s on %d hardware thread(s))\n",
              last_seq.scale, jobs4_speedup, kTrials,
              enforce_speedup ? "enforced" : "not enforced", hardware_threads);
  std::printf("jobs=4 per-pair speedup: min %.2fx, q1 %.2fx, q3 %.2fx, max %.2fx\n",
              speedup_spread.min, speedup_spread.q1, speedup_spread.q3, speedup_spread.max);
  std::printf("per-run event counts identical across jobs: %s\n", deterministic ? "yes" : "NO");

  int failures = 0;
  failures += ratio < 10.0 ? 1 : 0;
  failures += enforce_speedup && jobs4_speedup < 2.0 ? 1 : 0;
  failures += deterministic ? 0 : 1;

  std::ofstream json(json_path);
  json << "{\n  \"schema\": \"crashtuner-bench-scale-v1\",\n";
  json << "  \"trials\": " << kTrials << ",\n";
  json << "  \"microbench\": {\n";
  json << "    \"events\": " << kMicroEvents << ",\n";
  json << "    \"live_window\": " << kWindow << ",\n";
  json << "    \"cancel_pct\": " << kCancelPct << ",\n";
  json << "    \"legacy_events_per_sec\": " << legacy_rate << ",\n";
  json << "    \"ladder_events_per_sec\": " << ladder_rate << ",\n";
  json << "    \"ratio\": " << ratio << ",\n";
  json << "    \"ratio_per_pair\": " << ratio_spread.ToJson() << "\n  },\n";
  json << "  \"campaigns\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    json << "    {\"scale\": " << cell.scale << ", \"jobs\": " << cell.jobs
         << ", \"runs\": " << cell.runs << ", \"wall_seconds\": " << cell.wall_seconds
         << ", \"runs_per_sec\": " << cell.runs_per_sec()
         << ", \"events_per_sec\": " << cell.events_per_sec()
         << ", \"peak_pending\": " << cell.peak_pending << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"largest_scale\": " << last_seq.scale << ",\n";
  json << "  \"jobs4_speedup_at_largest\": " << jobs4_speedup << ",\n";
  json << "  \"jobs4_speedup_per_pair\": " << speedup_spread.ToJson() << ",\n";
  json << "  \"hardware_threads\": " << hardware_threads << ",\n";
  json << "  \"speedup_bar_enforced\": " << (enforce_speedup ? "true" : "false") << ",\n";
  json << "  \"deterministic\": " << (deterministic ? "true" : "false") << ",\n";
  json << "  \"pass\": " << (failures == 0 ? "true" : "false") << "\n}\n";
  std::printf("wrote %s\n", json_path.c_str());

  return failures;
}
