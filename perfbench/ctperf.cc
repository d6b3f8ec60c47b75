// ctperf — the measuring half of the repository benchmark (perfbench/run.py
// is the other half: it builds this program, launches it, and turns its raw
// output into the benchmark's metrics).
//
// A workload is a set of complete CrashTuner campaigns over the five mini
// systems. One round runs every (system, context mode) pipeline of the
// workload once; a pipeline is one CrashTunerDriver::Run of one system (the
// record/replay workload runs two per system: the recording and the
// replay). Every pipeline's wall-zeroed report is checked against a
// reference — the checked-in goldens at campaign seed 2019 on s1-golden,
// plus the digests, trace hashes and bug ids pinned in reference.json on
// every workload — so a change that alters what CrashTuner finds fails here
// instead of reading as a speed-up.
//
//   ctperf --workload W --seed N --seconds S --trace 0|1 --reference FILE
//          [--golden-dir DIR] [--spans FILE] [--corrupt-reference]
//   ctperf --setup-only
//   ctperf --pin FILE [--golden-dir DIR]
//
// --trace 0 measures rounds through the public driver and reports raw round
// times, injection counts and peak RSS. --trace 1 spends half the budget on
// such rounds and half on a staged pipeline that makes the driver's public
// calls one at a time with a span around each (name, layer, system, parent,
// start, end), then runs probes for the layers the workload's own pipelines
// do not reach. Spans stay in memory and are written to --spans at exit;
// every staged report must equal the driver's report for the same pipeline.
// --pin regenerates the reference for all workloads and pinned seeds.
//
// A shared host drifts between speed regimes that last tens of seconds, so
// every timed round (and every set-up) is bracketed by a calibration: a
// fixed CPU kernel that does not depend on the program. run.py divides each
// time by the host-speed factor it gives.
//
// The last stdout line is one JSON object of raw measurements.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/call_graph.h"
#include "src/analysis/context_enumeration.h"
#include "src/core/campaign.h"
#include "src/core/crashtuner.h"
#include "src/core/executor.h"
#include "src/core/profiler.h"
#include "src/core/report_writer.h"
#include "src/core/trigger.h"
#include "src/obs/json.h"
#include "src/obs/observer.h"
#include "src/obs/snapshot.h"
#include "src/sim/trace.h"
#include "src/systems/cassandra/cass_system.h"
#include "src/systems/hbase/hbase_system.h"
#include "src/systems/hdfs/hdfs_system.h"
#include "src/systems/yarn/yarn_system.h"
#include "src/systems/zookeeper/zk_system.h"

namespace {

using Clock = std::chrono::steady_clock;
using ctcore::ContextMode;

double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// Campaign seeds with a pinned reference. A benchmark seed N runs campaign
// seed 2019 + ((N - 2019) mod kPinnedSeeds), so seed 2019 is the goldens'.
constexpr uint64_t kBaseSeed = 2019;
constexpr uint64_t kPinnedSeeds = 8;

uint64_t CampaignSeed(long long bench_seed) {
  const long long offset = (bench_seed - static_cast<long long>(kBaseSeed)) %
                           static_cast<long long>(kPinnedSeeds);
  return kBaseSeed + static_cast<uint64_t>(offset < 0 ? offset + kPinnedSeeds : offset);
}

// Table 5 at the golden seed: issue rows and critical rows over the five
// profiled campaigns.
constexpr int kTable5Issues = 18;
constexpr int kTable5Critical = 7;

// Record/replay probe size on workloads that do not record (per system).
constexpr int kProbePoints = 8;
// Profiled-run probe repetitions (per system).
constexpr int kProbeRepeats = 3;

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  int scale = 1;
  std::vector<ContextMode> modes;
  ctcore::InjectionMode injection = ctcore::InjectionMode::kCrash;
  int jobs = 1;
  bool record_replay = false;
};

int Nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<Workload> AllWorkloads() {
  Workload golden;
  golden.name = "s1-golden";
  golden.scale = 1;
  golden.modes = {ContextMode::kProfiled, ContextMode::kStaticOnly};
  Workload s8;
  s8.name = "s8";
  s8.scale = 8;
  s8.modes = {ContextMode::kProfiled};
  Workload netfault;
  netfault.name = "netfault-replay-s4";
  netfault.scale = 4;
  netfault.modes = {ContextMode::kProfiled};
  netfault.injection = ctcore::InjectionMode::kNetworkFault;
  netfault.jobs = std::min(4, Nproc());
  netfault.record_replay = true;
  return {golden, s8, netfault};
}

const Workload* FindWorkload(const std::vector<Workload>& workloads, const std::string& name) {
  for (const Workload& workload : workloads) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

const char* ModeName(ContextMode mode) {
  switch (mode) {
    case ContextMode::kProfiled:
      return "profiled";
    case ContextMode::kStaticSeeded:
      return "static_seeded";
    case ContextMode::kStaticOnly:
      return "static_only";
  }
  return "unknown";
}

ctcore::DriverOptions OptionsFor(const Workload& workload, ContextMode mode, uint64_t seed) {
  ctcore::DriverOptions options;
  options.seed = seed;
  options.jobs = workload.jobs;
  options.context_mode = mode;
  options.injection_mode = workload.injection;
  return options;
}

// ---------------------------------------------------------------------------
// Systems. `id` names the golden files and the per-system metrics.

struct System {
  std::string id;
  std::unique_ptr<ctcore::SystemUnderTest> sut;
};

std::vector<System> MakeSystems(int scale) {
  std::vector<System> systems;
  systems.push_back({"yarn", std::make_unique<ctyarn::YarnSystem>()});
  systems.push_back({"hdfs", std::make_unique<cthdfs::HdfsSystem>()});
  systems.push_back({"hbase", std::make_unique<cthbase::HBaseSystem>()});
  systems.push_back({"zookeeper", std::make_unique<ctzk::ZkSystem>()});
  systems.push_back({"cassandra", std::make_unique<ctcass::CassSystem>()});
  for (System& system : systems) {
    system.sut->set_scale(scale);
  }
  return systems;
}

// ---------------------------------------------------------------------------
// Spans: recorded around each public call of the staged pipeline, kept in
// memory, written once at exit.

class SpanLog {
 public:
  struct Record {
    uint64_t parent = 0;
    std::string layer;
    std::string name;
    std::string system;
    Clock::time_point start;
    Clock::time_point end;
    int thread = 0;
  };

  SpanLog() : origin_(Clock::now()) {}

  uint64_t Begin(uint64_t parent, std::string layer, std::string name, std::string system) {
    Record record;
    record.parent = parent;
    record.layer = std::move(layer);
    record.name = std::move(name);
    record.system = std::move(system);
    record.thread = ThreadIndex();
    std::lock_guard<std::mutex> lock(mu_);
    record.start = Clock::now();
    record.end = record.start;
    records_.push_back(std::move(record));
    return records_.size();  // ids start at 1; 0 means "no parent"
  }

  double End(uint64_t id) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    Record& record = records_[id - 1];
    record.end = now;
    return SecondsBetween(record.start, record.end);
  }

  void Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out.good()) {
      throw std::runtime_error("cannot write spans to " + path);
    }
    out << "{\"format\":\"ctperf-spans-v1\",\"clock\":\"steady_us\",\"spans\":[";
    char buffer[128];
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& record = records_[i];
      const double start_us =
          std::chrono::duration<double, std::micro>(record.start - origin_).count();
      const double end_us = std::chrono::duration<double, std::micro>(record.end - origin_).count();
      out << (i == 0 ? "" : ",") << "\n{\"id\":" << (i + 1) << ",\"parent\":" << record.parent
          << ",\"layer\":\"" << record.layer << "\",\"name\":\""
          << ctcore::JsonEscape(record.name) << "\",\"sys\":\"" << record.system << "\"";
      std::snprintf(buffer, sizeof(buffer), ",\"start_us\":%.3f,\"end_us\":%.3f,\"thread\":%d}",
                    start_us, end_us, record.thread);
      out << buffer;
    }
    out << "\n]}\n";
  }

 private:
  static int ThreadIndex() {
    static std::atomic<int> next{0};
    thread_local int index = next.fetch_add(1);
    return index;
  }

  mutable std::mutex mu_;
  std::vector<Record> records_;
  Clock::time_point origin_;
};

// Open spans of the calling thread; a span's parent defaults to the
// innermost one. Worker-thread spans pass their parent explicitly.
thread_local std::vector<uint64_t> open_spans;

class Span {
 public:
  static constexpr uint64_t kInherit = ~0ull;

  Span(SpanLog& log, const char* layer, std::string name, std::string system = "",
       uint64_t parent = kInherit)
      : log_(&log) {
    if (parent == kInherit) {
      parent = open_spans.empty() ? 0 : open_spans.back();
    }
    id_ = log_->Begin(parent, layer, std::move(name), std::move(system));
    open_spans.push_back(id_);
  }
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span (once) and returns its duration in seconds.
  double Close() {
    if (open_) {
      open_ = false;
      seconds_ = log_->End(id_);
      open_spans.pop_back();
    }
    return seconds_;
  }
  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_ = 0;
  bool open_ = true;
  double seconds_ = 0;
};

// ---------------------------------------------------------------------------
// Reports and references.

std::string Serialize(ctcore::SystemReport report) {
  report.analysis_wall_seconds = 0;
  report.test_wall_seconds = 0;
  return ctcore::ReportToJson(report);
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

// What one pipeline produced, for checking against its reference.
struct PipelineResult {
  std::string key;  // "<system>_<mode>"
  std::string json;
  uint64_t trace_hash = 0;
  std::vector<std::string> bug_ids;
  int critical = 0;
  std::string error;  // exception text; empty when the Run returned
  bool replayed = false;
  std::string replay_json;
  std::string replay_error;
};

void Summarize(const ctcore::SystemReport& report, PipelineResult* result) {
  result->json = Serialize(report);
  result->trace_hash = report.trace_hash;
  for (const ctcore::DetectedBug& bug : report.bugs) {
    result->bug_ids.push_back(bug.bug_id);
    if (bug.priority == "Critical") {
      ++result->critical;
    }
  }
}

struct Expected {
  std::string report_fnv;
  std::string trace_hash;
  std::vector<std::string> bug_ids;
  std::string golden;  // checked-in golden text (s1-golden at seed 2019 only)
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw std::runtime_error("cannot read " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// A golden file's text without its trailing newline, as the golden test
// compares it.
std::string ReadGolden(const std::string& golden_dir, const std::string& key) {
  std::string golden = ReadFile(golden_dir + "/" + key + ".json");
  while (!golden.empty() && (golden.back() == '\n' || golden.back() == '\r')) {
    golden.pop_back();
  }
  return golden;
}

std::string ReferenceKey(const std::string& workload, uint64_t seed, const std::string& key) {
  return workload + "/" + std::to_string(seed) + "/" + key;
}

// Loads the expectations for one workload at one campaign seed.
std::map<std::string, Expected> LoadExpectations(const std::string& reference_path,
                                                 const std::string& golden_dir,
                                                 const Workload& workload,
                                                 const std::vector<System>& systems,
                                                 uint64_t seed) {
  const ctobs::JsonValue root = ctobs::ParseJson(ReadFile(reference_path));
  const ctobs::JsonValue* format = root.Find("format");
  const ctobs::JsonValue* pipelines = root.Find("pipelines");
  if (format == nullptr || !format->is_string() ||
      format->string_value != "ctperf-reference-v1" || pipelines == nullptr ||
      !pipelines->is_object()) {
    throw std::runtime_error(reference_path + ": not a ctperf-reference-v1 file");
  }
  std::map<std::string, Expected> expected;
  for (const System& system : systems) {
    for (ContextMode mode : workload.modes) {
      const std::string key = system.id + "_" + ModeName(mode);
      const ctobs::JsonValue* entry = pipelines->Find(ReferenceKey(workload.name, seed, key));
      if (entry == nullptr || !entry->is_object()) {
        throw std::runtime_error(reference_path + ": no entry for " +
                                 ReferenceKey(workload.name, seed, key));
      }
      Expected& want = expected[key];
      const ctobs::JsonValue* fnv = entry->Find("report_fnv");
      const ctobs::JsonValue* trace = entry->Find("trace_hash");
      const ctobs::JsonValue* bugs = entry->Find("bugs");
      if (fnv == nullptr || !fnv->is_string() || trace == nullptr || !trace->is_string() ||
          bugs == nullptr || !bugs->is_array()) {
        throw std::runtime_error(reference_path + ": malformed entry " + key);
      }
      want.report_fnv = fnv->string_value;
      want.trace_hash = trace->string_value;
      for (const ctobs::JsonValue& bug : bugs->array_items) {
        if (!bug.is_string()) {
          throw std::runtime_error(reference_path + ": malformed bug id in " + key);
        }
        want.bug_ids.push_back(bug.string_value);
      }
      if (workload.name == "s1-golden" && seed == kBaseSeed) {
        want.golden = ReadGolden(golden_dir, key);
      }
    }
  }
  return expected;
}

// Flips one byte of one reference, chosen by the seed: the self-test that
// proves a wrong reference is caught.
void CorruptOneByte(std::map<std::string, Expected>* expected, long long seed) {
  const size_t pick = static_cast<size_t>(seed < 0 ? -seed : seed);
  auto it = expected->begin();
  std::advance(it, static_cast<long>(pick % expected->size()));
  std::string& target = it->second.golden.empty() ? it->second.report_fnv : it->second.golden;
  const size_t position = pick % target.size();
  target[position] = static_cast<char>(target[position] ^ 0x01);
  std::fprintf(stderr, "ctperf: corrupted byte %zu of the %s reference for %s\n", position,
               it->second.golden.empty() ? "pinned digest" : "golden", it->first.c_str());
}

// Empty when `result` matches; otherwise why not.
std::string CheckPipeline(const PipelineResult& result, const Expected& want) {
  if (!result.error.empty()) {
    return result.key + ": threw: " + result.error;
  }
  if (!want.golden.empty() && result.json != want.golden) {
    return result.key + ": report differs from the golden file";
  }
  if (Hex(Fnv1a(result.json)) != want.report_fnv) {
    return result.key + ": report digest " + Hex(Fnv1a(result.json)) + " != pinned " +
           want.report_fnv;
  }
  if (Hex(result.trace_hash) != want.trace_hash) {
    return result.key + ": trace hash " + Hex(result.trace_hash) + " != pinned " +
           want.trace_hash;
  }
  if (result.bug_ids != want.bug_ids) {
    return result.key + ": triaged bug ids differ from the pinned ones";
  }
  return "";
}

std::string CheckReplay(const PipelineResult& result) {
  if (!result.replay_error.empty()) {
    return result.key + ": replay threw: " + result.replay_error;
  }
  if (result.replay_json != result.json) {
    return result.key + ": replay report differs from the recorded one";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Untraced pipeline: the public driver, exactly as a user calls it.

struct RoundTotals {
  double seconds = 0;
  long long injections = 0;
  double test_wall_seconds = 0;
};

PipelineResult DriverPipeline(const System& system, ContextMode mode, const Workload& workload,
                              uint64_t seed, RoundTotals* totals) {
  PipelineResult result;
  result.key = system.id + "_" + ModeName(mode);
  ctcore::CrashTunerDriver driver;
  ctcore::DriverOptions options = OptionsFor(workload, mode, seed);
  ctcore::TraceStore store;
  ctobs::CampaignObserver observer;
  if (workload.record_replay) {
    options.record_traces = &store;
    options.observer = &observer;
  }
  try {
    ctcore::SystemReport report = driver.Run(*system.sut, options);
    totals->injections += static_cast<long long>(report.injections.size());
    totals->test_wall_seconds += report.test_wall_seconds;
    if (workload.record_replay) {
      observer.Finalize();
      observer.dossiers();
    }
    Summarize(report, &result);
    ctcore::ReportToMarkdown(report);
  } catch (const std::exception& error) {
    result.error = error.what();
    return result;
  }
  if (workload.record_replay) {
    result.replayed = true;
    ctcore::DriverOptions replay = OptionsFor(workload, mode, seed);
    replay.replay_traces = &store;
    try {
      ctcore::SystemReport report = driver.Run(*system.sut, replay);
      totals->injections += static_cast<long long>(report.injections.size());
      totals->test_wall_seconds += report.test_wall_seconds;
      result.replay_json = Serialize(report);
      ctcore::ReportToMarkdown(report);
    } catch (const std::exception& error) {
      result.replay_error = error.what();
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Staged pipeline: CrashTunerDriver::Run taken apart into its public calls,
// one span each. It must produce the driver's report byte for byte.

// Per-layer counters read from public accessors during traced rounds.
struct LayerCounts {
  std::map<std::string, double> values;  // metric name -> value
  void SetOnce(const std::string& name, double value) { values.emplace(name, value); }
  void Add(const std::string& name, double value) { values[name] += value; }
};

// Phase-1 state a pipeline hands to Phase 2 and to the probes.
struct Phase1 {
  const System* system = nullptr;
  ctcore::SystemReport report;
  std::unique_ptr<ctanalysis::LogAnalysis> log_analysis;
};

// Phase 1 of CrashTunerDriver::Run. `counts` (may be null) receives the
// fault-free run's simulator and logging counters and the analysis counts.
std::unique_ptr<Phase1> StagedPhase1(const System& system, ContextMode mode, uint64_t seed,
                                     SpanLog& spans, LayerCounts* counts) {
  auto state = std::make_unique<Phase1>();
  state->system = &system;
  ctcore::SystemReport& report = state->report;
  const ctcore::SystemUnderTest& sut = *system.sut;
  const std::string& sys = system.id;
  report.system = sut.name();
  const ctmodel::ProgramModel& model = sut.model();
  Span phase(spans, "bench", "phase1", sys);

  std::unique_ptr<ctcore::WorkloadRun> log_run;
  {
    Span span(spans, "sim", "SystemUnderTest::NewRun", sys);
    log_run = sut.NewRun(sut.default_workload_size(), seed);
  }
  {
    Span span(spans, "sim", "Executor::Execute", sys);
    ctcore::Executor::Execute(*log_run, /*baseline=*/nullptr);
  }
  std::vector<ctlog::Instance> run_logs;
  {
    Span span(spans, "logging", "LogStore::instances", sys);
    run_logs = log_run->cluster().logs().instances();
  }
  std::vector<std::string> hosts = log_run->cluster().config_hosts();
  if (counts != nullptr) {
    ctsim::Cluster& cluster = log_run->cluster();
    counts->SetOnce("sim.events." + sys, static_cast<double>(cluster.loop().executed_events()));
    counts->SetOnce("sim.peak_pending." + sys,
                    static_cast<double>(cluster.loop().peak_pending_events()));
    counts->SetOnce("sim.messages." + sys, static_cast<double>(cluster.delivered_messages()));
    counts->SetOnce("sim.heartbeats." + sys, static_cast<double>(cluster.heartbeat_messages()));
    counts->SetOnce("logging.instances." + sys, static_cast<double>(run_logs.size()));
  }
  log_run.reset();

  state->log_analysis = std::make_unique<ctanalysis::LogAnalysis>(&model, hosts);
  {
    Span span(spans, "analysis", "LogAnalysis::Analyze", sys);
    report.log_result = state->log_analysis->Analyze(run_logs);
  }
  ctanalysis::MetaInfoInference inference(&model);
  {
    Span span(spans, "analysis", "MetaInfoInference::Infer", sys);
    report.metainfo = inference.Infer(report.log_result.seed_types, report.log_result.seed_fields);
  }
  const bool static_mode = mode != ContextMode::kProfiled;
  ctanalysis::CrashPointOptions crash_point_options;
  if (static_mode) {
    crash_point_options.prune_statically_unreachable = true;
  }
  ctanalysis::CrashPointAnalysis crash_analysis(&model, &report.metainfo);
  {
    Span span(spans, "analysis", "CrashPointAnalysis::Identify", sys);
    report.crash_points = crash_analysis.Identify(crash_point_options);
  }

  ctcore::Profiler profiler;
  {
    Span span(spans, "runtime", "Profiler::Profile", sys);
    if (mode == ContextMode::kProfiled) {
      report.profile =
          profiler.Profile(sut, report.crash_points.PointIds(), /*io_points=*/{}, seed);
    } else {
      report.profile = profiler.Profile(sut, /*access_points=*/{}, /*io_points=*/{}, seed,
                                        /*max_iterations=*/1);
    }
  }
  if (static_mode) {
    const ctcore::DriverOptions defaults;
    std::unique_ptr<ctanalysis::CallGraph> graph;
    {
      Span span(spans, "analysis", "CallGraph::CallGraph", sys);
      graph = std::make_unique<ctanalysis::CallGraph>(model);
    }
    ctanalysis::ContextEnumeration enumeration(graph.get());
    ctanalysis::StaticContextResult contexts;
    {
      Span span(spans, "analysis", "ContextEnumeration::EnumerateAll", sys);
      contexts = enumeration.EnumerateAll(defaults.static_context_depth,
                                          defaults.prune_infeasible_contexts);
    }
    if (counts != nullptr) {
      counts->Add("analysis.contexts", contexts.TotalContexts());
    }
    report.context_check =
        ctanalysis::CompareWithProfile(contexts, report.profile.dynamic_access_points);
    std::set<ctrt::DynamicPoint> static_points;
    for (int id : report.crash_points.PointIds()) {
      const ctmodel::AccessPointDecl& point = model.access_point(id);
      if (!point.executable) {
        continue;
      }
      auto it = contexts.contexts_by_point.find(id);
      if (it == contexts.contexts_by_point.end()) {
        if (contexts.unreachable_points.count(id) > 0) {
          ++report.static_unreachable_points;
        } else if (contexts.infeasible_points.count(id) > 0) {
          ++report.static_infeasible_points;
        }
        continue;
      }
      for (const std::string& key : it->second) {
        static_points.insert({id, key});
      }
    }
    report.static_contexts = static_cast<int>(static_points.size());
    report.static_pruned_call_strings = contexts.pruned_call_strings;
    report.profile.dynamic_access_points = std::move(static_points);
  }
  report.profile_virtual_seconds =
      static_cast<double>(report.profile.normal_duration_ms) * report.profile.iterations / 1000.0;
  if (counts != nullptr) {
    counts->Add("analysis.static_points", static_cast<double>(report.crash_points.points.size()));
    counts->Add("analysis.dynamic_points",
                static_cast<double>(report.profile.dynamic_access_points.size()));
  }
  return state;
}

// The Phase-2 tasks in TestAll's order: every dynamic point whose static
// point is known, seeded campaign seed + 1000 + index.
struct Task {
  ctrt::DynamicPoint point;
  ctanalysis::CrashPointKind kind;
};

std::vector<Task> Phase2Tasks(const Phase1& state) {
  std::map<int, ctanalysis::CrashPointKind> kinds;
  for (const auto& static_point : state.report.crash_points.points) {
    kinds[static_point.access_point_id] = static_point.kind;
  }
  std::vector<Task> tasks;
  for (const auto& point : state.report.profile.dynamic_access_points) {
    auto it = kinds.find(point.point_id);
    if (it != kinds.end()) {
      tasks.push_back({point, it->second});
    }
  }
  return tasks;
}

struct Phase2Pass {
  const char* layer = "core";
  const char* span_name = "FaultInjectionTester::TestPoint";
  ctcore::TraceStore* record = nullptr;
  const ctcore::TraceStore* replay = nullptr;
  ctobs::CampaignObserver* observer = nullptr;
  int max_points = -1;  // -1: every task
};

// Runs one Phase-2 pass through CampaignEngine at the workload's jobs count,
// one span per TestPoint. Returns the results in index order.
std::vector<ctcore::InjectionResult> StagedPhase2(const Phase1& state, const Workload& workload,
                                                  uint64_t seed, const Phase2Pass& pass,
                                                  SpanLog& spans, ctsim::Time* virtual_ms) {
  const ctcore::SystemUnderTest& sut = *state.system->sut;
  const std::string& sys = state.system->id;
  const ctcore::SystemReport& report = state.report;
  ctcore::FaultInjectionTester tester(&sut, &report.crash_points,
                                      state.log_analysis->MakeOnlineFilter(report.log_result),
                                      report.profile.baseline, report.profile.normal_duration_ms);
  tester.set_injection_mode(workload.injection);
  if (workload.injection == ctcore::InjectionMode::kNetworkFault) {
    std::map<int, ctsim::Time> windows;
    for (const auto& window : sut.model().network_fault_windows()) {
      windows[window.point] = static_cast<ctsim::Time>(window.partition_ms);
    }
    tester.ConfigureNetworkWindows(std::move(windows), ctcore::DriverOptions().network_partition_ms);
  }
  tester.set_record_store(pass.record);
  tester.set_replay_store(pass.replay);
  tester.set_observer(pass.observer);
  std::vector<Task> tasks = Phase2Tasks(state);
  if (pass.max_points >= 0 && static_cast<int>(tasks.size()) > pass.max_points) {
    tasks.resize(static_cast<size_t>(pass.max_points));
  }
  Span phase(spans, "bench", "phase2", sys);
  const uint64_t parent = phase.id();
  const uint64_t base_seed = seed + 1000;
  ctcore::CampaignEngine engine(workload.jobs);
  std::vector<ctcore::InjectionResult> results =
      engine.Map(static_cast<int>(tasks.size()), [&](int i) {
        const Task& task = tasks[static_cast<size_t>(i)];
        Span span(spans, pass.layer, pass.span_name, sys, parent);
        return tester.TestPoint(task.point, task.kind, base_seed + static_cast<uint64_t>(i), i);
      });
  *virtual_ms = tester.total_virtual_ms();
  return results;
}

// The driver's reporting tail.
ctcore::SystemReport StagedFinish(std::unique_ptr<Phase1> state,
                                  std::vector<ctcore::InjectionResult> injections,
                                  ctsim::Time virtual_ms, SpanLog& spans) {
  const ctcore::SystemUnderTest& sut = *state->system->sut;
  const ctmodel::ProgramModel& model = sut.model();
  ctcore::SystemReport report = std::move(state->report);
  report.injections = std::move(injections);
  report.test_virtual_hours = static_cast<double>(virtual_ms) / 3'600'000.0;
  report.total_types = model.NumTypes();
  report.total_fields = model.NumFields();
  report.total_access_points = model.NumAccessPoints();
  report.metainfo_types = report.metainfo.NumTypes();
  report.metainfo_fields = report.metainfo.NumFields();
  report.metainfo_access_points = report.crash_points.metainfo_access_points;
  report.static_crash_points = static_cast<int>(report.crash_points.points.size());
  report.dynamic_crash_points = static_cast<int>(report.profile.dynamic_access_points.size());
  report.pruned_constructor = report.crash_points.pruned_constructor;
  report.pruned_unused = report.crash_points.pruned_unused;
  report.pruned_sanity_checked = report.crash_points.pruned_sanity_checked;
  uint64_t combined = 1469598103934665603ull;
  for (const auto& injection : report.injections) {
    for (int shift = 0; shift < 64; shift += 8) {
      combined ^= (injection.trace_hash >> shift) & 0xffull;
      combined *= 1099511628211ull;
    }
  }
  report.trace_hash = report.injections.empty() ? 0 : combined;
  {
    Span span(spans, "core", "TriageBugs", state->system->id);
    report.bugs = ctcore::TriageBugs(sut, report.injections);
  }
  for (const auto& injection : report.injections) {
    if (injection.injected && !injection.outcome.IsBug() && injection.outcome.timeout_issue) {
      report.timeout_issues.push_back(injection);
    }
  }
  return report;
}

void CountInjections(const std::vector<ctcore::InjectionResult>& results, LayerCounts* counts) {
  for (const auto& result : results) {
    counts->Add("core.attempts", 1);
    counts->Add("core.hits", result.point_hit ? 1 : 0);
    counts->Add("core.faults", result.injected ? 1 : 0);
    counts->Add("core.bugs", result.outcome.IsBug() ? 1 : 0);
    counts->Add("sim.virtual_ms", static_cast<double>(result.outcome.virtual_duration_ms));
  }
}

// One staged CrashTunerDriver::Run. `counts` (may be null) receives the
// Phase-1 counters; `injection_counts` (may be null) the Phase-2 outcomes.
ctcore::SystemReport StagedRun(const System& system, ContextMode mode, const Workload& workload,
                               uint64_t seed, const Phase2Pass& pass, SpanLog& spans,
                               LayerCounts* counts, LayerCounts* injection_counts) {
  std::unique_ptr<Phase1> state = StagedPhase1(system, mode, seed, spans, counts);
  ctsim::Time virtual_ms = 0;
  std::vector<ctcore::InjectionResult> injections =
      StagedPhase2(*state, workload, seed, pass, spans, &virtual_ms);
  if (injection_counts != nullptr) {
    CountInjections(injections, injection_counts);
  }
  return StagedFinish(std::move(state), std::move(injections), virtual_ms, spans);
}

// Serializes a staged report inside report-writer spans, as the driver
// pipeline's round does.
void StagedSerialize(const ctcore::SystemReport& report, const std::string& sys, SpanLog& spans,
                     PipelineResult* result) {
  {
    Span span(spans, "core", "ReportToJson", sys);
    Summarize(report, result);
  }
  Span span(spans, "core", "ReportToMarkdown", sys);
  ctcore::ReportToMarkdown(report);
}

double TraceEvents(ctcore::TraceStore& store) {
  double events = 0;
  for (const auto& [slot, trace] : store.traces()) {
    events += static_cast<double>(trace.size());
  }
  return events;
}

Phase2Pass RecordPass(ctcore::TraceStore* store, ctobs::CampaignObserver* observer) {
  Phase2Pass pass;
  pass.layer = "trace";
  pass.span_name = "FaultInjectionTester::TestPoint[record]";
  pass.record = store;
  pass.observer = observer;
  return pass;
}

Phase2Pass ReplayPass(const ctcore::TraceStore* store) {
  Phase2Pass pass;
  pass.layer = "trace";
  pass.span_name = "FaultInjectionTester::TestPoint[replay]";
  pass.replay = store;
  return pass;
}

// Finalizes an observed campaign inside its span and counts what it holds.
void FinalizeObserved(const ctobs::CampaignObserver& observer, ctcore::TraceStore& store,
                      const std::string& sys, SpanLog& spans, LayerCounts* counts) {
  Span span(spans, "obs", "CampaignObserver::Finalize+dossiers", sys);
  observer.Finalize();
  const size_t dossiers = observer.dossiers().size();
  span.Close();
  if (counts != nullptr) {
    counts->Add("obs.dossiers", static_cast<double>(dossiers));
    counts->Add("obs.runs", observer.runs());
    counts->Add("trace.events", TraceEvents(store));
  }
}

// The staged twin of DriverPipeline. `counts` is null after the first
// traced round (counters repeat exactly); `injection_counts` is never null.
PipelineResult StagedPipeline(const System& system, ContextMode mode, const Workload& workload,
                              uint64_t seed, SpanLog& spans, LayerCounts* counts,
                              LayerCounts* injection_counts) {
  PipelineResult result;
  result.key = system.id + "_" + ModeName(mode);
  const std::string& sys = system.id;
  Span pipeline(spans, "bench", "pipeline:" + result.key, sys);
  ctcore::TraceStore store;
  ctobs::CampaignObserver observer;
  try {
    const Phase2Pass pass = workload.record_replay ? RecordPass(&store, &observer) : Phase2Pass();
    ctcore::SystemReport report =
        StagedRun(system, mode, workload, seed, pass, spans, counts, injection_counts);
    if (workload.record_replay) {
      FinalizeObserved(observer, store, sys, spans, counts);
    }
    StagedSerialize(report, sys, spans, &result);
  } catch (const std::exception& error) {
    result.error = error.what();
    return result;
  }
  if (workload.record_replay) {
    result.replayed = true;
    try {
      ctcore::SystemReport report = StagedRun(system, mode, workload, seed, ReplayPass(&store),
                                              spans, nullptr, nullptr);
      PipelineResult replay;
      StagedSerialize(report, sys, spans, &replay);
      result.replay_json = replay.json;
    } catch (const std::exception& error) {
      result.replay_error = error.what();
    }
  }
  return result;
}

// Probes: public calls the workload's own pipelines do not make, run once
// after the traced rounds so every layer has a number on every workload.
// They hang off their own root span and are never part of a traced round.
//   - a profiled fault-free run per system (tracer hook firings);
//   - the static analyses, unless the workload runs static-only pipelines;
//   - record, observe and replay of the first kProbePoints injections per
//     system, unless the workload records and replays itself.
void RunProbes(const Workload& workload, uint64_t seed, const std::vector<System>& systems,
               SpanLog& spans, LayerCounts* counts) {
  Span root(spans, "bench", "probes");
  const bool has_static = std::find(workload.modes.begin(), workload.modes.end(),
                                    ContextMode::kStaticOnly) != workload.modes.end();
  for (const System& system : systems) {
    const ctcore::SystemUnderTest& sut = *system.sut;
    std::unique_ptr<Phase1> state =
        StagedPhase1(system, ContextMode::kProfiled, seed, spans, nullptr);
    const std::set<int> points = state->report.crash_points.PointIds();
    for (int repeat = 0; repeat < kProbeRepeats; ++repeat) {
      Span span(spans, "runtime", "profiled-run", system.id);
      auto run = sut.NewRun(sut.default_workload_size(), seed, [&](ctrt::RunContext& context) {
        context.tracer().Reset(ctrt::TraceMode::kProfile);
        context.tracer().SetProfiledPoints(points, {});
      });
      ctcore::Executor::Execute(*run, /*baseline=*/nullptr);
      span.Close();
      counts->SetOnce("runtime.hook_firings." + system.id,
                      static_cast<double>(run->context().tracer().hook_firings()));
    }
    if (!has_static) {
      const ctcore::DriverOptions defaults;
      std::unique_ptr<ctanalysis::CallGraph> graph;
      {
        Span span(spans, "analysis", "CallGraph::CallGraph", system.id);
        graph = std::make_unique<ctanalysis::CallGraph>(sut.model());
      }
      ctanalysis::ContextEnumeration enumeration(graph.get());
      Span span(spans, "analysis", "ContextEnumeration::EnumerateAll", system.id);
      ctanalysis::StaticContextResult contexts = enumeration.EnumerateAll(
          defaults.static_context_depth, defaults.prune_infeasible_contexts);
      span.Close();
      counts->Add("analysis.contexts", contexts.TotalContexts());
    }
    if (!workload.record_replay) {
      ctcore::TraceStore store;
      ctobs::CampaignObserver observer;
      ctsim::Time virtual_ms = 0;
      Phase2Pass record = RecordPass(&store, &observer);
      record.max_points = kProbePoints;
      StagedPhase2(*state, workload, seed, record, spans, &virtual_ms);
      FinalizeObserved(observer, store, system.id, spans, counts);
      Phase2Pass replay = ReplayPass(&store);
      replay.max_points = kProbePoints;
      StagedPhase2(*state, workload, seed, replay, spans, &virtual_ms);
    }
  }
}

// ---------------------------------------------------------------------------
// Rounds and accounting.

struct Accounting {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  // first few reasons

  void Record(const std::string& failure) {
    ++attempted;
    if (!failure.empty()) {
      ++failed;
      if (failures.size() < 20) {
        failures.push_back(failure);
      }
    }
  }
};

// Checks one round's pipelines: against the reference, replays against
// their recordings, and Table 5 at the golden seed. `driver_json` (traced
// rounds) holds the driver pipeline's report per key, which the staged
// report must equal.
void CheckRound(const std::vector<PipelineResult>& results, const Workload& workload,
                uint64_t seed, const std::map<std::string, Expected>& expected,
                const std::map<std::string, std::string>* driver_json, Accounting* accounting) {
  const bool table5 = workload.name == "s1-golden" && seed == kBaseSeed;
  int issues = 0;
  int critical = 0;
  for (const PipelineResult& result : results) {
    if (table5 && result.key.ends_with("_profiled")) {
      issues += static_cast<int>(result.bug_ids.size());
      critical += result.critical;
    }
  }
  const bool table5_ok = !table5 || (issues == kTable5Issues && critical == kTable5Critical);
  for (const PipelineResult& result : results) {
    std::string failure = CheckPipeline(result, expected.at(result.key));
    if (failure.empty() && driver_json != nullptr) {
      auto it = driver_json->find(result.key);
      if (it == driver_json->end() || it->second != result.json) {
        failure = result.key + ": staged report differs from CrashTunerDriver::Run";
      }
    }
    if (failure.empty() && !table5_ok && result.key.ends_with("_profiled")) {
      failure = result.key + ": Table 5 not reproduced (" + std::to_string(issues) +
                " issues, " + std::to_string(critical) + " critical)";
    }
    accounting->Record(failure);
    if (result.replayed) {
      accounting->Record(result.error.empty() ? CheckReplay(result)
                                              : result.key + ": no recording to replay");
    }
  }
}

std::vector<PipelineResult> DriverRound(const Workload& workload, const std::vector<System>& systems,
                                        uint64_t seed, RoundTotals* totals) {
  std::vector<PipelineResult> results;
  const Clock::time_point start = Clock::now();
  for (const System& system : systems) {
    for (ContextMode mode : workload.modes) {
      results.push_back(DriverPipeline(system, mode, workload, seed, totals));
    }
  }
  totals->seconds = SecondsBetween(start, Clock::now());
  return results;
}

// Builds the five systems and their program models; returns the seconds it
// took. The models are process-wide statics, so only a process's first call
// measures set-up.
double SetUp(int scale, std::vector<System>* systems, SpanLog& spans) {
  const Clock::time_point start = Clock::now();
  *systems = MakeSystems(scale);
  for (const System& system : *systems) {
    Span span(spans, "model", "SystemUnderTest::model", system.id);
    system.sut->model();
  }
  return SecondsBetween(start, Clock::now());
}

// One pass of the calibration kernel: hashing, an ordered map and a sort
// over a few tens of kilobytes, 0.45-0.7 ms on a 2.0 GHz Xeon.
double CalibrationPassSeconds() {
  const Clock::time_point start = Clock::now();
  uint64_t hash = 1469598103934665603ull;
  std::map<uint64_t, uint64_t> buckets;
  std::vector<uint64_t> values;
  values.reserve(4000);
  for (uint64_t i = 0; i < 4000; ++i) {
    hash = (hash ^ i) * 1099511628211ull;
    buckets[hash % 1024] += hash;
    values.push_back(hash >> 7);
  }
  std::sort(values.begin(), values.end());
  static volatile uint64_t sink = 0;
  sink = sink + values[values.size() / 2] + buckets.size();
  return SecondsBetween(start, Clock::now());
}

// Median of five calibration passes, or with threads > 1 the mean of that
// median over as many threads at once, so a parallel workload's factor
// covers the cores its workers run on.
double Calibrate(int threads = 1) {
  std::vector<double> medians(static_cast<size_t>(threads));
  auto calibrate = [&medians](size_t index) {
    std::vector<double> passes;
    for (int i = 0; i < 5; ++i) {
      passes.push_back(CalibrationPassSeconds());
    }
    std::sort(passes.begin(), passes.end());
    medians[index] = passes[passes.size() / 2];
  };
  std::vector<std::thread> workers;
  for (size_t i = 1; i < medians.size(); ++i) {
    workers.emplace_back(calibrate, i);
  }
  calibrate(0);
  for (std::thread& worker : workers) {
    worker.join();
  }
  double sum = 0;
  for (double median : medians) {
    sum += median;
  }
  return sum / static_cast<double>(medians.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  char buffer[48];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%s%.9g", i == 0 ? "" : ",", values[i]);
    out += buffer;
  }
  return out + "]";
}

std::string JsonNumber(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

struct Args {
  std::string workload;
  long long seed = static_cast<long long>(kBaseSeed);
  double seconds = 10;
  bool trace = false;
  std::string reference;
  std::string golden_dir = "tests/golden";
  std::string spans;
  bool corrupt = false;
  bool setup_only = false;
  std::string pin;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "ctperf: %s\nusage: ctperf --workload W --seed N --seconds S --trace 0|1 "
               "--reference FILE [--golden-dir DIR] [--spans FILE] [--corrupt-reference]\n"
               "       ctperf --setup-only\n"
               "       ctperf --pin FILE [--golden-dir DIR]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + arg).c_str());
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        args.workload = value();
      } else if (arg == "--seed") {
        args.seed = std::stoll(value());
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string trace = value();
        if (trace != "0" && trace != "1") {
          Usage("--trace takes 0 or 1");
        }
        args.trace = trace == "1";
      } else if (arg == "--reference") {
        args.reference = value();
      } else if (arg == "--golden-dir") {
        args.golden_dir = value();
      } else if (arg == "--spans") {
        args.spans = value();
      } else if (arg == "--corrupt-reference") {
        args.corrupt = true;
      } else if (arg == "--setup-only") {
        args.setup_only = true;
      } else if (arg == "--pin") {
        args.pin = value();
      } else {
        Usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      Usage(("bad number for " + arg).c_str());
    }
  }
  if (args.seconds <= 0) {
    Usage("--seconds must be positive");
  }
  return args;
}

// Writes the reference for every workload at every pinned seed, after
// checking the golden seed's s1-golden reports against the golden files.
int Pin(const Args& args) {
  std::string out = "{\"format\":\"ctperf-reference-v1\",\"pipelines\":{";
  bool first = true;
  for (const Workload& workload : AllWorkloads()) {
    std::vector<System> systems = MakeSystems(workload.scale);
    for (uint64_t offset = 0; offset < kPinnedSeeds; ++offset) {
      const uint64_t seed = kBaseSeed + offset;
      RoundTotals totals;
      for (const PipelineResult& result : DriverRound(workload, systems, seed, &totals)) {
        if (!result.error.empty() || (result.replayed && !CheckReplay(result).empty())) {
          std::fprintf(stderr, "ctperf: %s/%llu/%s failed: %s%s\n", workload.name.c_str(),
                       static_cast<unsigned long long>(seed), result.key.c_str(),
                       result.error.c_str(), CheckReplay(result).c_str());
          return 1;
        }
        if (workload.name == "s1-golden" && seed == kBaseSeed) {
          if (ReadGolden(args.golden_dir, result.key) != result.json) {
            std::fprintf(stderr, "ctperf: %s differs from its golden file\n", result.key.c_str());
            return 1;
          }
        }
        out += first ? "\n" : ",\n";
        first = false;
        out += "\"" + ReferenceKey(workload.name, seed, result.key) + "\":{\"report_fnv\":\"" +
               Hex(Fnv1a(result.json)) + "\",\"trace_hash\":\"" + Hex(result.trace_hash) +
               "\",\"bugs\":[";
        for (size_t i = 0; i < result.bug_ids.size(); ++i) {
          out += (i == 0 ? "\"" : ",\"") + ctcore::JsonEscape(result.bug_ids[i]) + "\"";
        }
        out += "]}";
      }
      std::fprintf(stderr, "ctperf: pinned %s seed %llu\n", workload.name.c_str(),
                   static_cast<unsigned long long>(seed));
    }
  }
  out += "\n}}\n";
  std::ofstream file(args.pin);
  file << out;
  return file.good() ? 0 : 1;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.setup_only) {
    std::vector<System> systems;
    SpanLog spans;
    const double before = Calibrate();
    const double setup = SetUp(1, &systems, spans);
    const double calibration = (before + Calibrate()) / 2;
    std::printf("{\"setup_s\":%s,\"setup_calibration_s\":%s}\n", JsonNumber(setup).c_str(),
                JsonNumber(calibration).c_str());
    return 0;
  }
  if (!args.pin.empty()) {
    return Pin(args);
  }
  const std::vector<Workload> workloads = AllWorkloads();
  const Workload* workload = FindWorkload(workloads, args.workload);
  if (workload == nullptr) {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (args.reference.empty()) {
    Usage("--reference is required");
  }
  const uint64_t seed = CampaignSeed(args.seed);

  SpanLog spans;
  std::vector<System> systems;
  const double setup_before = Calibrate();
  const double setup_s = SetUp(workload->scale, &systems, spans);
  const double setup_calibration = (setup_before + Calibrate()) / 2;
  std::map<std::string, Expected> expected =
      LoadExpectations(args.reference, args.golden_dir, *workload, systems, seed);
  if (args.corrupt) {
    CorruptOneByte(&expected, args.seed);
  }

  Accounting accounting;
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  // At least three rounds per phase: the traced phase's first three rounds
  // are the fixed-size sample of the injection-time percentiles.
  const int min_rounds = 3;

  // Warm-up round: checked, not timed. Its reports are the driver reference
  // the staged pipeline must reproduce.
  RoundTotals warmup;
  std::vector<PipelineResult> warm = DriverRound(*workload, systems, seed, &warmup);
  CheckRound(warm, *workload, seed, expected, nullptr, &accounting);
  std::map<std::string, std::string> driver_json;
  for (const PipelineResult& result : warm) {
    driver_json[result.key] = result.json;
  }

  std::vector<double> rounds;
  std::vector<double> injection_rates;  // per round: injection runs / Σ test_wall_seconds
  // Per round: the mean of the calibrations just before and just after it.
  std::vector<double> round_calibration;
  const int jobs = ctcore::ResolveJobs(workload->jobs);
  double calibration = Calibrate(jobs);
  const Clock::time_point untraced_start = Clock::now();
  while (static_cast<int>(rounds.size()) < min_rounds ||
         SecondsBetween(untraced_start, Clock::now()) < untraced_budget) {
    RoundTotals totals;
    std::vector<PipelineResult> results = DriverRound(*workload, systems, seed, &totals);
    CheckRound(results, *workload, seed, expected, nullptr, &accounting);
    rounds.push_back(totals.seconds);
    const double next_calibration = Calibrate(jobs);
    round_calibration.push_back((calibration + next_calibration) / 2);
    calibration = next_calibration;
    if (totals.test_wall_seconds > 0) {
      injection_rates.push_back(static_cast<double>(totals.injections) /
                                totals.test_wall_seconds);
    }
  }

  std::string traced_json;
  if (args.trace) {
    LayerCounts counts;
    std::vector<double> traced_rounds;
    std::vector<double> traced_calibration;
    const Clock::time_point traced_start = Clock::now();
    while (static_cast<int>(traced_rounds.size()) < min_rounds ||
           SecondsBetween(traced_start, Clock::now()) < args.seconds - untraced_budget) {
      LayerCounts* round_counts = traced_rounds.empty() ? &counts : nullptr;
      std::vector<PipelineResult> results;
      Span round(spans, "bench", "round");
      for (const System& system : systems) {
        for (ContextMode mode : workload->modes) {
          results.push_back(
              StagedPipeline(system, mode, *workload, seed, spans, round_counts, &counts));
        }
      }
      traced_rounds.push_back(round.Close());
      const double next_calibration = Calibrate(jobs);
      traced_calibration.push_back((calibration + next_calibration) / 2);
      calibration = next_calibration;
      CheckRound(results, *workload, seed, expected, &driver_json, &accounting);
    }
    RunProbes(*workload, seed, systems, spans, &counts);
    if (!args.spans.empty()) {
      spans.Write(args.spans);
    }
    traced_json = ",\"traced_rounds\":" + JsonArray(traced_rounds) +
                  ",\"traced_calibration_s\":" + JsonArray(traced_calibration) + ",\"counts\":{";
    bool first = true;
    for (const auto& [name, value] : counts.values) {
      traced_json += (first ? "\"" : ",\"") + name + "\":" + JsonNumber(value);
      first = false;
    }
    traced_json += "}";
  }

  std::string failures = "[";
  for (size_t i = 0; i < accounting.failures.size(); ++i) {
    failures += (i == 0 ? "\"" : ",\"") + ctcore::JsonEscape(accounting.failures[i]) + "\"";
  }
  failures += "]";
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%lld,\"campaign_seed\":%llu,\"jobs\":%d,\"nproc\":%d,"
      "\"setup_s\":%s,\"setup_calibration_s\":%s,\"warmup_s\":%s,\"rounds\":%s,"
      "\"round_calibration_s\":%s,\"injection_rates\":%s,\"peak_rss_mb\":%s,"
      "\"attempted\":%lld,\"failed\":%lld,\"failures\":%s%s}\n",
      workload->name.c_str(), args.seed, static_cast<unsigned long long>(seed),
      jobs, Nproc(), JsonNumber(setup_s).c_str(),
      JsonNumber(setup_calibration).c_str(), JsonNumber(warmup.seconds).c_str(),
      JsonArray(rounds).c_str(), JsonArray(round_calibration).c_str(),
      JsonArray(injection_rates).c_str(), JsonNumber(PeakRssMb()).c_str(),
      accounting.attempted, accounting.failed, failures.c_str(), traced_json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ctperf: %s\n", error.what());
    return 1;
  }
}
