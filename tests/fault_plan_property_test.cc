// Property tests for deterministic network-fault injection.
//
// Run-level: 25 seeded random fault plans are applied to each of the five
// systems; the same ⟨seed, plan⟩ must produce the same event trace hash on a
// second run (the determinism contract of fault_plan.h).
//
// Driver-level: a network-fault campaign recorded at jobs=1 replays at
// jobs=4 with a byte-identical SystemReport, the replayed campaign includes
// the system's declared message-race bug, and replaying a truncated or
// corrupted trace fails loudly with ctsim::TraceDivergence.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/crashtuner.h"
#include "src/core/executor.h"
#include "src/core/report_writer.h"
#include "src/sim/cluster.h"
#include "src/sim/fault_plan.h"
#include "src/sim/trace.h"
#include "src/systems/cassandra/cass_system.h"
#include "src/systems/hbase/hbase_system.h"
#include "src/systems/hdfs/hdfs_system.h"
#include "src/systems/yarn/yarn_system.h"
#include "src/systems/zookeeper/zk_system.h"

namespace {

using ctcore::CrashTunerDriver;
using ctcore::DriverOptions;
using ctcore::SystemReport;
using ctsim::FaultPlan;

std::vector<std::unique_ptr<ctcore::SystemUnderTest>> AllSystems() {
  std::vector<std::unique_ptr<ctcore::SystemUnderTest>> systems;
  systems.push_back(std::make_unique<ctyarn::YarnSystem>());
  systems.push_back(std::make_unique<cthdfs::HdfsSystem>());
  systems.push_back(std::make_unique<cthbase::HBaseSystem>());
  systems.push_back(std::make_unique<ctzk::ZkSystem>());
  systems.push_back(std::make_unique<ctcass::CassSystem>());
  return systems;
}

// A random plan drawn from one Rng stream. The partition/skew victims are
// kept as indices — node ids differ per system — and materialized against
// the run's node list. Half the partitions are one-way and half the plans
// carry a timer-skewed node, so the determinism sweep covers both extended
// directives.
struct PlannedFaults {
  FaultPlan plan;
  uint64_t victim_index = 0;
  bool has_partition = false;
  bool one_way = false;
  uint64_t partition_start = 0;
  uint64_t partition_len = 0;
  bool has_skew = false;
  uint64_t skew_index = 0;
  int skew_permille = 1000;
};

PlannedFaults DrawPlan(ctcommon::Rng& rng) {
  PlannedFaults drawn;
  drawn.plan.default_link.drop_probability = static_cast<double>(rng.Uniform(0, 20)) / 100.0;
  drawn.plan.default_link.extra_delay_ms = rng.Uniform(0, 3);
  drawn.plan.default_link.duplicate_probability = static_cast<double>(rng.Uniform(0, 20)) / 100.0;
  drawn.plan.default_link.reorder_window_ms = rng.Uniform(0, 5);
  drawn.has_partition = rng.Chance(0.5);
  if (drawn.has_partition) {
    drawn.partition_start = rng.Uniform(0, 2000);
    drawn.partition_len = rng.Uniform(200, 3000);
    drawn.victim_index = rng.Uniform(0, 1 << 16);  // reduced per run
    drawn.one_way = rng.Chance(0.5);
  }
  drawn.has_skew = rng.Chance(0.5);
  if (drawn.has_skew) {
    drawn.skew_index = rng.Uniform(0, 1 << 16);
    drawn.skew_permille = static_cast<int>(rng.Uniform(500, 2500));
  }
  return drawn;
}

// One traced run of `system` under `drawn`; returns the trace hash.
uint64_t TracedRun(const ctcore::SystemUnderTest& system, const PlannedFaults& drawn,
                   uint64_t seed) {
  auto run = system.NewRun(system.default_workload_size(), seed);
  ctsim::Cluster& cluster = run->cluster();
  ctsim::TraceRecorder recorder;
  cluster.set_trace_recorder(&recorder);
  FaultPlan plan = drawn.plan;
  std::vector<std::string> eligible;
  for (ctsim::Node* node : cluster.nodes()) {
    if (!node->workload_driver()) {
      eligible.push_back(node->id());
    }
  }
  if (drawn.has_partition) {
    ctsim::PartitionDirective directive;
    directive.start_ms = drawn.partition_start;
    directive.heal_ms = drawn.partition_start + drawn.partition_len;
    directive.group = {eligible[drawn.victim_index % eligible.size()]};
    directive.one_way = drawn.one_way;
    plan.partitions.push_back(directive);
  }
  if (drawn.has_skew) {
    plan.timer_skew_permille[eligible[drawn.skew_index % eligible.size()]] = drawn.skew_permille;
  }
  cluster.InstallFaultPlan(plan);
  ctcore::Executor::Execute(*run, /*baseline=*/nullptr);
  return recorder.hash();
}

TEST(FaultPlanProperty, SameSeedAndPlanYieldTheSameTraceHash) {
  ctcommon::Rng rng(0xfa17);
  std::vector<PlannedFaults> plans;
  for (int i = 0; i < 25; ++i) {
    plans.push_back(DrawPlan(rng));
  }
  for (const auto& system : AllSystems()) {
    for (size_t p = 0; p < plans.size(); ++p) {
      const uint64_t seed = 4242 + 31ull * p;
      uint64_t first = TracedRun(*system, plans[p], seed);
      uint64_t second = TracedRun(*system, plans[p], seed);
      EXPECT_EQ(first, second)
          << system->name() << " plan#" << p << " diverged on an identical ⟨seed, plan⟩";
    }
  }
}

std::string Serialize(SystemReport report) {
  report.analysis_wall_seconds = 0;
  report.test_wall_seconds = 0;
  return ctcore::ReportToJson(report);
}

TEST(FaultPlanProperty, RecordedCampaignReplaysByteIdentically) {
  for (const auto& system : AllSystems()) {
    ctcore::TraceStore recorded;
    DriverOptions record;
    record.injection_mode = ctcore::InjectionMode::kNetworkFault;
    record.jobs = 1;
    record.record_traces = &recorded;
    SystemReport original = CrashTunerDriver().Run(*system, record);
    ASSERT_GT(recorded.size(), 0u) << system->name();

    DriverOptions replay;
    replay.injection_mode = ctcore::InjectionMode::kNetworkFault;
    replay.jobs = 4;
    replay.replay_traces = &recorded;
    SystemReport replayed = CrashTunerDriver().Run(*system, replay);

    EXPECT_EQ(Serialize(original), Serialize(replayed))
        << system->name() << ": replayed report differs from the recording";
    EXPECT_EQ(original.trace_hash, replayed.trace_hash);

    // The guided campaign must reproduce the system's declared race.
    bool found_race = false;
    for (const auto& bug : replayed.bugs) {
      found_race = found_race || bug.scenario == "message-race";
    }
    EXPECT_TRUE(found_race) << system->name()
                            << ": network-fault campaign found no message-race bug";
  }
}

TEST(FaultPlanProperty, TruncatedOrCorruptedTraceFailsLoudly) {
  ctzk::ZkSystem system;
  ctcore::TraceStore recorded;
  DriverOptions record;
  record.injection_mode = ctcore::InjectionMode::kNetworkFault;
  record.record_traces = &recorded;
  CrashTunerDriver().Run(system, record);
  ASSERT_GT(recorded.size(), 0u);

  // Truncation: the replay runs past the end of the recording.
  {
    ctcore::TraceStore truncated;
    for (const auto& [slot, trace] : recorded.traces()) {
      ctsim::Trace copy = trace;
      copy.Truncate(copy.size() / 2);
      truncated.Put(slot, copy);
    }
    DriverOptions replay;
    replay.injection_mode = ctcore::InjectionMode::kNetworkFault;
    replay.replay_traces = &truncated;
    EXPECT_THROW(CrashTunerDriver().Run(system, replay), ctsim::TraceDivergence);
  }

  // Corruption: the first event's detail no longer matches.
  {
    ctcore::TraceStore corrupted;
    for (const auto& [slot, trace] : recorded.traces()) {
      ctsim::Trace copy = trace;
      if (!copy.empty()) {
        copy.mutable_events()->front().detail += "-corrupted";
      }
      corrupted.Put(slot, copy);
    }
    DriverOptions replay;
    replay.injection_mode = ctcore::InjectionMode::kNetworkFault;
    replay.replay_traces = &corrupted;
    EXPECT_THROW(CrashTunerDriver().Run(system, replay), ctsim::TraceDivergence);
  }

  // A missing slot is as loud as a mismatching one.
  {
    ctcore::TraceStore empty;
    DriverOptions replay;
    replay.injection_mode = ctcore::InjectionMode::kNetworkFault;
    replay.replay_traces = &empty;
    EXPECT_THROW(CrashTunerDriver().Run(system, replay), ctsim::TraceDivergence);
  }
}

// Parses `text` and returns the TraceDivergence message ("" if it parsed).
std::string ParseError(const std::string& text) {
  try {
    ctsim::Trace::Parse(text);
  } catch (const ctsim::TraceDivergence& error) {
    return error.what();
  }
  return "";
}

TEST(FaultPlanProperty, MalformedTimestampFailsWithTypedErrorNamingTheLine) {
  const std::string good = "1 deliver a:1>b:1 ping\n2 timer b:1\n";
  ASSERT_EQ(ParseError(good), "");
  // Non-numeric, overflowing, negative (which stoull used to wrap to
  // 2^64 - 5), signed, and partially numeric timestamps on line 3.
  for (const std::string at :
       {"abc", "18446744073709551616", "99999999999999999999999", "-5", "+5", "12abc", ""}) {
    const std::string message = ParseError(good + at + " crash b:1\n");
    EXPECT_NE(message.find("line 3"), std::string::npos) << "at=\"" << at << "\": " << message;
  }
  // Blank lines still count toward the reported line number.
  EXPECT_NE(ParseError(good + "\n-1 crash b:1\n").find("line 4"), std::string::npos);
  // The largest timestamp still parses.
  EXPECT_EQ(ctsim::Trace::Parse("18446744073709551615 crash b:1\n").events().front().at,
            18446744073709551615ull);
}

}  // namespace
