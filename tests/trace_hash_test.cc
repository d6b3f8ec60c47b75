// The streamed trace hash and the cached ZooKeeper leader.
//
// Every injection run hashes its trace as events happen and keeps the
// events only when a record store or replay expectation needs them. These
// tests pin that shortcut to the slow path it replaces:
//
//   - for every injection of all five systems, in crash and network-fault
//     modes at scale 1 and for ZooKeeper at scale 4, the streamed hash in the
//     report equals Trace::Hash() of the kept trace;
//   - a recording campaign and a hash-only campaign produce byte-identical
//     reports;
//   - a ZooKeeper peer's cached leader equals a brute-force election after
//     every event of a partition-and-heal run, which drives heartbeats,
//     PeerLost expiries and re-admissions.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/crashtuner.h"
#include "src/core/report_writer.h"
#include "src/runtime/run_context.h"
#include "src/sim/cluster.h"
#include "src/sim/fault_plan.h"
#include "src/sim/trace.h"
#include "src/systems/cassandra/cass_system.h"
#include "src/systems/hbase/hbase_system.h"
#include "src/systems/hdfs/hdfs_system.h"
#include "src/systems/yarn/yarn_system.h"
#include "src/systems/zookeeper/zk_nodes.h"
#include "src/systems/zookeeper/zk_system.h"

namespace {

using ctcore::CrashTunerDriver;
using ctcore::DriverOptions;
using ctcore::InjectionMode;
using ctcore::SystemReport;

std::vector<std::unique_ptr<ctcore::SystemUnderTest>> AllSystems() {
  std::vector<std::unique_ptr<ctcore::SystemUnderTest>> systems;
  systems.push_back(std::make_unique<ctyarn::YarnSystem>());
  systems.push_back(std::make_unique<cthdfs::HdfsSystem>());
  systems.push_back(std::make_unique<cthbase::HBaseSystem>());
  systems.push_back(std::make_unique<ctzk::ZkSystem>());
  systems.push_back(std::make_unique<ctcass::CassSystem>());
  std::unique_ptr<ctzk::ZkSystem> zk_scaled = std::make_unique<ctzk::ZkSystem>();
  zk_scaled->set_scale(4);
  systems.push_back(std::move(zk_scaled));
  return systems;
}

std::string Label(const ctcore::SystemUnderTest& system, InjectionMode mode) {
  return system.name() + " @ scale " + std::to_string(system.scale()) +
         (mode == InjectionMode::kNetworkFault ? " network-fault" : " crash");
}

std::string Canonical(SystemReport report) {
  report.analysis_wall_seconds = 0;
  report.test_wall_seconds = 0;
  return ctcore::ReportToJson(report);
}

TEST(StreamedTraceHash, EqualsHashOfTheKeptTraceForEveryInjection) {
  for (const auto& system : AllSystems()) {
    for (InjectionMode mode : {InjectionMode::kCrash, InjectionMode::kNetworkFault}) {
      ctcore::TraceStore store;
      DriverOptions options;
      options.injection_mode = mode;
      options.record_traces = &store;
      const SystemReport report = CrashTunerDriver().Run(*system, options);
      ASSERT_FALSE(report.injections.empty()) << Label(*system, mode);
      ASSERT_EQ(store.size(), report.injections.size()) << Label(*system, mode);
      for (size_t slot = 0; slot < report.injections.size(); ++slot) {
        const ctsim::Trace* kept = store.Get(static_cast<int>(slot));
        ASSERT_NE(kept, nullptr) << Label(*system, mode) << " slot " << slot;
        EXPECT_FALSE(kept->empty()) << Label(*system, mode) << " slot " << slot;
        EXPECT_EQ(report.injections[slot].trace_hash, kept->Hash())
            << Label(*system, mode) << " slot " << slot;
        // The serialized form round-trips to the same hash too.
        EXPECT_EQ(ctsim::Trace::Parse(kept->Serialize()).Hash(), kept->Hash())
            << Label(*system, mode) << " slot " << slot;
      }
    }
  }
}

TEST(StreamedTraceHash, RecordingAndHashOnlyCampaignsReportIdentically) {
  for (const auto& system : AllSystems()) {
    for (InjectionMode mode : {InjectionMode::kCrash, InjectionMode::kNetworkFault}) {
      ctcore::TraceStore store;
      DriverOptions recording;
      recording.injection_mode = mode;
      recording.record_traces = &store;
      DriverOptions hash_only;
      hash_only.injection_mode = mode;
      const SystemReport recorded = CrashTunerDriver().Run(*system, recording);
      const SystemReport hashed = CrashTunerDriver().Run(*system, hash_only);
      EXPECT_EQ(Canonical(recorded), Canonical(hashed)) << Label(*system, mode);
      EXPECT_EQ(recorded.trace_hash, hashed.trace_hash) << Label(*system, mode);
    }
  }
}

TEST(StreamedTraceHash, RecorderKeepsEventsOnlyWhenAsked) {
  ctsim::TraceRecorder hash_only;
  ctsim::TraceRecorder keeping = ctsim::TraceRecorder::Keeping();
  ctcommon::InternTable table;
  const ctsim::Symbol from = table.Intern("a:1");
  const ctsim::Symbol to = table.Intern("b:1");
  const ctsim::Symbol method = table.Intern("ping");
  for (ctsim::TraceRecorder* recorder : {&hash_only, &keeping}) {
    recorder->RecordMessage(1, "deliver", from, to, method);
    recorder->Record(2, "timer", "b:1");
    recorder->Record(18446744073709551615ull, "crash", "b:1");
  }
  ctsim::Trace expected;
  expected.Append({1, "deliver", "a:1>b:1 ping"});
  expected.Append({2, "timer", "b:1"});
  expected.Append({18446744073709551615ull, "crash", "b:1"});
  EXPECT_TRUE(hash_only.trace().empty());
  EXPECT_EQ(hash_only.events(), 3u);
  EXPECT_EQ(keeping.trace().events(), expected.events());
  EXPECT_EQ(hash_only.hash(), expected.Hash());
  EXPECT_EQ(keeping.hash(), expected.Hash());
  EXPECT_EQ(ctsim::TraceRecorder().hash(), ctsim::Trace().Hash());
}

std::vector<ctzk::ZkPeer*> Peers(ctsim::Cluster& cluster) {
  std::vector<ctzk::ZkPeer*> peers;
  for (ctsim::Node* node : cluster.nodes()) {
    if (auto* peer = dynamic_cast<ctzk::ZkPeer*>(node)) {
      peers.push_back(peer);
    }
  }
  return peers;
}

TEST(ZkLeaderCache, MatchesBruteForceElectionThroughPartitionAndHeal) {
  for (int scale : {1, 4}) {
    ctzk::ZkSystem system;
    system.set_scale(scale);
    auto run = system.NewRun(system.default_workload_size(), /*seed=*/2019);
    ctrt::ScopedRunContext bind_context(run->context());
    ctsim::Cluster& cluster = run->cluster();
    const std::vector<ctzk::ZkPeer*> peers = Peers(cluster);
    ASSERT_EQ(peers.size(), static_cast<size_t>(3 * scale));

    // Cut the would-be leader off long enough for every other peer's failure
    // detector to expire it (fd timeout 1.5 s), then heal so its heartbeats
    // re-admit it.
    ctsim::NodeId top;
    for (const ctzk::ZkPeer* peer : peers) {
      top = top < peer->sym() ? peer->sym() : top;
    }
    ctsim::FaultPlan plan;
    ctsim::PartitionDirective directive;
    directive.start_ms = 3000;
    directive.heal_ms = 7000;
    directive.group = {top.str()};
    plan.partitions.push_back(directive);
    cluster.InstallFaultPlan(plan);

    cluster.StartAll();
    run->Start();
    std::set<std::string> leaders_seen;
    uint64_t checks = 0;
    while (cluster.loop().Now() < 12000 && cluster.loop().RunOne()) {
      for (const ctzk::ZkPeer* peer : peers) {
        if (!peer->IsRunning()) {
          continue;
        }
        ASSERT_EQ(peer->leader(), peer->ElectLeader())
            << "scale " << scale << ", " << peer->id() << " at " << cluster.loop().Now()
            << " ms";
        ++checks;
      }
      leaders_seen.insert(peers.front()->leader().str());
    }
    EXPECT_GT(checks, 0u);
    // The partition really moved the election: the isolated top peer was
    // expired (another leader took over) and re-admitted after the heal.
    EXPECT_GE(leaders_seen.size(), 2u) << "scale " << scale;
    EXPECT_EQ(peers.front()->leader(), top) << "scale " << scale;
  }
}

}  // namespace
