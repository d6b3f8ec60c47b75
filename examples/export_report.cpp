// Export example: run the pipeline on every system and write per-system
// markdown and JSON reports plus the Fig. 1 meta-info graph in Graphviz DOT.
//
//   $ ./build/examples/export_report /tmp/crashtuner-reports
//
// Flags:
//   --static-only              enumerate contexts statically, no profiling;
//   --jobs N                   campaign worker threads (0 = hardware);
//   --scale N                  deployment scale multiplier: every system's
//                              replicated-role count and workload size grow
//                              N-fold (1 = the paper's deployment);
//   --dossier-dir DIR          observe the campaigns and write one
//                              crashtuner-dossier-v1 JSON per failing run as
//                              DIR/<system>-slot<N>.json (src/obs/dossier.h).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "src/analysis/log_analysis.h"
#include "src/core/crashtuner.h"
#include "src/core/report_writer.h"
#include "src/obs/observer.h"
#include "src/systems/cassandra/cass_system.h"
#include "src/systems/hbase/hbase_system.h"
#include "src/systems/hdfs/hdfs_system.h"
#include "src/systems/yarn/yarn_system.h"
#include "src/systems/zookeeper/zk_system.h"

namespace {

void Export(const ctcore::SystemUnderTest& system, const ctcore::DriverOptions& base_options,
            const std::filesystem::path& directory, const std::filesystem::path& dossier_dir) {
  ctcore::CrashTunerDriver driver;
  ctcore::DriverOptions options = base_options;
  ctobs::CampaignObserver observer;
  if (!dossier_dir.empty()) {
    options.observer = &observer;
  }
  ctcore::SystemReport report = driver.Run(system, options);

  std::string stem = report.system;
  for (char& c : stem) {
    if (c == '/' || c == ' ') {
      c = '_';
    }
  }
  if (!dossier_dir.empty()) {
    for (const ctobs::Dossier& dossier : observer.dossiers()) {
      std::ofstream(dossier_dir / (stem + "-slot" + std::to_string(dossier.slot) + ".json"))
          << dossier.ToJson() << "\n";
    }
  }
  std::ofstream(directory / (stem + ".md")) << ctcore::ReportToMarkdown(report);
  std::ofstream(directory / (stem + ".json")) << ctcore::ReportToJson(report);
  std::ofstream(directory / (stem + ".dot"))
      << ctanalysis::MetaInfoGraphToDot(report.log_result.graph);
  std::printf("%-14s -> %s.{md,json,dot}  (%zu bugs)\n", report.system.c_str(),
              (directory / stem).c_str(), report.bugs.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path directory = "/tmp/crashtuner-reports";
  ctcore::DriverOptions options;
  int scale = 1;
  std::filesystem::path dossier_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--static-only") {
      options.context_mode = ctcore::ContextMode::kStaticOnly;
    } else if (arg == "--jobs" && i + 1 < argc) {
      options.jobs = std::atoi(argv[++i]);
    } else if (arg == "--dossier-dir" && i + 1 < argc) {
      dossier_dir = argv[++i];
    } else if (arg == "--scale" && i + 1 < argc) {
      scale = std::atoi(argv[++i]);
      if (scale < 1) {
        std::fprintf(stderr, "--scale must be >= 1\n");
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr,
                   "usage: export_report [DIR] [--static-only] [--jobs N] [--scale N] "
                   "[--dossier-dir DIR]\n");
      return 2;
    } else {
      directory = arg;
    }
  }
  std::filesystem::create_directories(directory);
  if (!dossier_dir.empty()) {
    std::filesystem::create_directories(dossier_dir);
  }

  ctyarn::YarnSystem yarn;
  cthdfs::HdfsSystem hdfs;
  cthbase::HBaseSystem hbase;
  ctzk::ZkSystem zk;
  ctcass::CassSystem cass;
  for (ctcore::SystemUnderTest* system :
       std::initializer_list<ctcore::SystemUnderTest*>{&yarn, &hdfs, &hbase, &zk, &cass}) {
    system->set_scale(scale);
    Export(*system, options, directory, dossier_dir);
  }
  return 0;
}
