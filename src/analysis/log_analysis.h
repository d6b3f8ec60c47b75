// Offline log analysis (§3.1.1, §3.3; Fig. 5).
//
// Mines the runtime logs of a profiling run to discover meta-info variables:
//   1. every instance is matched against the program's log patterns using a
//      reverse-index scoring scheme (top-10 candidates, exact parse confirms;
//      the approach of Xu et al. the paper adopts), recovering the runtime
//      values of the logged variables;
//   2. values shaped "host:port" for a configured host are node-referencing;
//   3. values co-occurring with a node-associated value in one instance
//      become associated with that node;
//   4. the static types (and originating fields) of the associated logged
//      expressions become the meta-info seeds handed to the type inference.
//
// The matcher deliberately ignores the statement id our structured log store
// carries — it re-derives it from text, as the original must; the id serves
// as ground truth in tests.
#ifndef SRC_ANALYSIS_LOG_ANALYSIS_H_
#define SRC_ANALYSIS_LOG_ANALYSIS_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/logging/log_store.h"
#include "src/logging/stash.h"
#include "src/model/program_model.h"

namespace ctanalysis {

// Reverse-index pattern matcher over the registered logging statements.
class PatternMatcher {
 public:
  // Builds the index over every statement currently registered.
  PatternMatcher();

  struct Match {
    int statement_id = -1;
    std::vector<std::string> values;  // recovered placeholder values
  };

  // Matches one log line; nullopt when no pattern parses it exactly.
  std::optional<Match> MatchInstance(const std::string& text) const;

  static constexpr int kTopCandidates = 10;

 private:
  std::vector<int> TopCandidates(const std::string& text) const;

  std::map<std::string, std::vector<int>> token_index_;  // token → statement ids
  std::vector<int> literal_length_;                      // statement id → literal chars
};

// The runtime meta-info view of Fig. 5(d): values as vertices, co-occurrence
// edges, and the node each value resolved to.
struct MetaInfoGraph {
  std::set<std::string> node_values;
  std::map<std::string, std::string> value_to_node;
  std::vector<std::pair<std::string, std::string>> edges;
};

struct LogAnalysisResult {
  // Types of logged meta-info variables (the *-annotated rows of Table 2).
  std::set<std::string> seed_types;
  // Base-typed fields identified as meta-info directly from logs.
  std::set<std::string> seed_fields;
  // Statement → placeholder indices carrying meta-info values: this is the
  // filter the online log analysis ships to the Logstash agents (§3.3).
  std::map<int, std::vector<int>> metainfo_args;
  MetaInfoGraph graph;
  // Matching statistics.
  int instances_total = 0;
  int instances_matched = 0;
  int instances_mismatched = 0;  // matched a wrong pattern (ground-truth check)
};

// Renders the meta-info graph as Graphviz DOT (Fig. 1 / Fig. 5d): node
// values as boxes, associated values as ovals pointing at their node.
std::string MetaInfoGraphToDot(const MetaInfoGraph& graph);

class LogAnalysis {
 public:
  // `hosts` is the cluster configuration's host list.
  LogAnalysis(const ctmodel::ProgramModel* model, std::vector<std::string> hosts);

  LogAnalysisResult Analyze(const std::vector<ctlog::Instance>& instances) const;

  // Builds the online filter for the testing phase from an analysis result.
  ctlog::OnlineFilter MakeOnlineFilter(const LogAnalysisResult& result) const;

 private:
  const ctmodel::ProgramModel* model_;
  ctlog::HostSet hosts_;
  PatternMatcher matcher_;
  std::map<int, const ctmodel::LogBinding*> bindings_;
};

}  // namespace ctanalysis

#endif  // SRC_ANALYSIS_LOG_ANALYSIS_H_
