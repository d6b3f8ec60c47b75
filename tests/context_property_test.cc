// Property tests for the bounded context enumeration over random call
// graphs (seeded, deterministic). For each random shape and every depth the
// invariants are:
//   - depth bound respected, and every key is a real backward walk: each
//     (inner, outer) frame pair is a declared sync edge;
//   - complete strings (fewer frames than the bound) end at a context root;
//   - enumeration is stable: rebuilding the graph reproduces the same sets
//     (keys are held in ordered sets, so equality pins the order too);
//   - pruning is sound and exact: pruned ⊆ unpruned, and prune-then-enumerate
//     equals enumerate-then-filter through IsFeasibleKey;
//   - EnumerateAll agrees with EnumerateMethod on every reachable anchor and
//     accounts every string pruning removed.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/analysis/call_graph.h"
#include "src/analysis/context_enumeration.h"
#include "src/common/rng.h"
#include "src/model/program_model.h"

namespace {

using ctanalysis::CallGraph;
using ctanalysis::ContextEnumeration;
using ctanalysis::StaticContextResult;
using ctcommon::Rng;
using ctmodel::CallKind;
using ctmodel::ProgramModel;

std::vector<std::string> SplitFrames(const std::string& key) {
  std::vector<std::string> frames;
  std::string::size_type start = 0;
  while (true) {
    auto pos = key.find('<', start);
    if (pos == std::string::npos) {
      frames.push_back(key.substr(start));
      return frames;
    }
    frames.push_back(key.substr(start, pos - start));
    start = pos + 1;
  }
}

struct RandomGraph {
  ProgramModel model{"random"};
  std::vector<std::string> method_ids;
  std::set<std::pair<std::string, std::string>> sync_edges;  // (callee, caller)
};

// Random call-graph shape: 4..20 methods over a handful of classes, ~25%
// entry points (at least one), n..3n edges with ~15% async, self-loops and
// cycles allowed. Access points anchor at every method so EnumerateAll
// exercises each anchor.
RandomGraph MakeRandomGraph(uint64_t seed) {
  RandomGraph graph;
  Rng rng(seed);
  const int n = static_cast<int>(rng.Uniform(4, 20));
  for (int i = 0; i < n; ++i) {
    ctmodel::MethodDecl method;
    method.clazz = "C" + std::to_string(i % 5);
    method.name = "m" + std::to_string(i);
    method.entry_point = (i == 0) || rng.Chance(0.25);
    graph.model.AddMethod(method);
    graph.method_ids.push_back(method.clazz + "." + method.name);
  }
  ctmodel::FieldDecl field;
  field.id = "C0.state";
  field.clazz = "C0";
  field.name = "state";
  field.type = "C0";
  graph.model.AddField(field);

  const int num_edges = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n),
                                                     static_cast<uint64_t>(3 * n)));
  for (int e = 0; e < num_edges; ++e) {
    const std::string& caller = graph.method_ids[rng.Index(graph.method_ids.size())];
    const std::string& callee = graph.method_ids[rng.Index(graph.method_ids.size())];
    const CallKind kind = rng.Chance(0.15) ? CallKind::kAsync : CallKind::kStatic;
    graph.model.AddCallEdge({caller, callee, kind});
    if (kind != CallKind::kAsync) {
      graph.sync_edges.insert({callee, caller});
    }
  }

  for (const std::string& id : graph.method_ids) {
    auto dot = id.rfind('.');
    ctmodel::AccessPointDecl point;
    point.field_id = "C0.state";
    point.clazz = id.substr(0, dot);
    point.method = id.substr(dot + 1);
    point.line = 1;
    point.executable = true;
    graph.model.AddAccessPoint(point);
  }
  return graph;
}

class ContextEnumerationProperty : public ::testing::TestWithParam<int> {};

TEST_P(ContextEnumerationProperty, KeysAreBoundedValidWalks) {
  RandomGraph random = MakeRandomGraph(static_cast<uint64_t>(GetParam()));
  CallGraph graph(random.model);
  ContextEnumeration enumeration(&graph);
  for (int depth = 1; depth <= 5; ++depth) {
    for (const std::string& anchor : random.method_ids) {
      for (bool prune : {false, true}) {
        for (const std::string& key : enumeration.EnumerateMethod(anchor, depth, prune)) {
          std::vector<std::string> frames = SplitFrames(key);
          ASSERT_LE(static_cast<int>(frames.size()), depth) << key;
          EXPECT_EQ(frames.front(), anchor) << key;
          for (size_t i = 0; i + 1 < frames.size(); ++i) {
            EXPECT_EQ(random.sync_edges.count({frames[i], frames[i + 1]}), 1u)
                << "undeclared edge " << frames[i] << " <- " << frames[i + 1] << " in " << key;
          }
          if (static_cast<int>(frames.size()) < depth) {
            EXPECT_TRUE(graph.IsContextRoot(frames.back()))
                << "complete string not rooted: " << key;
          }
        }
      }
    }
  }
}

TEST_P(ContextEnumerationProperty, PruneEqualsEnumerateThenFilter) {
  RandomGraph random = MakeRandomGraph(static_cast<uint64_t>(GetParam()));
  CallGraph graph(random.model);
  ContextEnumeration enumeration(&graph);
  for (int depth = 1; depth <= 5; ++depth) {
    for (const std::string& anchor : random.method_ids) {
      std::set<std::string> unpruned = enumeration.EnumerateMethod(anchor, depth);
      std::set<std::string> pruned =
          enumeration.EnumerateMethod(anchor, depth, /*prune_infeasible=*/true);
      std::set<std::string> filtered;
      for (const std::string& key : unpruned) {
        if (enumeration.IsFeasibleKey(key, depth)) {
          filtered.insert(key);
        }
      }
      EXPECT_EQ(pruned, filtered) << anchor << " depth " << depth;
      for (const std::string& key : pruned) {
        EXPECT_EQ(unpruned.count(key), 1u) << "pruned set is not a subset at " << key;
      }
    }
  }
}

TEST_P(ContextEnumerationProperty, EnumerationIsStableAcrossRebuilds) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  RandomGraph first = MakeRandomGraph(seed);
  RandomGraph second = MakeRandomGraph(seed);
  CallGraph graph_a(first.model);
  CallGraph graph_b(second.model);
  ContextEnumeration enum_a(&graph_a);
  ContextEnumeration enum_b(&graph_b);
  for (int depth : {2, 5}) {
    for (bool prune : {false, true}) {
      StaticContextResult a = enum_a.EnumerateAll(depth, prune);
      StaticContextResult b = enum_b.EnumerateAll(depth, prune);
      EXPECT_EQ(a.contexts_by_point, b.contexts_by_point);
      EXPECT_EQ(a.unreachable_points, b.unreachable_points);
      EXPECT_EQ(a.infeasible_points, b.infeasible_points);
      EXPECT_EQ(a.pruned_call_strings, b.pruned_call_strings);
    }
  }
}

TEST_P(ContextEnumerationProperty, EnumerateAllMatchesPerAnchorAndAccounting) {
  RandomGraph random = MakeRandomGraph(static_cast<uint64_t>(GetParam()));
  CallGraph graph(random.model);
  ContextEnumeration enumeration(&graph);
  const int depth = 5;
  StaticContextResult pruned = enumeration.EnumerateAll(depth, /*prune_infeasible=*/true);
  StaticContextResult unpruned = enumeration.EnumerateAll(depth);
  int expected_pruned = 0;
  for (const auto& point : random.model.access_points()) {
    const std::string anchor = ctmodel::ProgramModel::ContextMethodOf(point);
    if (!graph.IsReachable(anchor)) {
      EXPECT_EQ(pruned.unreachable_points.count(point.id), 1u);
      continue;
    }
    std::set<std::string> direct =
        enumeration.EnumerateMethod(anchor, depth, /*prune_infeasible=*/true);
    auto it = pruned.contexts_by_point.find(point.id);
    if (direct.empty()) {
      EXPECT_EQ(it, pruned.contexts_by_point.end());
    } else {
      ASSERT_NE(it, pruned.contexts_by_point.end());
      EXPECT_EQ(it->second, direct);
    }
    expected_pruned +=
        static_cast<int>(enumeration.EnumerateMethod(anchor, depth).size() - direct.size());
  }
  EXPECT_EQ(pruned.pruned_call_strings, expected_pruned);
  EXPECT_EQ(unpruned.TotalContexts() - pruned.TotalContexts(), pruned.pruned_call_strings);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextEnumerationProperty, ::testing::Range(1, 26));

}  // namespace
