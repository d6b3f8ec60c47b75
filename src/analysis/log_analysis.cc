#include "src/analysis/log_analysis.h"

#include <algorithm>

#include "src/common/strings.h"

namespace ctanalysis {

namespace {

// Tokenizes literal text for the reverse index: whitespace-separated words of
// length >= 3 (short tokens like "to" appear in almost every pattern and only
// add noise to the scores).
std::vector<std::string> Tokens(const std::string& text) {
  std::vector<std::string> out;
  for (const auto& word : ctcommon::SplitSkipEmpty(text, ' ')) {
    if (word.size() >= 3 && word != "{}") {
      out.push_back(word);
    }
  }
  return out;
}

}  // namespace

PatternMatcher::PatternMatcher() {
  const auto& statements = ctlog::StatementRegistry::Instance().statements();
  literal_length_.resize(statements.size(), 0);
  for (const auto& stmt : statements) {
    int literal = 0;
    for (const auto& fragment : ctcommon::TemplateFragments(stmt.tmpl)) {
      literal += static_cast<int>(fragment.size());
      for (const auto& token : Tokens(fragment)) {
        token_index_[token].push_back(stmt.id);
      }
    }
    literal_length_[stmt.id] = literal;
  }
}

std::vector<int> PatternMatcher::TopCandidates(const std::string& text) const {
  std::map<int, int> scores;
  for (const auto& token : Tokens(text)) {
    auto it = token_index_.find(token);
    if (it == token_index_.end()) {
      continue;
    }
    for (int id : it->second) {
      ++scores[id];
    }
  }
  std::vector<std::pair<int, int>> ranked(scores.begin(), scores.end());
  // Higher score first; ties broken toward the more specific (more literal
  // characters) pattern so a catch-all "{}" template cannot shadow an exact
  // one.
  std::sort(ranked.begin(), ranked.end(), [this](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return literal_length_[a.first] > literal_length_[b.first];
  });
  std::vector<int> out;
  for (const auto& [id, score] : ranked) {
    out.push_back(id);
    if (static_cast<int>(out.size()) >= kTopCandidates) {
      break;
    }
  }
  return out;
}

std::optional<PatternMatcher::Match> PatternMatcher::MatchInstance(const std::string& text) const {
  std::vector<std::string> values;
  for (int id : TopCandidates(text)) {
    const auto& stmt = ctlog::StatementRegistry::Instance().Get(id);
    if (ctcommon::MatchTemplate(stmt.tmpl, text, &values)) {
      Match match;
      match.statement_id = id;
      match.values = values;
      return match;
    }
  }
  return std::nullopt;
}

std::string MetaInfoGraphToDot(const MetaInfoGraph& graph) {
  std::string out = "digraph metainfo {\n  rankdir=LR;\n";
  for (const auto& node : graph.node_values) {
    out += "  \"" + node + "\" [shape=box,style=bold];\n";
  }
  for (const auto& [value, node] : graph.value_to_node) {
    out += "  \"" + value + "\" -> \"" + node + "\";\n";
  }
  out += "}\n";
  return out;
}

LogAnalysis::LogAnalysis(const ctmodel::ProgramModel* model, std::vector<std::string> hosts)
    : model_(model) {
  hosts_.insert(hosts.begin(), hosts.end());
  for (const auto& binding : model_->log_bindings()) {
    bindings_[binding.statement_id] = &binding;
  }
}

LogAnalysisResult LogAnalysis::Analyze(const std::vector<ctlog::Instance>& instances) const {
  LogAnalysisResult result;
  result.instances_total = static_cast<int>(instances.size());

  struct Parsed {
    int statement_id;
    std::vector<std::string> values;
  };
  std::vector<Parsed> parsed;
  for (const auto& instance : instances) {
    auto match = matcher_.MatchInstance(instance.text);
    if (!match.has_value()) {
      continue;
    }
    ++result.instances_matched;
    if (match->statement_id != instance.statement_id) {
      ++result.instances_mismatched;
    }
    parsed.push_back(Parsed{match->statement_id, std::move(match->values)});
  }

  // Association fixpoint: node values seed the map; any value co-occurring
  // with an associated value becomes associated. Instances are revisited
  // because an early line can mention a value whose node link only appears in
  // a later line (the offline pass, unlike the FIFO stash, can afford this).
  auto& graph = result.graph;
  for (const auto& p : parsed) {
    for (const auto& value : p.values) {
      if (ctlog::IsNodeShapedValue(hosts_, value)) {
        graph.node_values.insert(value);
      }
    }
    for (size_t i = 0; i + 1 < p.values.size(); ++i) {
      for (size_t j = i + 1; j < p.values.size(); ++j) {
        graph.edges.emplace_back(p.values[i], p.values[j]);
      }
    }
  }
  auto lookup_node = [&](const std::string& value) -> std::optional<std::string> {
    if (graph.node_values.count(value) > 0) {
      return value;
    }
    auto it = graph.value_to_node.find(value);
    if (it != graph.value_to_node.end()) {
      return it->second;
    }
    return std::nullopt;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& p : parsed) {
      std::optional<std::string> anchor;
      for (const auto& value : p.values) {
        anchor = lookup_node(value);
        if (anchor.has_value()) {
          break;
        }
      }
      if (!anchor.has_value()) {
        continue;
      }
      for (const auto& value : p.values) {
        if (value.empty() || graph.node_values.count(value) > 0) {
          continue;
        }
        auto [it, inserted] = graph.value_to_node.emplace(value, *anchor);
        changed = changed || inserted;
      }
    }
  }

  // Classify statement arguments: an argument index is meta-info if any of
  // its observed runtime values is node-associated.
  std::map<int, std::set<int>> metainfo_arg_sets;
  for (const auto& p : parsed) {
    for (size_t i = 0; i < p.values.size(); ++i) {
      if (lookup_node(p.values[i]).has_value()) {
        metainfo_arg_sets[p.statement_id].insert(static_cast<int>(i));
      }
    }
  }
  for (const auto& [stmt, indices] : metainfo_arg_sets) {
    result.metainfo_args[stmt] = std::vector<int>(indices.begin(), indices.end());
  }

  // Lift to static types / fields using the model's log bindings.
  for (const auto& [stmt, indices] : metainfo_arg_sets) {
    auto it = bindings_.find(stmt);
    if (it == bindings_.end()) {
      continue;  // Ad-hoc statement without a modelled binding.
    }
    const ctmodel::LogBinding& binding = *it->second;
    for (int index : indices) {
      if (index >= static_cast<int>(binding.args.size())) {
        continue;
      }
      const ctmodel::LogArg& arg = binding.args[index];
      const ctmodel::TypeDecl* type = model_->FindType(arg.type);
      if (type != nullptr && type->is_base) {
        // Base types are not generalized (§3.1.2); the specific field is the
        // meta-info seed instead.
        if (!arg.field_id.empty()) {
          result.seed_fields.insert(arg.field_id);
        }
      } else if (!arg.type.empty()) {
        result.seed_types.insert(arg.type);
      }
    }
  }
  return result;
}

ctlog::OnlineFilter LogAnalysis::MakeOnlineFilter(const LogAnalysisResult& result) const {
  ctlog::OnlineFilter filter;
  filter.hosts = hosts_;
  filter.metainfo_args = result.metainfo_args;
  return filter;
}

}  // namespace ctanalysis
