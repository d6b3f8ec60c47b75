#include "src/logging/stash.h"

namespace ctlog {

bool IsNodeShapedValue(const HostSet& hosts, std::string_view value) {
  if (hosts.find(value) != hosts.end()) {
    return true;
  }
  const size_t colon = value.rfind(':');
  if (colon == std::string_view::npos) {
    return false;
  }
  const std::string_view port = value.substr(colon + 1);
  if (port.empty() || hosts.find(value.substr(0, colon)) == hosts.end()) {
    return false;
  }
  for (char c : port) {
    if (c < '0' || c > '9') {
      return false;
    }
  }
  return true;
}

void CustomStash::Process(const std::vector<std::string>& values) {
  // Classify each value once. Pass 1: node values join the HashSet.
  is_node_.resize(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    is_node_[i] = filter_.IsNodeValue(values[i]);
    if (is_node_[i]) {
      nodes_.insert(values[i]);
    }
  }
  // Pass 2: find the anchor node for this instance. A node value in the
  // instance wins over an earlier association, so when a recovered component
  // re-registers on a different node ("attempt_2 registered on node2") its
  // values are re-anchored to the new node. The anchor aliases either a value
  // or a map entry; pass 3 only ever assigns *anchor itself to map entries,
  // so the alias stays valid and unchanged throughout.
  const std::string* anchor = nullptr;
  for (size_t i = 0; i < values.size() && anchor == nullptr; ++i) {
    if (is_node_[i]) {
      anchor = &values[i];
    }
  }
  if (anchor == nullptr) {
    // No value here is node-shaped, and nodes_ holds only node-shaped values,
    // so Lookup reduces to the association map.
    for (const auto& value : values) {
      auto it = value_to_node_.find(value);
      if (it != value_to_node_.end()) {
        anchor = &it->second;
        break;
      }
    }
  }
  if (anchor == nullptr) {
    return;  // Unassociated values are discarded.
  }
  // Pass 3: associate (or re-associate) the remaining values with the anchor.
  for (size_t i = 0; i < values.size(); ++i) {
    if (is_node_[i] || values[i].empty()) {
      continue;
    }
    value_to_node_[values[i]] = *anchor;
  }
}

std::optional<std::string> CustomStash::Lookup(const std::string& value) const {
  // A value shaped like a configured node id resolves to itself; other
  // values need a log-derived association.
  if (nodes_.count(value) > 0 || filter_.IsNodeValue(value)) {
    return value;
  }
  auto it = value_to_node_.find(value);
  if (it != value_to_node_.end()) {
    return it->second;
  }
  return std::nullopt;
}

void CustomStash::Clear() {
  nodes_.clear();
  value_to_node_.clear();
}

void LogstashAgent::OnInstance(const Instance& instance) {
  if (instance.node != node_) {
    return;
  }
  const OnlineFilter& filter = stash_->filter();
  auto it = filter.metainfo_args.find(instance.statement_id);
  if (it == filter.metainfo_args.end()) {
    return;  // Nothing in this statement was classified as meta-info offline.
  }
  values_.clear();  // keeps capacity: one buffer per agent for the whole run
  for (int index : it->second) {
    if (index >= 0 && index < static_cast<int>(instance.args.size())) {
      values_.push_back(instance.args[index]);
    }
  }
  if (values_.empty()) {
    return;
  }
  forwarded_value_count_ += static_cast<int>(values_.size());
  stash_->Process(values_);
}

}  // namespace ctlog
