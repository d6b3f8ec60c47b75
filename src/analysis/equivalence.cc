#include "src/analysis/equivalence.h"

#include <algorithm>
#include <cctype>

namespace ctanalysis {

int EquivalencePartition::TotalMembers() const {
  int total = 0;
  for (const auto& cls : classes) {
    total += static_cast<int>(cls.members.size());
  }
  return total;
}

std::set<ctrt::DynamicPoint> EquivalencePartition::Representatives() const {
  std::set<ctrt::DynamicPoint> points;
  for (const auto& cls : classes) {
    points.insert(cls.representative());
  }
  return points;
}

const EquivalenceClass* EquivalencePartition::ClassOf(const ctrt::DynamicPoint& point) const {
  for (const auto& cls : classes) {
    if (std::binary_search(cls.members.begin(), cls.members.end(), point)) {
      return &cls;
    }
  }
  return nullptr;
}

std::string EquivalenceAnalysis::CanonicalFrame(const std::string& frame) {
  size_t end = frame.size();
  while (end > 0 && std::isdigit(static_cast<unsigned char>(frame[end - 1]))) {
    --end;
  }
  if (end == frame.size() || end == 0) {
    return frame;  // no trailing digits, or digits-only (leave untouched)
  }
  return frame.substr(0, end) + "#";
}

std::string EquivalenceAnalysis::CanonicalizeStackKey(const std::string& stack_key) {
  std::string out;
  int kept = 0;
  size_t start = 0;
  while (start <= stack_key.size() && kept < kContextSuffixFrames) {
    size_t sep = stack_key.find('<', start);
    const std::string frame = sep == std::string::npos
                                  ? stack_key.substr(start)
                                  : stack_key.substr(start, sep - start);
    if (!frame.empty()) {
      if (!out.empty()) {
        out += '<';
      }
      out += CanonicalFrame(frame);
      ++kept;
    }
    if (sep == std::string::npos) {
      break;
    }
    start = sep + 1;
  }
  return out;
}

std::string EquivalenceAnalysis::DeclComponents(const ctmodel::AccessPointDecl& point) const {
  std::string key = point.kind == ctmodel::AccessKind::kRead ? "pre-read" : "post-write";

  // Declared crash site. Line numbers are static decl facts — two access
  // points at different lines of one method can sit on different event arms
  // (ContainerImpl.handle dispatches PROGRESS at one line and FINISHING at
  // another), so the site stays verbatim and only call-string variants of the
  // same static point can merge.
  key += "|" + point.clazz + "." + point.method + ":" + std::to_string(point.line);

  // Meta-info type of the accessed variable, and the value class (group) it
  // traces back to. Without an inference result the type stands in for its
  // own group: the partition is then coarser only where inference would have
  // merged types, never finer.
  const ctmodel::FieldDecl* field = model_->FindField(point.field_id);
  const std::string type = field != nullptr ? field->type : point.field_id;
  std::string group = type;
  if (metainfo_ != nullptr) {
    auto it = metainfo_->types.find(type);
    if (it != metainfo_->types.end() && !it->second.group.empty()) {
      group = it->second.group;
    }
  }
  key += "|" + type + "|" + group;

  // Declared fault-window identity: a point anchoring a network-fault window
  // is behaviorally distinct from one that does not (its injection partitions
  // instead of crashing, for the declared window and bug).
  std::string window = "-";
  for (const auto& decl : model_->network_fault_windows()) {
    if (decl.point == point.id) {
      window = "w";
      window.append(std::to_string(decl.partition_ms)).append(":").append(decl.bug_id);
      break;
    }
  }
  key += "|" + window;

  // Recovery-phase span anchor: the model's name for the phase the injection
  // interrupts, falling back to the canonical anchor frame. Keeping the span
  // distinct from the context suffix guards loop-index normalization: two
  // digit-normalized anchors only merge when the model names them alike.
  const std::string anchor = ctmodel::ProgramModel::ContextMethodOf(point);
  const ctmodel::SpanDecl* span = model_->FindSpanForMethod(anchor);
  key += "|" + (span != nullptr ? span->name : CanonicalFrame(anchor));
  return key;
}

std::string EquivalenceAnalysis::PointClassKey(const ctrt::DynamicPoint& point) const {
  const ctmodel::AccessPointDecl& decl = model_->access_point(point.point_id);
  return DeclComponents(decl) + "|" + CanonicalizeStackKey(point.stack_key);
}

std::string EquivalenceAnalysis::DeclClassKey(const ctmodel::AccessPointDecl& point) const {
  return DeclComponents(point) + "|" +
         CanonicalFrame(ctmodel::ProgramModel::ContextMethodOf(point));
}

std::string EquivalenceAnalysis::PairClassKey(const ctrt::DynamicPoint& a,
                                              const ctrt::DynamicPoint& b) const {
  std::string ka = PointClassKey(a);
  std::string kb = PointClassKey(b);
  if (kb < ka) {
    std::swap(ka, kb);
  }
  return ka + "&&" + kb;
}

EquivalencePartition EquivalenceAnalysis::PartitionPoints(
    const std::set<ctrt::DynamicPoint>& points) const {
  std::map<std::string, std::vector<ctrt::DynamicPoint>> by_key;
  for (const ctrt::DynamicPoint& point : points) {
    // std::set iteration is ordered, so members arrive in dynamic-point order.
    by_key[PointClassKey(point)].push_back(point);
  }
  EquivalencePartition partition;
  partition.classes.reserve(by_key.size());
  for (auto& [key, members] : by_key) {
    partition.classes.push_back({key, std::move(members)});
  }
  return partition;
}

}  // namespace ctanalysis
