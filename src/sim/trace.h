// Event-trace record/replay.
//
// A Trace is the totally ordered list of everything the scheduler did during
// one run: message deliveries and drops, timer firings, crashes, shutdowns,
// and fault directives. Because the simulation is deterministic per seed, a
// recorded trace is a complete reproduction recipe — and replaying a run
// against its own trace is a strong oracle: the TraceRecorder in replay mode
// verifies every emitted event against the recorded one and throws
// TraceDivergence the moment execution departs from the recording (including
// when the recording is truncated or corrupted), instead of silently
// producing a different run.
#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/symbol.h"

namespace ctsim {

struct TraceEvent {
  uint64_t at = 0;     // virtual ms
  std::string kind;    // "deliver", "timer", "crash", "partition", ...
  std::string detail;  // kind-specific, e.g. "node1>master nodeHeartbeat"

  bool operator==(const TraceEvent& other) const {
    return at == other.at && kind == other.kind && detail == other.detail;
  }
};

class Trace {
 public:
  void Append(TraceEvent event) { events_.push_back(std::move(event)); }
  const std::vector<TraceEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void Truncate(size_t n);

  // One line per event: "<at> <kind> <detail>\n".
  std::string Serialize() const;
  // Throws TraceDivergence, naming the 1-based line, on a malformed line or
  // an `at` that is not a decimal uint64.
  static Trace Parse(const std::string& text);

  // FNV-1a 64 over the serialized form.
  uint64_t Hash() const;

  std::vector<TraceEvent>* mutable_events() { return &events_; }

 private:
  std::vector<TraceEvent> events_;
};

// Thrown by replay-mode verification; never caught by the simulation's
// exception machinery (which only handles SimException), so a divergence
// always surfaces to the caller.
class TraceDivergence : public std::runtime_error {
 public:
  explicit TraceDivergence(const std::string& what) : std::runtime_error(what) {}
};

// Records one run's trace. Every event streams into an FNV-1a hash over the
// exact bytes Trace::Serialize would emit for it, so hash() always equals
// trace().Hash() of the full trace — but the TraceEvents themselves (and
// their detail strings) are built only when the recorder keeps events: when
// the run's trace is going into a record store, or is being verified
// against a recording. An unkept run hashes its message and timer events
// straight from their interned symbols.
class TraceRecorder {
 public:
  // Hash-only: trace() stays empty.
  TraceRecorder() = default;
  // Record mode: keeps every event so trace() can be stored.
  static TraceRecorder Keeping();
  // Replay mode: verifies each emitted event against `expected` (which must
  // outlive the recorder). Events are kept, so trace() is usable in both
  // keeping modes.
  explicit TraceRecorder(const Trace* expected) : expected_(expected), keep_(true) {}

  bool replaying() const { return expected_ != nullptr; }
  // The run's trace; empty for a hash-only recorder.
  const Trace& trace() const { return trace_; }
  // FNV-1a 64 of the serialized trace, streamed.
  uint64_t hash() const { return hash_; }
  // Events recorded so far, kept or not.
  size_t events() const { return events_; }

  void Record(uint64_t at, std::string_view kind, std::string_view detail);
  // Message events (deliver, drop.*, dup): detail "<from>><to> <method>".
  void RecordMessage(uint64_t at, std::string_view kind, Symbol from, Symbol to,
                     Symbol method);

  // Replay mode: throws TraceDivergence if the recording has events the run
  // never produced (a longer recording means the run diverged or the
  // recording belongs to a different run).
  void FinishReplay() const;

 private:
  // FNV-1a 64 offset basis: the hash of the empty trace.
  static constexpr uint64_t kHashBasis = 1469598103934665603ull;

  void Keep(TraceEvent event);

  Trace trace_;
  const Trace* expected_ = nullptr;
  bool keep_ = false;
  uint64_t hash_ = kHashBasis;
  size_t events_ = 0;
};

}  // namespace ctsim

#endif  // SRC_SIM_TRACE_H_
