#include "src/sim/trace.h"

#include <charconv>
#include <utility>

namespace ctsim {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fnv(uint64_t hash, std::string_view bytes) {
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t Fnv(uint64_t hash, char c) {
  hash ^= static_cast<unsigned char>(c);
  return hash * kFnvPrime;
}

// Folds "<at> <kind> " — the head of every serialized event line — into
// `hash`, formatting `at` exactly as std::to_string does.
uint64_t HashLineHead(uint64_t hash, uint64_t at, std::string_view kind) {
  char digits[20];  // UINT64_MAX has 20 decimal digits
  const auto formatted = std::to_chars(digits, digits + sizeof(digits), at);
  hash = Fnv(hash, std::string_view(digits, static_cast<size_t>(formatted.ptr - digits)));
  hash = Fnv(hash, ' ');
  hash = Fnv(hash, kind);
  return Fnv(hash, ' ');
}

uint64_t HashLine(uint64_t hash, uint64_t at, std::string_view kind, std::string_view detail) {
  hash = HashLineHead(hash, at, kind);
  hash = Fnv(hash, detail);
  return Fnv(hash, '\n');
}

std::string EventLine(const TraceEvent& event) {
  return std::to_string(event.at) + " " + event.kind + " " + event.detail + "\n";
}

}  // namespace

void Trace::Truncate(size_t n) {
  if (n < events_.size()) {
    events_.resize(n);
  }
}

std::string Trace::Serialize() const {
  std::string out;
  for (const auto& event : events_) {
    out += EventLine(event);
  }
  return out;
}

Trace Trace::Parse(const std::string& text) {
  Trace trace;
  size_t pos = 0;
  size_t line_number = 0;
  while (pos < text.size()) {
    ++line_number;
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) {
      continue;
    }
    auto fail = [&line, line_number](const std::string& why) {
      return TraceDivergence("trace parse error at line " + std::to_string(line_number) + ": " +
                             why + " \"" + line + "\"");
    };
    size_t s1 = line.find(' ');
    if (s1 == std::string::npos) {
      throw fail("malformed line");
    }
    size_t s2 = line.find(' ', s1 + 1);
    TraceEvent event;
    // from_chars accepts digits only: no sign, no whitespace, no wrap-around.
    const char* at_end = line.data() + s1;
    const auto parsed = std::from_chars(line.data(), at_end, event.at);
    if (parsed.ec == std::errc::result_out_of_range) {
      throw fail("timestamp out of range");
    }
    if (parsed.ec != std::errc() || parsed.ptr != at_end) {
      throw fail("timestamp is not a non-negative integer");
    }
    if (s2 == std::string::npos) {
      event.kind = line.substr(s1 + 1);
    } else {
      event.kind = line.substr(s1 + 1, s2 - s1 - 1);
      event.detail = line.substr(s2 + 1);
    }
    trace.Append(std::move(event));
  }
  return trace;
}

uint64_t Trace::Hash() const {
  // The recorder's own streaming hash, so a kept trace and a hash-only run
  // can never disagree on the function.
  TraceRecorder hasher;
  for (const auto& event : events_) {
    hasher.Record(event.at, event.kind, event.detail);
  }
  return hasher.hash();
}

TraceRecorder TraceRecorder::Keeping() {
  TraceRecorder recorder;
  recorder.keep_ = true;
  return recorder;
}

void TraceRecorder::Record(uint64_t at, std::string_view kind, std::string_view detail) {
  hash_ = HashLine(hash_, at, kind, detail);
  ++events_;
  if (keep_) {
    Keep(TraceEvent{at, std::string(kind), std::string(detail)});
  }
}

void TraceRecorder::RecordMessage(uint64_t at, std::string_view kind, Symbol from, Symbol to,
                                  Symbol method) {
  uint64_t hash = HashLineHead(hash_, at, kind);
  hash = Fnv(hash, from.str());
  hash = Fnv(hash, '>');
  hash = Fnv(hash, to.str());
  hash = Fnv(hash, ' ');
  hash = Fnv(hash, method.str());
  hash_ = Fnv(hash, '\n');
  ++events_;
  if (keep_) {
    std::string detail;
    detail.reserve(from.size() + to.size() + method.size() + 2);
    detail.append(from.str()).append(1, '>').append(to.str()).append(1, ' ').append(method.str());
    Keep(TraceEvent{at, std::string(kind), std::move(detail)});
  }
}

void TraceRecorder::Keep(TraceEvent event) {
  if (expected_ != nullptr) {
    size_t index = trace_.size();
    if (index >= expected_->size()) {
      throw TraceDivergence("replay diverged at event " + std::to_string(index) +
                            ": recording exhausted (truncated trace?), run produced \"" +
                            EventLine(event) + "\"");
    }
    const TraceEvent& want = expected_->events()[index];
    if (!(want == event)) {
      throw TraceDivergence("replay diverged at event " + std::to_string(index) +
                            ": recorded \"" + EventLine(want) + "\" but run produced \"" +
                            EventLine(event) + "\"");
    }
  }
  trace_.Append(std::move(event));
}

void TraceRecorder::FinishReplay() const {
  if (expected_ != nullptr && trace_.size() < expected_->size()) {
    throw TraceDivergence("replay ended after " + std::to_string(trace_.size()) +
                          " events but the recording has " + std::to_string(expected_->size()));
  }
}

}  // namespace ctsim
