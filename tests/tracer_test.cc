// Tests for the runtime tracer: call-stack capture, profile recording,
// trigger-once semantics, the IO hooks, and the in-place stack-key compare.
#include "src/runtime/tracer.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace ctrt {
namespace {

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override { AccessTracer::Instance().Reset(TraceMode::kOff); }
  void TearDown() override { AccessTracer::Instance().Reset(TraceMode::kOff); }
};

TEST_F(TracerTest, OffModeIgnoresHooks) {
  auto& tracer = AccessTracer::Instance();
  tracer.PreRead(1, "v");
  tracer.PostWrite(2, "w");
  EXPECT_TRUE(tracer.dynamic_access_points().empty());
}

TEST_F(TracerTest, StackCaptureIsBounded) {
  auto& tracer = AccessTracer::Instance();
  ScopedFrame f1("m1");
  ScopedFrame f2("m2");
  ScopedFrame f3("m3");
  ScopedFrame f4("m4");
  ScopedFrame f5("m5");
  ScopedFrame f6("m6");
  ScopedFrame f7("m7");
  CallStack stack = tracer.CaptureStack();
  ASSERT_EQ(stack.frames.size(), static_cast<size_t>(CallStack::kMaxDepth));
  // Innermost first, then callers.
  EXPECT_EQ(stack.frames.front(), "m7");
  EXPECT_EQ(stack.Key(), "m7<m6<m5<m4<m3");
}

TEST_F(TracerTest, ScopedFramePopsOnScopeExit) {
  auto& tracer = AccessTracer::Instance();
  {
    ScopedFrame f("outer");
    {
      ScopedFrame g("inner");
      EXPECT_EQ(tracer.CaptureStack().Key(), "inner<outer");
    }
    EXPECT_EQ(tracer.CaptureStack().Key(), "outer");
  }
  EXPECT_EQ(tracer.CaptureStack().Key(), "");
}

TEST_F(TracerTest, ProfileRecordsOnlyArmedPoints) {
  auto& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kProfile);
  tracer.SetProfiledPoints({7}, {});
  ScopedFrame f("method");
  tracer.PreRead(7, "a");
  tracer.PreRead(7, "b");  // same dynamic point, counted twice
  tracer.PreRead(8, "c");  // not armed
  ASSERT_EQ(tracer.dynamic_access_points().size(), 1u);
  const auto& [point, hits] = *tracer.dynamic_access_points().begin();
  EXPECT_EQ(point.point_id, 7);
  EXPECT_EQ(point.stack_key, "method");
  EXPECT_EQ(hits, 2);
}

TEST_F(TracerTest, DistinctStacksYieldDistinctDynamicPoints) {
  auto& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kProfile);
  tracer.SetProfiledPoints({7}, {});
  {
    ScopedFrame f("caller_a");
    tracer.PreRead(7, "v");
  }
  {
    ScopedFrame f("caller_b");
    tracer.PreRead(7, "v");
  }
  EXPECT_EQ(tracer.dynamic_access_points().size(), 2u);
}

TEST_F(TracerTest, TriggerFiresOnceAtMatchingPointAndStack) {
  auto& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kTrigger);
  int fired = 0;
  std::string value;
  tracer.ArmAccessTrigger({7, "target"}, [&](const AccessEvent& event) {
    ++fired;
    value = event.value;
  });
  {
    ScopedFrame f("other");
    tracer.PreRead(7, "wrong-stack");
  }
  EXPECT_EQ(fired, 0);
  {
    ScopedFrame f("target");
    tracer.PreRead(7, "v1");
    tracer.PreRead(7, "v2");  // second hit ignored: one injection per run
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(value, "v1");
  EXPECT_TRUE(tracer.trigger_fired());
  ASSERT_TRUE(tracer.fired_event().has_value());
  EXPECT_EQ(tracer.fired_event()->point_id, 7);
}

TEST_F(TracerTest, IoProfileRecordsBeginSideOnly) {
  auto& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kProfile);
  tracer.SetProfiledPoints({}, {3});
  ScopedFrame f("io_site");
  tracer.IoBegin(3);
  tracer.IoEnd(3);
  ASSERT_EQ(tracer.dynamic_io_points().size(), 1u);
  EXPECT_EQ(tracer.dynamic_io_points().begin()->second, 1);
}

TEST_F(TracerTest, IoTriggerSelectsBeforeOrAfterSide) {
  auto& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kTrigger);
  int fired_before = 0;
  tracer.ArmIoTrigger({3, "io_site"}, /*before=*/true,
                      [&](const AccessEvent&) { ++fired_before; });
  {
    ScopedFrame f("io_site");
    tracer.IoEnd(3);  // wrong side
    EXPECT_EQ(fired_before, 0);
    tracer.IoBegin(3);
    EXPECT_EQ(fired_before, 1);
  }

  tracer.Reset(TraceMode::kTrigger);
  int fired_after = 0;
  tracer.ArmIoTrigger({3, "io_site"}, /*before=*/false,
                      [&](const AccessEvent&) { ++fired_after; });
  {
    ScopedFrame f("io_site");
    tracer.IoBegin(3);
    EXPECT_EQ(fired_after, 0);
    tracer.IoEnd(3);
    EXPECT_EQ(fired_after, 1);
  }
}

TEST_F(TracerTest, ResetClearsEverything) {
  auto& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kProfile);
  tracer.SetProfiledPoints({1}, {});
  tracer.PreRead(1, "v");
  EXPECT_FALSE(tracer.dynamic_access_points().empty());
  tracer.Reset(TraceMode::kOff);
  EXPECT_TRUE(tracer.dynamic_access_points().empty());
  EXPECT_FALSE(tracer.trigger_fired());
  EXPECT_EQ(tracer.hook_firings(), 0u);
}

// Frame names for the property tests. Some contain the "<" separator, some
// are prefixes or suffixes of others, and one is empty, so concatenated keys
// can collide across different frame splits.
const char* const kFrames[] = {"a",  "ab",  "b",    "a<b", "<",  "",
                               "b<", "<ab", "Handler.read", "Service.run"};
constexpr size_t kFrameCount = sizeof(kFrames) / sizeof(kFrames[0]);

std::string RandomKey(ctcommon::Rng& rng) {
  std::string key;
  const uint64_t frames = rng.Uniform(0, 5);
  for (uint64_t i = 0; i < frames; ++i) {
    if (i > 0) {
      key += "<";
    }
    key += kFrames[rng.Index(kFrameCount)];
  }
  return key;
}

// Keys near `key`: itself, every prefix and suffix, and one-character edits
// at each end.
std::vector<std::string> NearbyKeys(const std::string& key) {
  std::vector<std::string> keys = {key, key + "<", key + "a", "<" + key, "a" + key};
  for (size_t n = 0; n <= key.size(); ++n) {
    keys.push_back(key.substr(0, n));
    keys.push_back(key.substr(n));
  }
  return keys;
}

TEST_F(TracerTest, StackKeyEqualsMatchesCapturedKeyOnRandomStacks) {
  auto& tracer = AccessTracer::Instance();
  ctcommon::Rng rng(0x5eed);
  int matches = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const uint64_t height = rng.Uniform(0, 7);
    for (uint64_t i = 0; i < height; ++i) {
      tracer.PushFrame(kFrames[rng.Index(kFrameCount)]);
    }
    for (int depth = 1; depth <= CallStack::kMaxDepth; ++depth) {
      tracer.set_stack_depth(depth);
      const std::string captured = tracer.CaptureStack().Key();
      std::vector<std::string> keys = NearbyKeys(captured);
      keys.push_back(RandomKey(rng));
      for (const std::string& key : keys) {
        const bool expected = captured == key;
        matches += expected ? 1 : 0;
        ASSERT_EQ(tracer.StackKeyEquals(key), expected)
            << "stack height " << height << ", depth " << depth << ", captured '" << captured
            << "', key '" << key << "'";
      }
    }
    for (uint64_t i = 0; i < height; ++i) {
      tracer.PopFrame();
    }
  }
  tracer.set_stack_depth(CallStack::kMaxDepth);
  EXPECT_GT(matches, 0);
}

TEST_F(TracerTest, StackKeyEqualsOnTheEmptyStack) {
  auto& tracer = AccessTracer::Instance();
  EXPECT_TRUE(tracer.StackKeyEquals(""));
  EXPECT_FALSE(tracer.StackKeyEquals("a"));
  EXPECT_FALSE(tracer.StackKeyEquals("<"));
  // A single empty frame has the same key as no frame at all.
  tracer.PushFrame("");
  EXPECT_TRUE(tracer.StackKeyEquals(""));
  EXPECT_FALSE(tracer.StackKeyEquals("<"));
  tracer.PushFrame("");
  EXPECT_TRUE(tracer.StackKeyEquals("<"));
  tracer.PopFrame();
  tracer.PopFrame();
}

TEST_F(TracerTest, TriggerFiresExactlyOnceAtTheFirstArmedHit) {
  auto& tracer = AccessTracer::Instance();
  ctcommon::Rng rng(0xa11);
  int fired_runs = 0;
  for (int trial = 0; trial < 500; ++trial) {
    tracer.Reset(TraceMode::kTrigger);
    tracer.set_stack_depth(static_cast<int>(rng.Uniform(1, CallStack::kMaxDepth)));
    const int armed_point = static_cast<int>(rng.Uniform(1, 3));
    // Arm a key some hit will probably produce: the top frame alone, or the
    // top two.
    std::string armed_key = kFrames[rng.Index(kFrameCount)];
    if (rng.Chance(0.5)) {
      armed_key += std::string("<") + kFrames[rng.Index(kFrameCount)];
    }
    int fired = 0;
    int fired_at = -1;
    int hit = 0;
    tracer.ArmAccessTrigger({armed_point, armed_key}, [&](const AccessEvent& event) {
      ++fired;
      fired_at = hit;
      EXPECT_EQ(event.point_id, armed_point);
      EXPECT_EQ(event.stack_key, armed_key);
    });
    int expected_at = -1;
    for (hit = 0; hit < 40; ++hit) {
      const uint64_t height = rng.Uniform(0, 3);
      for (uint64_t i = 0; i < height; ++i) {
        tracer.PushFrame(kFrames[rng.Index(kFrameCount)]);
      }
      const int point = static_cast<int>(rng.Uniform(1, 3));
      if (expected_at < 0 && point == armed_point &&
          tracer.CaptureStack().Key() == armed_key) {
        expected_at = hit;
      }
      tracer.PreRead(point, "v");
      for (uint64_t i = 0; i < height; ++i) {
        tracer.PopFrame();
      }
    }
    EXPECT_EQ(fired, expected_at >= 0 ? 1 : 0) << "trial " << trial;
    EXPECT_EQ(fired_at, expected_at) << "trial " << trial;
    EXPECT_EQ(tracer.trigger_fired(), expected_at >= 0);
    fired_runs += fired;
  }
  tracer.set_stack_depth(CallStack::kMaxDepth);
  EXPECT_GT(fired_runs, 0);
}

// Frames with the same text as kFrames entries but at other addresses: the
// profile cache keys on frame addresses, so equal-text frames must still
// land on the one counter their shared key names.
const char kHandlerReadCopy[] = "Handler.read";
const char kACopy[] = "a";
const char kEmptyCopy[] = "";
const char* const kProfileFrames[] = {"a",    "ab", "b", "a<b", "<", "", "b<", "<ab",
                                      "Handler.read", "Service.run", kHandlerReadCopy, kACopy,
                                      kEmptyCopy};
constexpr size_t kProfileFrameCount = sizeof(kProfileFrames) / sizeof(kProfileFrames[0]);

TEST_F(TracerTest, CachedProfileCountsEqualTheStringPathOnRandomStacks) {
  // The string path, kept here as the reference: every profiled hit counts
  // ⟨point, CaptureStack().Key()⟩. Depths run past kMaxDepth (the depth
  // ablation sweeps to 6), where the tracer falls back to that path.
  auto& tracer = AccessTracer::Instance();
  ctcommon::Rng rng(0xcac4e);
  for (int depth = 1; depth <= CallStack::kMaxDepth + 1; ++depth) {
    tracer.Reset(TraceMode::kProfile);
    tracer.set_stack_depth(depth);
    tracer.SetProfiledPoints({1, 2, 3}, {4, 5});
    std::map<DynamicPoint, int> expected_access;
    std::map<DynamicPoint, int> expected_io;
    for (int hit = 0; hit < 3000; ++hit) {
      const uint64_t height = rng.Uniform(0, 8);
      for (uint64_t i = 0; i < height; ++i) {
        tracer.PushFrame(kProfileFrames[rng.Index(kProfileFrameCount)]);
      }
      const std::string key = tracer.CaptureStack().Key();
      const int point = static_cast<int>(rng.Uniform(0, 5));
      switch (rng.Uniform(0, 3)) {
        case 0:
          tracer.PreRead(point, "v");
          expected_access[{point, key}] += (point >= 1 && point <= 3) ? 1 : 0;
          break;
        case 1:
          tracer.PostWrite(point, "v");
          expected_access[{point, key}] += (point >= 1 && point <= 3) ? 1 : 0;
          break;
        case 2:
          tracer.IoBegin(point);
          expected_io[{point, key}] += (point == 4 || point == 5) ? 1 : 0;
          break;
        default:
          tracer.IoEnd(point);  // end hooks are never profiled
          break;
      }
      for (uint64_t i = 0; i < height; ++i) {
        tracer.PopFrame();
      }
    }
    for (auto* expected : {&expected_access, &expected_io}) {
      for (auto it = expected->begin(); it != expected->end();) {
        it = it->second == 0 ? expected->erase(it) : std::next(it);
      }
    }
    EXPECT_EQ(tracer.dynamic_access_points(), expected_access) << "depth " << depth;
    EXPECT_EQ(tracer.dynamic_io_points(), expected_io) << "depth " << depth;
    EXPECT_FALSE(expected_access.empty());
    EXPECT_FALSE(expected_io.empty());
  }
  tracer.set_stack_depth(CallStack::kMaxDepth);
}

TEST_F(TracerTest, EqualTextFramesAtDifferentAddressesShareOneDynamicPoint) {
  auto& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kProfile);
  tracer.SetProfiledPoints({1}, {});
  const char* const kFirst = "Handler.read";
  for (const char* frame : {kFirst, kHandlerReadCopy, kFirst}) {
    ScopedFrame scoped(frame);
    tracer.PreRead(1, "v");
  }
  ASSERT_EQ(tracer.dynamic_access_points().size(), 1u);
  EXPECT_EQ(tracer.dynamic_access_points().begin()->first.stack_key, "Handler.read");
  EXPECT_EQ(tracer.dynamic_access_points().begin()->second, 3);
  // Reset drops the cache with the counters it pointed into.
  tracer.Reset(TraceMode::kProfile);
  tracer.SetProfiledPoints({1}, {});
  {
    ScopedFrame scoped(kFirst);
    tracer.PreRead(1, "v");
  }
  EXPECT_EQ(tracer.dynamic_access_points().begin()->second, 1);
}

}  // namespace
}  // namespace ctrt
