// Zero-allocation regression test for the simulator's per-event path.
//
// A counting global operator new records every heap allocation the process
// makes. After a warm-up that lets pools, slabs and vectors reach their
// steady-state capacity, each scenario below must allocate nothing at all:
// message delivery between two nodes, one node's heartbeat fan-out, Every
// ticks, trigger-mode tracer hooks that do not fire, and profile-mode hooks
// at dynamic points already seen. The test counts allocations and takes no timings,
// so its verdict is the same on any host.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/runtime/tracer.h"
#include "src/sim/cluster.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

uint64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace

// The replacements are kept out of line: once inlined into a caller, GCC
// pairs the malloc() or free() inside with the caller's new or delete
// expression and reports a mismatched allocation.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }

[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ctsim {
namespace {

// Payload-free ping/pong: each node pings its peer every period from an
// Every timer, and the ping handler answers from inside the delivery.
class PingNode : public Node {
 public:
  PingNode(Cluster* cluster, std::string id) : Node(cluster, std::move(id)) {
    ping_ = cluster->Intern("Heartbeat");
    pong_ = cluster->Intern("HeartbeatAck");
    Handle("Heartbeat", [this](const Message& m) {
      ++pings_;
      Send(m.from, pong_);
    });
    Handle("HeartbeatAck", [this](const Message&) { ++pongs_; });
  }

  void set_peer(NodeId peer) { peer_ = peer; }

  int pings_ = 0;
  int pongs_ = 0;

 protected:
  void OnStart() override {
    Every(100, [this] { Send(peer_, ping_); });
  }

 private:
  NodeId peer_;
  Symbol ping_;
  Symbol pong_;
};

TEST(ZeroAllocation, HeartbeatDeliveryAllocatesNothingInSteadyState) {
  Cluster cluster(7);
  PingNode* a = cluster.AddNode<PingNode>("node1:1");
  PingNode* b = cluster.AddNode<PingNode>("node2:2");
  a->set_peer(b->sym());
  b->set_peer(a->sym());
  cluster.StartAll();
  cluster.loop().RunUntil(10'000);  // warm-up, past the wheel horizon

  const uint64_t delivered = cluster.delivered_messages();
  const uint64_t events = cluster.loop().executed_events();
  const uint64_t before = Allocations();
  cluster.loop().RunUntil(20'000);
  const uint64_t allocations = Allocations() - before;

  EXPECT_EQ(allocations, 0u);
  // 100 rounds of ping + pong in each direction.
  EXPECT_EQ(cluster.delivered_messages() - delivered, 400u);
  EXPECT_GT(cluster.loop().executed_events() - events, 0u);
  EXPECT_GT(a->pongs_, 0);
  EXPECT_GT(b->pings_, 0);
}

// One node heartbeating all its peers every tick, as a ZooKeeper peer does:
// the whole round is one delivery batch.
class FanOutNode : public Node {
 public:
  FanOutNode(Cluster* cluster, std::string id) : Node(cluster, std::move(id)) {
    beat_ = cluster->Intern("peerHeartbeat");
    Handle("peerHeartbeat", [this](const Message&) { ++beats_; });
  }

  void add_peer(NodeId peer) { peers_.push_back(peer); }

  int beats_ = 0;

 protected:
  void OnStart() override {
    if (!peers_.empty()) {
      Every(100, [this] {
        for (const NodeId peer : peers_) {
          Send(peer, beat_);
        }
      });
    }
  }

 private:
  std::vector<NodeId> peers_;
  Symbol beat_;
};

TEST(ZeroAllocation, HeartbeatFanOutToSevenPeersAllocatesNothingInSteadyState) {
  Cluster cluster(3);
  FanOutNode* sender = cluster.AddNode<FanOutNode>("node0:1");
  std::vector<FanOutNode*> peers;
  for (int i = 1; i <= 7; ++i) {
    std::string id = "node";
    id += std::to_string(i);
    id += ":1";
    peers.push_back(cluster.AddNode<FanOutNode>(id));
    sender->add_peer(peers.back()->sym());
  }
  cluster.StartAll();
  cluster.loop().RunUntil(10'000);  // warm-up, past the wheel horizon

  const uint64_t delivered = cluster.delivered_messages();
  const uint64_t events = cluster.loop().executed_events();
  const uint64_t before = Allocations();
  cluster.loop().RunUntil(20'000);
  const uint64_t allocations = Allocations() - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(cluster.delivered_messages() - delivered, 700u);
  // Per round: the sender's tick and one batch for all seven heartbeats.
  EXPECT_EQ(cluster.loop().executed_events() - events, 200u);
  for (const FanOutNode* peer : peers) {
    EXPECT_GE(peer->beats_, 100);
  }
}

class TickNode : public Node {
 public:
  using Node::Node;
  int ticks_ = 0;

 protected:
  void OnStart() override {
    Every(10, [this] { ++ticks_; });
    Every(35, [this] { ++ticks_; });
  }
};

TEST(ZeroAllocation, EveryTicksAllocateNothingInSteadyState) {
  Cluster cluster(11);
  TickNode* node = cluster.AddNode<TickNode>("node1:1");
  cluster.StartAll();
  // Warm-up past the loop's 4096 ms wheel horizon, so the far heap has held
  // the re-armed ticks once.
  cluster.loop().RunUntil(10'000);

  const int ticks = node->ticks_;
  const uint64_t before = Allocations();
  cluster.loop().RunUntil(20'000);
  const uint64_t allocations = Allocations() - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_GE(node->ticks_ - ticks, 1000 + 285);
}

}  // namespace
}  // namespace ctsim

namespace ctrt {
namespace {

TEST(ZeroAllocation, UnfiredTriggerHooksAllocateNothing) {
  AccessTracer& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kTrigger);
  int fired = 0;
  tracer.ArmAccessTrigger({7, "Handler.read<Service.run"},
                          [&fired](const AccessEvent&) { ++fired; });
  tracer.ArmIoTrigger({9, "Handler.read<Service.run"}, /*before=*/true,
                      [&fired](const AccessEvent&) { ++fired; });
  const std::string value = "node1:1";
  uint64_t allocations = 0;
  {
    ScopedFrame outer("Service.run");
    {
      ScopedFrame warm("Warm.up");  // grows the frame stack once
    }
    const uint64_t before = Allocations();
    for (int i = 0; i < 1000; ++i) {
      ScopedFrame inner("Handler.write");
      tracer.PreRead(8, value);    // unarmed point
      tracer.PostWrite(7, value);  // armed point, wrong stack
      tracer.IoBegin(9);           // armed IO point, wrong stack
      tracer.IoEnd(3);
    }
    allocations = Allocations() - before;
  }

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(tracer.hook_firings(), 4000u);
  tracer.Reset(TraceMode::kOff);
}

TEST(ZeroAllocation, ProfileHooksAtSeenPointsAllocateNothing) {
  AccessTracer& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kProfile);
  tracer.SetProfiledPoints({7, 8}, {9});
  const std::string value = "node1:1";
  uint64_t allocations = 0;
  {
    ScopedFrame outer("Service.run");
    {
      ScopedFrame inner("Handler.read");
      tracer.PreRead(7, value);  // first sight of each dynamic point: allocates
      tracer.PostWrite(8, value);
      tracer.IoBegin(9);
    }
    const uint64_t before = Allocations();
    for (int i = 0; i < 1000; ++i) {
      ScopedFrame inner("Handler.read");
      tracer.PreRead(7, value);
      tracer.PostWrite(8, value);
      tracer.IoBegin(9);
      tracer.IoEnd(9);
    }
    allocations = Allocations() - before;
  }

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(tracer.dynamic_access_points().size(), 2u);
  EXPECT_EQ(tracer.dynamic_io_points().size(), 1u);
  EXPECT_EQ(tracer.dynamic_io_points().begin()->second, 1001);
  tracer.Reset(TraceMode::kOff);
}

TEST(ZeroAllocation, HooksAfterTheTriggerFiredAllocateNothing) {
  AccessTracer& tracer = AccessTracer::Instance();
  tracer.Reset(TraceMode::kTrigger);
  int fired = 0;
  tracer.ArmAccessTrigger({7, "Handler.read<Service.run"},
                          [&fired](const AccessEvent&) { ++fired; });
  const std::string value = "node1:1";
  uint64_t allocations = 0;
  {
    ScopedFrame outer("Service.run");
    {
      ScopedFrame inner("Handler.read");
      tracer.PreRead(7, value);  // the armed hit: firing may allocate
    }
    const uint64_t before = Allocations();
    for (int i = 0; i < 1000; ++i) {
      ScopedFrame inner("Handler.read");
      tracer.PreRead(7, value);  // the armed dynamic point again
      tracer.PostWrite(8, value);
      tracer.IoBegin(9);
    }
    allocations = Allocations() - before;
  }

  EXPECT_EQ(fired, 1);
  EXPECT_EQ(allocations, 0u);
  tracer.Reset(TraceMode::kOff);
}

}  // namespace
}  // namespace ctrt
