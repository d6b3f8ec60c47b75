// Tests for the cluster simulator: node lifecycle, messaging, crash vs
// graceful shutdown, the failure detector, and exception boundaries.
#include <gtest/gtest.h>

#include "src/sim/cluster.h"
#include "src/sim/exception.h"
#include "src/sim/failure_detector.h"
#include "src/sim/trace.h"

namespace ctsim {
namespace {

class EchoNode : public Node {
 public:
  EchoNode(Cluster* cluster, std::string id) : Node(cluster, std::move(id)) {
    Handle("ping", [this](const Message& m) {
      ++pings_;
      Send(m.from, "pong", {});
    });
    Handle("pong", [this](const Message&) { ++pongs_; });
    Handle("boom", [this](const Message&) {
      throw SimException("NullPointerException", "boom");
    });
    Handle("crashsignal", [this](const Message&) {
      mid_handler_ = true;
      throw NodeCrashedSignal{};
    });
  }

  int pings_ = 0;
  int pongs_ = 0;
  bool mid_handler_ = false;
  bool shutdown_ran_ = false;

 protected:
  void OnShutdown() override { shutdown_ran_ = true; }
};

TEST(Cluster, DeliversMessagesWithLatency) {
  Cluster cluster(1);
  auto* a = cluster.AddNode<EchoNode>("a:1");
  auto* b = cluster.AddNode<EchoNode>("b:1");
  cluster.StartAll();
  a->Send("b:1", "ping");
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, 1);
  EXPECT_EQ(a->pongs_, 1);
  EXPECT_EQ(cluster.delivered_messages(), 2u);
}

TEST(Cluster, MessagesToDeadNodesAreDropped) {
  Cluster cluster(1);
  auto* a = cluster.AddNode<EchoNode>("a:1");
  auto* b = cluster.AddNode<EchoNode>("b:1");
  cluster.StartAll();
  a->Send("b:1", "ping");
  cluster.Crash("b:1");  // dies before delivery
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, 0);
  EXPECT_EQ(cluster.dropped_messages(), 1u);
}

TEST(Cluster, CrashIsAbruptShutdownIsGraceful) {
  Cluster cluster(1);
  auto* a = cluster.AddNode<EchoNode>("a:1");
  auto* b = cluster.AddNode<EchoNode>("b:1");
  cluster.StartAll();
  cluster.Crash("a:1");
  EXPECT_FALSE(a->shutdown_ran_);
  EXPECT_EQ(a->state(), NodeState::kCrashed);
  cluster.Shutdown("b:1");
  EXPECT_TRUE(b->shutdown_ran_);
  EXPECT_EQ(b->state(), NodeState::kShutdown);
  EXPECT_FALSE(cluster.IsAlive("a:1"));
  EXPECT_FALSE(cluster.IsAlive("b:1"));
}

TEST(Cluster, DeadNodeTimersNeverFire) {
  Cluster cluster(1);
  auto* a = cluster.AddNode<EchoNode>("a:1");
  cluster.StartAll();
  int fired = 0;
  a->After(100, [&] { ++fired; });
  cluster.loop().Schedule(50, [&] { cluster.Crash("a:1"); });
  cluster.loop().RunToCompletion();
  EXPECT_EQ(fired, 0);
}

TEST(Cluster, EveryRepeatsUntilDeath) {
  Cluster cluster(1);
  auto* a = cluster.AddNode<EchoNode>("a:1");
  cluster.StartAll();
  int ticks = 0;
  a->Every(10, [&] { ++ticks; });
  cluster.loop().Schedule(55, [&] { cluster.Crash("a:1"); });
  cluster.loop().RunUntil(200);
  EXPECT_EQ(ticks, 5);
}

TEST(Cluster, UnhandledExceptionAbortsNodeAndLogsIt) {
  Cluster cluster(1);
  auto* a = cluster.AddNode<EchoNode>("a:1");
  auto* b = cluster.AddNode<EchoNode>("b:1");
  cluster.StartAll();
  a->Send("b:1", "boom");
  cluster.loop().RunToCompletion();
  EXPECT_TRUE(b->aborted());
  EXPECT_FALSE(cluster.IsAlive("b:1"));
  EXPECT_FALSE(cluster.cluster_down());  // b is not critical
  bool logged = false;
  for (const auto& instance : cluster.logs().instances()) {
    logged = logged || instance.text.find("Uncommon exception NullPointerException") == 0;
  }
  EXPECT_TRUE(logged);
}

class CriticalNode : public EchoNode {
 public:
  CriticalNode(Cluster* cluster, std::string id) : EchoNode(cluster, std::move(id)) {
    SetCritical();
  }
};

TEST(Cluster, CriticalNodeAbortTakesClusterDown) {
  Cluster cluster(1);
  auto* a = cluster.AddNode<EchoNode>("a:1");
  cluster.AddNode<CriticalNode>("master:1");
  cluster.StartAll();
  a->Send("master:1", "boom");
  cluster.loop().RunToCompletion();
  EXPECT_TRUE(cluster.cluster_down());
  EXPECT_NE(cluster.cluster_down_reason().find("master:1"), std::string::npos);
}

TEST(Cluster, NodeCrashedSignalSilentlyEndsHandler) {
  Cluster cluster(1);
  auto* a = cluster.AddNode<EchoNode>("a:1");
  auto* b = cluster.AddNode<EchoNode>("b:1");
  cluster.StartAll();
  a->Send("b:1", "crashsignal");
  cluster.loop().RunToCompletion();
  EXPECT_TRUE(b->mid_handler_);
  EXPECT_FALSE(b->aborted());  // not an exception, just a killed process
}

TEST(Cluster, ExceptionEscapingMidBatchAbandonsTheRestOfTheBatch) {
  // A replay divergence is not a simulated fault: it escapes the node's
  // exception boundary and unwinds out of the loop in the middle of a batch.
  // The batch's remaining messages are abandoned, and no stale batch may stay
  // behind for the drain hook to serve once the loop runs again.
  Cluster cluster(1);
  auto* a = cluster.AddNode<EchoNode>("a:1");
  auto* b = cluster.AddNode<EchoNode>("b:1");
  b->Handle("diverge", [](const Message&) { throw TraceDivergence("diverged"); });
  cluster.StartAll();
  a->Send("b:1", "diverge");
  a->Send("b:1", "ping");  // same link, same tick: same batch
  EXPECT_THROW(cluster.loop().RunToCompletion(), TraceDivergence);
  EXPECT_EQ(b->pings_, 0);

  a->Send("b:1", "ping");
  cluster.loop().RunToCompletion();
  EXPECT_EQ(b->pings_, 1);
  EXPECT_EQ(a->pongs_, 1);
  EXPECT_EQ(cluster.delivered_messages(), 3u);  // diverge, ping, pong
}

// Appends "<node>:<method>" to a shared log for every message it handles.
// "kill" crashes the node named in the payload; "wait" re-enters the loop
// for 50 ms the way the pre-read trigger's recovery window does.
class RecorderNode : public Node {
 public:
  RecorderNode(Cluster* cluster, std::string id, std::vector<std::string>* log)
      : Node(cluster, std::move(id)), log_(log) {
    Handle("note", [this](const Message& m) { Note(m); });
    Handle("kill", [this](const Message& m) {
      Note(m);
      this->cluster().Crash(m.Arg("target"));
    });
    Handle("wait", [this](const Message& m) {
      Note(m);
      this->cluster().loop().RunFor(50);
      log_->push_back(this->id() + ":wait-end");
    });
  }

 private:
  void Note(const Message& m) { log_->push_back(id() + ":" + m.method.str()); }

  std::vector<std::string>* log_;
};

struct FanOutCluster {
  FanOutCluster() : cluster(1) {
    s = cluster.AddNode<RecorderNode>("s:1", &log);
    a = cluster.AddNode<RecorderNode>("a:1", &log);
    b = cluster.AddNode<RecorderNode>("b:1", &log);
    c = cluster.AddNode<RecorderNode>("c:1", &log);
    cluster.StartAll();
  }
  std::vector<std::string> log;
  Cluster cluster;
  RecorderNode* s;
  RecorderNode* a;
  RecorderNode* b;
  RecorderNode* c;
};

TEST(Cluster, OneSendersSameTickFanOutSharesOneLoopEvent) {
  FanOutCluster f;
  const uint64_t scheduled = f.cluster.loop().scheduled_events();
  f.s->Send("a:1", "note");
  f.s->Send("c:1", "note");
  f.s->Send("b:1", "note");
  EXPECT_EQ(f.cluster.loop().scheduled_events(), scheduled + 1);
  const uint64_t executed = f.cluster.loop().executed_events();
  f.cluster.loop().RunToCompletion();
  EXPECT_EQ(f.cluster.loop().executed_events(), executed + 1);
  EXPECT_EQ(f.log, (std::vector<std::string>{"a:1:note", "c:1:note", "b:1:note"}));
  EXPECT_EQ(f.cluster.delivered_messages(), 3u);
}

TEST(Cluster, HandlerReenteringTheLoopMidBatchSeesTheOtherDestinationsFirst) {
  FanOutCluster f;
  f.s->Send("a:1", "wait");
  f.s->Send("b:1", "note");
  f.s->Send("c:1", "note");
  // Same delivery tick, scheduled after the batch: in (time, seq) order it
  // follows every batch member, nested drain or not.
  f.cluster.loop().Schedule(f.cluster.latency_ms(), [&f] { f.log.push_back("timer"); });
  f.cluster.loop().RunToCompletion();
  EXPECT_EQ(f.log, (std::vector<std::string>{"a:1:wait", "b:1:note", "c:1:note", "timer",
                                             "a:1:wait-end"}));
}

TEST(Cluster, AnEventScheduledBetweenSendsClosesTheBatch) {
  FanOutCluster f;
  EventLoop& loop = f.cluster.loop();
  const uint64_t scheduled = loop.scheduled_events();
  f.s->Send("a:1", "note");
  f.s->Send("b:1", "note");
  EXPECT_EQ(loop.scheduled_events(), scheduled + 1);
  // A timer scheduled in between: the next send, from any node, would not
  // have been seq-adjacent to the batch, so it opens a new event.
  loop.Schedule(f.cluster.latency_ms(), [&f] { f.log.push_back("timer"); });
  f.a->Send("c:1", "note");
  EXPECT_EQ(loop.scheduled_events(), scheduled + 3);
  // With nothing scheduled in between, a send joins the open batch whoever
  // sends it: its own event would have been seq-adjacent to the batch's.
  f.b->Send("s:1", "note");
  f.s->Send("a:1", "note");
  EXPECT_EQ(loop.scheduled_events(), scheduled + 3);
  // A send for a later tick opens a new event too.
  f.cluster.set_latency_ms(2);
  f.s->Send("b:1", "note");
  EXPECT_EQ(loop.scheduled_events(), scheduled + 4);
  loop.RunToCompletion();
  EXPECT_EQ(f.log, (std::vector<std::string>{"a:1:note", "b:1:note", "timer", "c:1:note",
                                             "s:1:note", "a:1:note", "b:1:note"}));
}

TEST(Cluster, CrashingOneDestinationMidBatchDropsOnlyItsRemainingMessages) {
  FanOutCluster f;
  TraceRecorder recorder = TraceRecorder::Keeping();
  f.cluster.set_trace_recorder(&recorder);
  f.s->Send("b:1", "note");
  f.s->Send("a:1", "kill", {{"target", "b:1"}});
  f.s->Send("b:1", "note");
  f.s->Send("c:1", "note");
  f.s->Send("b:1", "note");
  f.cluster.loop().RunToCompletion();
  EXPECT_EQ(f.log, (std::vector<std::string>{"b:1:note", "a:1:kill", "c:1:note"}));
  EXPECT_EQ(f.cluster.delivered_messages(), 3u);
  EXPECT_EQ(f.cluster.dropped_messages(), 2u);
  std::vector<std::string> messages;
  for (const TraceEvent& event : recorder.trace().events()) {
    if (event.kind == "deliver" || event.kind == "drop.dead") {
      messages.push_back(event.kind + " " + event.detail);
    }
  }
  EXPECT_EQ(messages, (std::vector<std::string>{"deliver s:1>b:1 note", "deliver s:1>a:1 kill",
                                                "drop.dead s:1>b:1 note",
                                                "deliver s:1>c:1 note",
                                                "drop.dead s:1>b:1 note"}));
}

TEST(Cluster, CurrentNodeTracksExecutingHandler) {
  Cluster cluster(1);
  auto* a = cluster.AddNode<EchoNode>("a:1");
  cluster.AddNode<EchoNode>("b:1");
  cluster.StartAll();
  std::string observed;
  a->After(10, [&] { observed = cluster.current_node(); });
  cluster.loop().RunToCompletion();
  EXPECT_EQ(observed, "a:1");
  EXPECT_EQ(cluster.current_node(), "");
}

TEST(Cluster, DeferredNodesStartExplicitly) {
  Cluster cluster(1);
  auto* late = cluster.AddNode<EchoNode>("late:1");
  late->set_defer_start(true);
  cluster.StartAll();
  EXPECT_EQ(late->state(), NodeState::kStopped);
  cluster.StartNode("late:1");
  EXPECT_TRUE(late->IsRunning());
}

TEST(Cluster, ConfigHostsDeduplicates) {
  Cluster cluster(1);
  cluster.AddNode<EchoNode>("host1:10");
  cluster.AddNode<EchoNode>("host1:20");
  cluster.AddNode<EchoNode>("host2:10");
  EXPECT_EQ(cluster.config_hosts(), (std::vector<std::string>{"host1", "host2"}));
}

class MonitorNode : public Node {
 public:
  MonitorNode(Cluster* cluster, std::string id) : Node(cluster, std::move(id)) {
    fd_ = std::make_unique<FailureDetector>(this, 100, 20,
                                            [this](const std::string& n) { lost_.push_back(n); });
  }
  void StartFd() { fd_->Start(); }
  std::unique_ptr<FailureDetector> fd_;
  std::vector<std::string> lost_;
};

TEST(FailureDetector, DeclaresSilentNodesLostAfterTimeout) {
  Cluster cluster(1);
  auto* monitor = cluster.AddNode<MonitorNode>("m:1");
  cluster.StartAll();
  monitor->StartFd();
  monitor->fd_->Heartbeat("w:1");
  cluster.loop().RunUntil(80);
  EXPECT_TRUE(monitor->lost_.empty());  // within timeout
  cluster.loop().RunUntil(300);
  ASSERT_EQ(monitor->lost_.size(), 1u);
  EXPECT_EQ(monitor->lost_[0], "w:1");
  EXPECT_FALSE(monitor->fd_->IsTracked("w:1"));
}

TEST(FailureDetector, HeartbeatsKeepNodesAlive) {
  Cluster cluster(1);
  auto* monitor = cluster.AddNode<MonitorNode>("m:1");
  cluster.StartAll();
  monitor->StartFd();
  for (int t = 0; t <= 500; t += 50) {
    cluster.loop().Schedule(t, [monitor] { monitor->fd_->Heartbeat("w:1"); });
  }
  cluster.loop().RunUntil(520);
  EXPECT_TRUE(monitor->lost_.empty());
  EXPECT_TRUE(monitor->fd_->IsTracked("w:1"));
}

TEST(FailureDetector, NotifyLeftIsImmediate) {
  // The graceful-shutdown fast path: no timeout wait.
  Cluster cluster(1);
  auto* monitor = cluster.AddNode<MonitorNode>("m:1");
  cluster.StartAll();
  monitor->StartFd();
  monitor->fd_->Heartbeat("w:1");
  monitor->fd_->NotifyLeft("w:1");
  EXPECT_EQ(monitor->lost_, (std::vector<std::string>{"w:1"}));
}

TEST(FailureDetector, ForgetSuppressesCallback) {
  Cluster cluster(1);
  auto* monitor = cluster.AddNode<MonitorNode>("m:1");
  cluster.StartAll();
  monitor->StartFd();
  monitor->fd_->Heartbeat("w:1");
  monitor->fd_->Forget("w:1");
  cluster.loop().RunUntil(500);
  EXPECT_TRUE(monitor->lost_.empty());
}

TEST(FailureDetector, SweepDeclaresLossesInStringOrder) {
  // Intern order differs from string order: ids 10 < 2 < 3 as strings.
  Cluster cluster(1);
  auto* monitor = cluster.AddNode<MonitorNode>("m:1");
  cluster.StartAll();
  monitor->StartFd();
  for (const char* id : {"w:3", "w:10", "w:2"}) {
    monitor->fd_->Heartbeat(id);
  }
  EXPECT_EQ(monitor->fd_->tracked(), (std::vector<std::string>{"w:10", "w:2", "w:3"}));
  cluster.loop().RunUntil(300);
  EXPECT_EQ(monitor->lost_, (std::vector<std::string>{"w:10", "w:2", "w:3"}));
  EXPECT_EQ(monitor->fd_->lost_count(), 3);
  EXPECT_TRUE(monitor->fd_->tracked().empty());
  // A node that heartbeats again after its loss is tracked afresh.
  monitor->fd_->Heartbeat("w:2");
  EXPECT_EQ(monitor->fd_->tracked(), (std::vector<std::string>{"w:2"}));
}

TEST(FailureDetector, ForgetAndNotifyLeftIgnoreUntrackedIds) {
  Cluster cluster(1);
  auto* monitor = cluster.AddNode<MonitorNode>("m:1");
  cluster.StartAll();
  monitor->StartFd();
  FailureDetector& fd = *monitor->fd_;
  fd.Heartbeat("w:1");
  // Interned (a node id) but never tracked.
  fd.Forget("m:1");
  fd.NotifyLeft("m:1");
  fd.NotifyLeft(cluster.Intern("m:1"));
  // Never interned at all: the lookups must not intern it either.
  fd.Forget("ghost:9");
  fd.NotifyLeft("ghost:9");
  EXPECT_FALSE(fd.IsTracked("ghost:9"));
  EXPECT_TRUE(cluster.interner().Find("ghost:9").empty());
  // Interned after the table was sized, so its id lies past the table's end.
  const NodeId late = cluster.Intern("late:1");
  fd.Forget(late);
  fd.NotifyLeft(late);
  EXPECT_FALSE(fd.IsTracked(late));
  EXPECT_TRUE(monitor->lost_.empty());
  EXPECT_EQ(fd.lost_count(), 0);
  EXPECT_EQ(fd.tracked(), (std::vector<std::string>{"w:1"}));
  // Leaving twice reports once.
  fd.NotifyLeft("w:1");
  fd.NotifyLeft("w:1");
  EXPECT_EQ(monitor->lost_, (std::vector<std::string>{"w:1"}));
  EXPECT_EQ(fd.lost_count(), 1);
}

// "<prefix><n>", built by appending: GCC 12 at -O3 raises a false -Wrestrict
// on "literal" + std::to_string(n).
std::string Numbered(const char* prefix, int n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

// ArgVec keeps up to four entries inline and spills the rest; every copy,
// move and assignment must preserve insertion order and values at each size.
std::vector<std::pair<std::string, std::string>> Entries(const ArgVec& args) {
  std::vector<std::pair<std::string, std::string>> out;
  for (size_t i = 0; i < args.size(); ++i) {
    out.emplace_back(args[i].key.str(), args[i].value);
  }
  return out;
}

TEST(ArgVec, CopyMoveAndAssignPreserveEntriesAtEverySize) {
  InternTable table;
  for (int n : {0, 1, 4, 5, 7}) {
    SCOPED_TRACE(Numbered("entries: ", n));
    ArgVec source;
    std::vector<std::pair<std::string, std::string>> expected;
    for (int i = 0; i < n; ++i) {
      // Keys inserted in reverse alphabetical order; long values defeat the
      // small-string buffer, so a shallow copy would show up under ASan.
      const std::string key = Numbered("k", 9 - i);
      const std::string value = std::string(40, static_cast<char>('a' + i)) + key;
      source.Set(table.Intern(key), value);
      expected.emplace_back(key, value);
    }
    ASSERT_EQ(Entries(source), expected);

    ArgVec copy(source);
    EXPECT_EQ(Entries(copy), expected);
    EXPECT_EQ(Entries(source), expected);

    ArgVec moved(std::move(copy));
    EXPECT_EQ(Entries(moved), expected);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copy.size(), 0u);

    for (int m : {0, 1, 4, 5, 7}) {
      // Assigning over targets of every size, inline and spilled.
      ArgVec target;
      for (int i = 0; i < m; ++i) {
        target.Set(table.Intern(Numbered("t", i)), std::string(30, 'x'));
      }
      ArgVec copy_target = target;
      copy_target = source;
      EXPECT_EQ(Entries(copy_target), expected);
      ArgVec move_source = source;
      target = std::move(move_source);
      EXPECT_EQ(Entries(target), expected);
      EXPECT_TRUE(move_source.empty());  // NOLINT(bugprone-use-after-move)
    }

    ArgVec self = source;
    ArgVec& alias = self;
    self = alias;
    EXPECT_EQ(Entries(self), expected);
    self = std::move(alias);
    EXPECT_EQ(Entries(self), expected);

    // A moved-from ArgVec is reusable, and overwriting keeps the order.
    moved.Set(table.Intern("fresh"), "v");
    if (n > 0) {
      moved.Set(table.Intern(expected[0].first), "overwritten");
      EXPECT_EQ(moved.Find(table.Intern(expected[0].first)), "overwritten");
      EXPECT_EQ(moved[0].key.str(), expected[0].first);
    }
    EXPECT_EQ(moved.Find(table.Intern("fresh")), "v");
    EXPECT_EQ(moved.Find(table.Intern("absent")), "");
    EXPECT_EQ(copy.Find(std::string("k9")), "");
    copy.Set(table.Intern("k9"), "again");
    EXPECT_EQ(Entries(copy), (std::vector<std::pair<std::string, std::string>>{{"k9", "again"}}));
  }
}

TEST(ArgVec, MessagesMoveThroughAVectorIntact) {
  // Vector growth relocates messages by move; payloads must survive it.
  InternTable table;
  std::vector<Message> messages;
  for (int i = 0; i < 64; ++i) {
    Message m;
    m.method = table.Intern(Numbered("m", i));
    for (int j = 0; j < i % 8; ++j) {
      m.args.Set(table.Intern(Numbered("k", j)), std::string(20, 'v') + std::to_string(i));
    }
    messages.push_back(std::move(m));
  }
  for (int i = 0; i < 64; ++i) {
    const Message& m = messages[static_cast<size_t>(i)];
    ASSERT_EQ(m.args.size(), static_cast<size_t>(i % 8));
    for (int j = 0; j < i % 8; ++j) {
      EXPECT_EQ(m.Arg(Numbered("k", j)), std::string(20, 'v') + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace ctsim
