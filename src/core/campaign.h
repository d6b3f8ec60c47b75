// Parallel injection-campaign engine.
//
// Phase 2 runs one independent deterministic simulation per dynamic crash
// point (and the baselines/multi-crash extensions run one per trial/pair), so
// once runtime state is per-run (run_context.h) the campaign is embarrassingly
// parallel. CampaignEngine::Map fans indexed tasks across a persistent worker
// pool and collects results *by index*, so the output is byte-identical at any
// thread count: every task derives its seed from its index, and aggregation
// happens in index order after the pool drains.
#ifndef SRC_CORE_CAMPAIGN_H_
#define SRC_CORE_CAMPAIGN_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ctcore {

// Resolves a jobs knob: values >= 1 are taken as-is; 0 and negatives mean
// "one worker per hardware thread".
int ResolveJobs(int jobs);

class CampaignEngine {
 public:
  explicit CampaignEngine(int jobs) : jobs_(ResolveJobs(jobs)) {}
  // Stops and joins the worker threads.
  ~CampaignEngine();
  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  int jobs() const { return jobs_; }

  // Runs fn(0) .. fn(n-1), fanning across up to jobs() threads — the caller
  // plus workers the engine starts on its first parallel Map and keeps until
  // it is destroyed, so a caller that maps many small batches (the fuzzer)
  // pays thread start-up once. Returns the results indexed by task,
  // independent of which thread ran what. fn must be safe to call
  // concurrently from several threads; its result type must be
  // default-constructible. The first exception a task throws is rethrown
  // here after every task in flight has finished. One engine runs one Map at
  // a time: Map is neither reentrant nor safe to call from two threads.
  template <typename Fn>
  auto Map(int n, Fn&& fn) -> std::vector<std::invoke_result_t<Fn&, int>> {
    using Result = std::invoke_result_t<Fn&, int>;
    std::vector<Result> results(static_cast<size_t>(std::max(n, 0)));
    if (n <= 0) {
      return results;
    }
    const int workers = std::min(jobs_, n);
    if (workers <= 1) {
      for (int i = 0; i < n; ++i) {
        results[static_cast<size_t>(i)] = fn(i);
      }
      return results;
    }
    auto task = [&](int i) { results[static_cast<size_t>(i)] = fn(i); };
    using Task = decltype(task);
    RunParallel(
        n, workers, [](void* context, int i) { (*static_cast<Task*>(context))(i); }, &task);
    return results;
  }

 private:
  // One Map call as the threads see it. Lives on the calling thread's stack
  // for the duration of RunParallel.
  struct Job {
    void (*call)(void*, int) = nullptr;
    void* context = nullptr;
    int n = 0;
    std::atomic<int> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mu;
    std::exception_ptr error;
  };

  // Runs tasks 0..n-1 on the caller and workers - 1 pool threads, returns
  // once all of them are done, and rethrows the first task exception.
  void RunParallel(int n, int workers, void (*call)(void*, int), void* context);
  // Claims and runs tasks of `job` until none are left or one has failed.
  static void Drain(Job& job);
  void WorkerLoop();

  // Quiesces process-wide shared state before threads exist: freezes the
  // statement registry so in-run lookups of already-known statements are
  // lock-free.
  static void PrepareSharedState();

  int jobs_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a job or shutdown
  std::condition_variable done_cv_;  // the caller waits for its helpers
  Job* job_ = nullptr;               // guarded by mu_
  uint64_t generation_ = 0;          // bumped per published job
  int helpers_wanted_ = 0;           // pool threads the current job still takes
  int helpers_busy_ = 0;             // pool threads inside the current job
  bool stopping_ = false;
  std::vector<std::thread> threads_;  // last: the workers use every member above
};

}  // namespace ctcore

#endif  // SRC_CORE_CAMPAIGN_H_
