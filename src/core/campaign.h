// Parallel injection-campaign engine.
//
// Phase 2 runs one independent deterministic simulation per dynamic crash
// point (and the baselines/multi-crash extensions run one per trial/pair), so
// once runtime state is per-run (run_context.h) the campaign is embarrassingly
// parallel. CampaignEngine::Map forks threads for one batch of indexed tasks,
// joins them, and collects results *by index*, so the output is byte-identical
// at any thread count: every task derives its seed from its index, and
// aggregation happens in index order after the threads are joined.
#ifndef SRC_CORE_CAMPAIGN_H_
#define SRC_CORE_CAMPAIGN_H_

#include <algorithm>
#include <type_traits>
#include <vector>

namespace ctcore {

// Resolves a jobs knob: values >= 1 are taken as-is; 0 and negatives mean
// "one worker per hardware thread".
int ResolveJobs(int jobs);

class CampaignEngine {
 public:
  explicit CampaignEngine(int jobs) : jobs_(ResolveJobs(jobs)) {}

  int jobs() const { return jobs_; }

  // Runs fn(0) .. fn(n-1) on the caller plus min(jobs(), n) - 1 threads
  // started for this call and joined before it returns. Returns the results
  // indexed by task, independent of which thread ran what. fn must be safe to
  // call concurrently from several threads; its result type must be
  // default-constructible. The first exception a task throws is rethrown here
  // after every task in flight has finished.
  template <typename Fn>
  auto Map(int n, Fn&& fn) const -> std::vector<std::invoke_result_t<Fn&, int>> {
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
  // Runs tasks 0..n-1 on the caller and workers - 1 new threads, returns once
  // all of them are joined, and rethrows the first task exception.
  static void RunParallel(int n, int workers, void (*call)(void*, int), void* context);

  // Quiesces process-wide shared state before threads exist: freezes the
  // statement registry so in-run lookups of already-known statements are
  // lock-free.
  static void PrepareSharedState();

  int jobs_;
};

}  // namespace ctcore

#endif  // SRC_CORE_CAMPAIGN_H_
