#include "src/core/campaign.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "src/logging/statement.h"

namespace ctcore {

int ResolveJobs(int jobs) {
  if (jobs >= 1) {
    return jobs;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void CampaignEngine::PrepareSharedState() { ctlog::StatementRegistry::Instance().Freeze(); }

void CampaignEngine::RunParallel(int n, int workers, void (*call)(void*, int), void* context) {
  PrepareSharedState();
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;
  // Claims and runs tasks until none are left or one has failed.
  auto drain = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) {
        return;
      }
      try {
        call(context, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (error == nullptr) {
          error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  {
    // jthreads join on destruction, also when starting a later one throws.
    std::vector<std::jthread> helpers;
    helpers.reserve(static_cast<size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) {
      helpers.emplace_back(drain);
    }
    drain();
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

}  // namespace ctcore
