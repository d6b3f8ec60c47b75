#include "src/core/campaign.h"

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

CampaignEngine::~CampaignEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void CampaignEngine::Drain(Job& job) {
  for (;;) {
    const int i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n || job.failed.load(std::memory_order_relaxed)) {
      return;
    }
    try {
      job.call(job.context, i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mu);
      if (job.error == nullptr) {
        job.error = std::current_exception();
      }
      job.failed.store(true, std::memory_order_relaxed);
    }
  }
}

void CampaignEngine::WorkerLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || (generation_ != seen && helpers_wanted_ > 0); });
    if (stopping_) {
      return;
    }
    // Join each job at most once; a job needing fewer helpers than the pool
    // has leaves the rest asleep.
    seen = generation_;
    --helpers_wanted_;
    ++helpers_busy_;
    Job* job = job_;
    lock.unlock();
    Drain(*job);
    lock.lock();
    if (--helpers_busy_ == 0) {
      done_cv_.notify_one();
    }
  }
}

void CampaignEngine::RunParallel(int n, int workers, void (*call)(void*, int), void* context) {
  PrepareSharedState();
  if (threads_.empty()) {
    threads_.reserve(static_cast<size_t>(jobs_ - 1));
    for (int w = 1; w < jobs_; ++w) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }
  Job job;
  job.call = call;
  job.context = context;
  job.n = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    ++generation_;
    helpers_wanted_ = workers - 1;
  }
  work_cv_.notify_all();
  Drain(job);
  {
    // Helpers that have not woken yet are no longer wanted: every task is
    // claimed, so the job finishes with whoever joined it.
    std::unique_lock<std::mutex> lock(mu_);
    helpers_wanted_ = 0;
    done_cv_.wait(lock, [&] { return helpers_busy_ == 0; });
    job_ = nullptr;
  }
  if (job.error != nullptr) {
    std::rethrow_exception(job.error);
  }
}

}  // namespace ctcore
