#include "platform/thread_pool.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/obs.hpp"

namespace tc::plat {

namespace {

/// Pin `thread` to `core` (mod the hardware core count).  Returns false on
/// platforms without pthread_setaffinity_np or when the call fails — the
/// pool then runs unpinned, which is always correct, just less cache-local.
bool pin_to_core([[maybe_unused]] std::thread& thread,
                 [[maybe_unused]] usize core) {
#if defined(__linux__)
  const usize cores =
      std::max<usize>(1, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(core % cores), &set);
  return pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set) ==
         0;
#else
  return false;
#endif
}

/// Run one queued job, recording a pool_job span and the pool metrics when
/// observability is on.
void run_job_observed(const std::function<void()>& job) {
  if (!obs::enabled()) {
    job();
    return;
  }
  obs::ObsContext& ctx = obs::global();
  const obs::ScopedTimer timer;
  job();
  const f64 wall_ms = timer.elapsed_ms();
  ctx.flight.record(obs::FrEventType::PoolJob, -1, -1, wall_ms);
  ctx.metrics
      .counter("tripleC_pool_jobs_total", "Jobs executed by the thread pool")
      .add();
  ctx.metrics
      .histogram("tripleC_pool_job_wall_ms",
                 "Host wall-clock time per thread-pool job",
                 obs::latency_buckets_ms())
      .record(wall_ms);
}

}  // namespace

IndexRange even_chunk(i32 count, i32 chunks, i32 chunk) {
  if (chunks <= 0) return IndexRange{0, count};
  i32 base = count / chunks;
  i32 rem = count % chunks;
  i32 lo = chunk * base + std::min(chunk, rem);
  i32 size = base + (chunk < rem ? 1 : 0);
  return IndexRange{lo, lo + size};
}

ThreadPool::ThreadPool(usize threads, bool pin_threads) {
  if (threads == 0) {
    threads = std::max<usize>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  pinned_ = pin_threads;
  for (usize i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
    if (pin_threads) pinned_ = pin_to_core(workers_.back(), i) && pinned_;
  }
}

ThreadPool::~ThreadPool() {
  {
    common::MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      common::MutexLock lock(mutex_);
      cv_.wait(mutex_,
               [this]() TC_REQUIRES(mutex_) { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop();
    }
    run_job_observed(job);
    {
      common::MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_all(std::vector<std::function<void()>> jobs) {
  if (jobs.empty()) return;
  {
    common::MutexLock lock(mutex_);
    in_flight_ += jobs.size();
    for (auto& j : jobs) queue_.push(std::move(j));
  }
  cv_.notify_all();
  common::MutexLock lock(mutex_);
  done_cv_.wait(mutex_,
                [this]() TC_REQUIRES(mutex_) { return in_flight_ == 0; });
}

void ThreadPool::parallel_ranges(
    i32 count, i32 chunks, const std::function<void(i32, IndexRange)>& fn) {
  std::vector<std::function<void()>> jobs;
  jobs.reserve(static_cast<usize>(chunks));
  for (i32 c = 0; c < chunks; ++c) {
    IndexRange range = even_chunk(count, chunks, c);
    if (range.empty()) continue;
    jobs.push_back([c, range, &fn] { fn(c, range); });
  }
  run_all(std::move(jobs));
}

}  // namespace tc::plat
