#include "platform/thread_pool.hpp"

#include <atomic>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/obs.hpp"

namespace tc::plat {

i32 affinity_cores() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return std::max(1, narrow<i32>(std::thread::hardware_concurrency()));
}

namespace {

/// The pool whose worker the current thread is (null elsewhere).
thread_local const ThreadPool* tls_worker_of = nullptr;

/// Pin `thread` to the (index mod n)-th of the n cores in the calling
/// thread's affinity mask.  Returns false on platforms without
/// pthread_setaffinity_np or when a call fails — the pool then runs
/// unpinned, which is always correct, just less cache-local.
bool pin_to_core([[maybe_unused]] std::thread& thread,
                 [[maybe_unused]] usize index) {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return false;
  const usize cores = static_cast<usize>(std::max(1, CPU_COUNT(&mask)));
  usize skip = index % cores;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &mask) || skip-- != 0) continue;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return pthread_setaffinity_np(thread.native_handle(), sizeof(set),
                                  &set) == 0;
  }
  return false;
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
  if (threads == 0) threads = static_cast<usize>(affinity_cores());
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
  tls_worker_of = this;
  for (;;) {
    std::function<void()> fn;
    usize* batch_remaining = nullptr;
    {
      common::MutexLock lock(mutex_);
      cv_.wait(mutex_,
               [this]() TC_REQUIRES(mutex_) { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      fn = std::move(queue_.front().fn);
      batch_remaining = queue_.front().batch_remaining;
      queue_.pop();
    }
    run_job_observed(fn);
    {
      common::MutexLock lock(mutex_);
      if (--*batch_remaining == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::run_all(std::vector<std::function<void()>> jobs) {
  if (jobs.empty()) return;
  if (tls_worker_of == this) {
    // Nested fan-out from one of our own jobs: waiting for the queue here
    // could block the very workers the batch needs.
    for (auto& j : jobs) j();
    return;
  }
  usize remaining = jobs.size();
  {
    common::MutexLock lock(mutex_);
    for (auto& j : jobs) queue_.push(Job{std::move(j), &remaining});
  }
  cv_.notify_all();
  common::MutexLock lock(mutex_);
  done_cv_.wait(mutex_,
                [&]() TC_REQUIRES(mutex_) { return remaining == 0; });
}

void ThreadPool::parallel_ranges(
    i32 count, i32 chunks, const std::function<void(i32, IndexRange)>& fn,
    i32 max_concurrent) {
  std::vector<std::function<void()>> jobs;
  if (max_concurrent > 0 && max_concurrent < chunks) {
    // `max_concurrent` jobs each claim the next chunk until all ran.
    std::atomic<i32> next{0};
    jobs.assign(static_cast<usize>(max_concurrent), [&next, count, chunks, &fn] {
      for (i32 c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
        const IndexRange range = even_chunk(count, chunks, c);
        if (!range.empty()) fn(c, range);
      }
    });
    run_all(std::move(jobs));
    return;
  }
  jobs.reserve(static_cast<usize>(chunks));
  for (i32 c = 0; c < chunks; ++c) {
    IndexRange range = even_chunk(count, chunks, c);
    if (range.empty()) continue;
    jobs.push_back([c, range, &fn] { fn(c, range); });
  }
  run_all(std::move(jobs));
}

}  // namespace tc::plat
