// Host thread pool for real (not simulated) stripe-parallel execution.
//
// Used by the executors to actually run data-parallel stripes concurrently
// on the host machine; the simulated platform timing comes from CostModel,
// so host core count never affects experiment results — only wall-clock.
#pragma once

#include <functional>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "common/types.hpp"

namespace tc::obs {
class Counter;
class Histogram;
}  // namespace tc::obs

namespace tc::plat {

/// Cores the calling thread may run on (its sched_getaffinity mask), not
/// the machine's; falls back to std::thread::hardware_concurrency() (at
/// least 1) where the mask cannot be read.
[[nodiscard]] i32 affinity_cores();

class ThreadPool {
 public:
  /// Spawn `threads` workers (0 = affinity_cores()).  With `pin_threads`,
  /// worker i is pinned to the (i mod n)-th of the n cores in the affinity
  /// mask (pthread_setaffinity_np); a no-op on platforms without the call —
  /// the pool works identically, only the scheduler placement hint is lost.
  explicit ThreadPool(usize threads = 0, bool pin_threads = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] usize thread_count() const { return workers_.size(); }
  /// True when every worker was successfully pinned to a core.
  [[nodiscard]] bool pinned() const { return pinned_; }

  /// Run all jobs (possibly concurrently) and block until every one of
  /// *these* jobs finished — concurrent callers never wait for each other's
  /// batches.  Called from one of this pool's workers (a job that fans out
  /// again) the jobs run inline on that worker, so nesting cannot deadlock.
  /// The jobs stay in `jobs`, on the calling thread: a worker only calls
  /// them, so it never allocates or frees on the job's behalf.
  void run_all(std::vector<std::function<void()>> jobs);

  /// Split [0, count) into `chunks` contiguous ranges and run
  /// fn(chunk_index, range) for each in parallel, at most `max_concurrent`
  /// at a time (0 = no cap beyond the pool's width).  Chunk indices and
  /// ranges do not depend on the cap.
  void parallel_ranges(i32 count, i32 chunks,
                       const std::function<void(i32, IndexRange)>& fn,
                       i32 max_concurrent = 0);

 private:
  /// A job lent by a run_all caller and the unfinished-job count of its
  /// batch; both live on the caller's stack until the batch finished.
  struct Job {
    const std::function<void()>* fn;
    usize* batch_remaining;
  };

  void worker_loop();
  /// Run one job, recording a pool_job span and the pool metrics when
  /// observability is on.
  void run_job(const std::function<void()>& job);

  std::vector<std::thread> workers_;
  common::Mutex mutex_;
  /// Lent jobs; workers claim them in order from `next_`.  Callers drop the
  /// claimed prefix before appending, so the list never outgrows the jobs
  /// pending at once and workers never free its storage.
  std::vector<Job> pending_ TC_GUARDED_BY(mutex_);
  usize next_ TC_GUARDED_BY(mutex_) = 0;
  common::CondVar cv_;
  common::CondVar done_cv_;
  bool stop_ TC_GUARDED_BY(mutex_) = false;
  bool pinned_ = false;
  /// The pool's instruments, registered at construction when observability
  /// is on (null otherwise), so a job's metrics never look anything up.
  obs::Counter* jobs_total_ = nullptr;
  obs::Histogram* job_wall_ms_ = nullptr;
};

/// Compute the `chunk`-th of `chunks` contiguous ranges covering [0, count):
/// sizes differ by at most one row.
[[nodiscard]] IndexRange even_chunk(i32 count, i32 chunks, i32 chunk);

}  // namespace tc::plat
