// A pool worker that runs jobs allocates and frees nothing: run_all lends
// the jobs from the caller's vector, the pool's instruments exist before
// its first job, and a flight-recorder ring is a mapping, not a heap block.
// Memory a worker allocates stays in its own allocator arena, so a worker
// that touches the heap once per job grows the process for good.  The
// synthetic camera's bands, which the app runs on the pool, keep that.
//
// This file replaces the global operator new/delete of the test binary
// with counting versions.  The counts are thread-local, so a job reads
// exactly what its worker thread allocated and freed.

#include <array>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.hpp"
#include "imaging/synthetic.hpp"
#include "obs/obs.hpp"
#include "platform/thread_pool.hpp"

namespace {

thread_local tc::u64 tls_allocs = 0;
thread_local tc::u64 tls_frees = 0;

void* counted_alloc(std::size_t n) {
  ++tls_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void counted_free(void* p) {
  if (p != nullptr) ++tls_frees;
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace tc::plat {
namespace {

struct HeapCounts {
  u64 allocs = 0;
  u64 frees = 0;
};

/// Heap operations one worker makes while it runs 1,000 jobs: the counts
/// its first job reads, against those a job of a later batch reads.
HeapCounts worker_heap_use(bool obs_on) {
  obs::set_enabled(obs_on);
  ThreadPool pool(1);
  constexpr i32 kJobs = 1000;
  std::vector<HeapCounts> seen(kJobs + 1);
  pool.parallel_ranges(kJobs, kJobs, [&seen](i32 c, IndexRange) {
    seen[static_cast<usize>(c)] = HeapCounts{tls_allocs, tls_frees};
  });
  std::vector<std::function<void()>> last;
  last.emplace_back([&seen] {
    seen[kJobs] = HeapCounts{tls_allocs, tls_frees};
  });
  pool.run_all(std::move(last));
  obs::set_enabled(false);
  return HeapCounts{seen[kJobs].allocs - seen[0].allocs,
                    seen[kJobs].frees - seen[0].frees};
}

TEST(ThreadPoolHeap, WorkerRunsJobsWithoutTouchingTheHeap) {
  const HeapCounts use = worker_heap_use(/*obs_on=*/false);
  EXPECT_EQ(use.allocs, 0u);
  EXPECT_EQ(use.frees, 0u);
}

TEST(ThreadPoolHeap, ObservedWorkerRunsJobsWithoutTouchingTheHeap) {
  // With obs on, each job records a pool_job event (registering the
  // worker's flight ring on the first) and the pool's job metrics.
  const HeapCounts use = worker_heap_use(/*obs_on=*/true);
  EXPECT_EQ(use.allocs, 0u);
  EXPECT_EQ(use.frees, 0u);
  obs::global().clear();
}

/// A camera whose frame 5 is before the bolus and frame 60 in it, with the
/// markers visible on both (so both stamp the guide wire).
img::AngioSequence camera(i32 size) {
  img::SequenceParams p;
  p.width = size;
  p.height = size;
  img::AngioSequence seq(p);
  EXPECT_EQ(seq.truth(5).contrast_level, 0.0);
  EXPECT_GT(seq.truth(60).contrast_level, 0.0);
  EXPECT_TRUE(seq.truth(5).markers_visible && seq.truth(60).markers_visible);
  return seq;
}

TEST(RenderHeap, BandsOnPoolWorkersAllocateNothing) {
  // Every band of every frame, from a fresh pool's first job on: a band
  // keeps its row scratch on its stack.
  for (const bool obs_on : {false, true}) {
    for (const i32 size : {256, 1024}) {
      obs::set_enabled(obs_on);
      const img::AngioSequence seq = camera(size);
      ThreadPool pool(4);
      constexpr i32 kBands = 4;
      std::array<HeapCounts, kBands> used{};
      const img::RowBandRunner runner =
          [&](i32 rows, const std::function<void(IndexRange)>& body) {
            pool.parallel_ranges(rows, kBands, [&](i32 c, IndexRange band) {
              const HeapCounts before{tls_allocs, tls_frees};
              body(band);
              HeapCounts& u = used[static_cast<usize>(c)];
              u.allocs += tls_allocs - before.allocs;
              u.frees += tls_frees - before.frees;
            });
          };
      for (const i32 t : {5, 60, 61}) (void)seq.render(t, runner);
      obs::set_enabled(false);
      for (i32 c = 0; c < kBands; ++c) {
        EXPECT_EQ(used[static_cast<usize>(c)].allocs, 0u)
            << size << "² band " << c << (obs_on ? " obs on" : "");
        EXPECT_EQ(used[static_cast<usize>(c)].frees, 0u)
            << size << "² band " << c << (obs_on ? " obs on" : "");
      }
    }
  }
  obs::global().clear();
}

TEST(RenderHeap, CallingThreadAllocatesAsOftenBeforeTheBolusAsInIt) {
  // The stamp lists are sized before they are filled, so a frame with the
  // vessel tree allocates no more often than one with the guide wire only.
  for (const i32 size : {256, 1024}) {
    const img::AngioSequence seq = camera(size);
    std::array<HeapCounts, 2> used{};
    for (usize i = 0; i < used.size(); ++i) {
      const HeapCounts before{tls_allocs, tls_frees};
      const img::ImageU16 frame = seq.render(i == 0 ? 5 : 60);
      used[i] =
          HeapCounts{tls_allocs - before.allocs, tls_frees - before.frees};
    }
    EXPECT_EQ(used[0].allocs, used[1].allocs) << size << "²";
    EXPECT_EQ(used[0].frees, used[1].frees) << size << "²";
  }
}

}  // namespace
}  // namespace tc::plat
