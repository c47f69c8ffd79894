#include "platform/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#if defined(__linux__)
#include <sched.h>
#endif

#include <gtest/gtest.h>

namespace tc::plat {
namespace {

TEST(EvenChunk, CoversRangeWithoutOverlap) {
  for (i32 count : {1, 7, 48, 100}) {
    for (i32 chunks : {1, 2, 3, 5, 8}) {
      i32 covered = 0;
      i32 expected_lo = 0;
      for (i32 c = 0; c < chunks; ++c) {
        IndexRange r = even_chunk(count, chunks, c);
        EXPECT_EQ(r.lo, expected_lo);
        covered += r.length();
        expected_lo = r.hi;
      }
      EXPECT_EQ(covered, count) << count << "/" << chunks;
    }
  }
}

TEST(EvenChunk, SizesDifferByAtMostOne) {
  for (i32 c = 0; c < 7; ++c) {
    IndexRange r = even_chunk(47, 7, c);
    EXPECT_GE(r.length(), 6);
    EXPECT_LE(r.length(), 7);
  }
}

TEST(EvenChunk, MoreChunksThanItems) {
  i32 nonempty = 0;
  for (i32 c = 0; c < 8; ++c) {
    if (!even_chunk(3, 8, c).empty()) ++nonempty;
  }
  EXPECT_EQ(nonempty, 3);
}

TEST(EvenChunk, ZeroCountGivesEmptyRanges) {
  for (i32 chunks : {1, 3, 8}) {
    for (i32 c = 0; c < chunks; ++c) {
      IndexRange r = even_chunk(0, chunks, c);
      EXPECT_TRUE(r.empty()) << chunks << "/" << c;
      EXPECT_EQ(r.lo, 0);
    }
  }
}

TEST(EvenChunk, SingleChunkIsWholeRange) {
  IndexRange r = even_chunk(123, 1, 0);
  EXPECT_EQ(r.lo, 0);
  EXPECT_EQ(r.hi, 123);
}

TEST(EvenChunk, NonPositiveChunksFallBackToWholeRange) {
  for (i32 chunks : {0, -1}) {
    IndexRange r = even_chunk(55, chunks, 0);
    EXPECT_EQ(r.lo, 0);
    EXPECT_EQ(r.hi, 55);
  }
}

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool pool(4);
  std::atomic<i32> counter{0};
  std::vector<std::function<void()>> jobs;
  for (i32 i = 0; i < 100; ++i) {
    jobs.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.run_all(std::move(jobs));
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, RunAllBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<i32> done{0};
  std::vector<std::function<void()>> jobs;
  for (i32 i = 0; i < 10; ++i) {
    jobs.push_back([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    });
  }
  pool.run_all(std::move(jobs));
  EXPECT_EQ(done.load(), 10);  // visible immediately after return
}

TEST(ThreadPool, EmptyJobListIsNoop) {
  ThreadPool pool(2);
  pool.run_all({});  // must not hang
  SUCCEED();
}

TEST(ThreadPool, EmptyJobListBetweenBatchesKeepsPoolUsable) {
  ThreadPool pool(2);
  std::atomic<i32> counter{0};
  pool.run_all({});
  std::vector<std::function<void()>> jobs;
  for (i32 i = 0; i < 8; ++i) {
    jobs.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.run_all(std::move(jobs));
  pool.run_all({});
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, ParallelRangesZeroCountRunsNothing) {
  ThreadPool pool(2);
  std::atomic<i32> calls{0};
  pool.parallel_ranges(0, 4, [&](i32, IndexRange) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<i32> counter{0};
  for (i32 batch = 0; batch < 5; ++batch) {
    std::vector<std::function<void()>> jobs;
    for (i32 i = 0; i < 20; ++i) {
      jobs.push_back([&counter] { counter.fetch_add(1); });
    }
    pool.run_all(std::move(jobs));
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelRangesCoverEverything) {
  ThreadPool pool(4);
  std::vector<i32> hits(97, 0);
  std::mutex m;
  pool.parallel_ranges(97, 5, [&](i32 chunk, IndexRange r) {
    (void)chunk;
    std::lock_guard<std::mutex> lock(m);
    for (i32 i = r.lo; i < r.hi; ++i) ++hits[static_cast<usize>(i)];
  });
  for (i32 h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelRangesPassesChunkIndex) {
  ThreadPool pool(2);
  std::vector<i32> seen(4, -1);
  std::mutex m;
  pool.parallel_ranges(40, 4, [&](i32 chunk, IndexRange r) {
    std::lock_guard<std::mutex> lock(m);
    seen[static_cast<usize>(chunk)] = r.lo;
  });
  EXPECT_EQ(seen[0], 0);
  EXPECT_EQ(seen[1], 10);
  EXPECT_EQ(seen[2], 20);
  EXPECT_EQ(seen[3], 30);
}

TEST(ThreadPool, DefaultThreadCountAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, DefaultThreadCountFollowsTheAffinityMask) {
  ThreadPool pool;
  EXPECT_EQ(pool.thread_count(), static_cast<usize>(affinity_cores()));
}

TEST(ThreadPool, BatchWaitsOnlyForItsOwnJobs) {
  // A 1 ms batch submitted while another caller's 200 ms job occupies one
  // of two workers must not wait for that job.
  using namespace std::chrono_literals;
  ThreadPool pool(2);
  std::atomic<bool> long_job_running{false};
  std::thread other([&] {
    pool.run_all({[&] {
      long_job_running = true;
      std::this_thread::sleep_for(200ms);
    }});
  });
  while (!long_job_running) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  pool.run_all({[] { std::this_thread::sleep_for(1ms); }});
  const auto waited = std::chrono::steady_clock::now() - start;
  other.join();
  EXPECT_LT(waited, 50ms);
}

TEST(ThreadPool, NestedRunAllFromAJobCompletes) {
  // Every worker fans out again from inside a job; the nested batches run
  // inline instead of waiting for the (busy) workers.
  ThreadPool pool(2);
  std::atomic<i32> inner{0};
  std::vector<std::function<void()>> jobs;
  for (i32 j = 0; j < 4; ++j) {
    jobs.emplace_back([&] {
      pool.parallel_ranges(8, 4, [&](i32, IndexRange r) {
        inner.fetch_add(r.hi - r.lo);
      });
    });
  }
  pool.run_all(std::move(jobs));
  EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPool, ParallelRangesCapsConcurrencyKeepingChunks) {
  ThreadPool pool(4);
  for (const i32 cap : {1, 2, 3}) {
    std::atomic<i32> active{0};
    std::atomic<i32> peak{0};
    std::vector<i32> seen(8, 0);
    std::vector<IndexRange> ranges(8);
    pool.parallel_ranges(
        100, 8,
        [&](i32 chunk, IndexRange r) {
          const i32 now = active.fetch_add(1) + 1;
          i32 prev = peak.load();
          while (now > prev && !peak.compare_exchange_weak(prev, now)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(3));
          seen[static_cast<usize>(chunk)] += 1;
          ranges[static_cast<usize>(chunk)] = r;
          active.fetch_sub(1);
        },
        cap);
    EXPECT_LE(peak.load(), cap) << "cap " << cap;
    for (i32 c = 0; c < 8; ++c) {
      EXPECT_EQ(seen[static_cast<usize>(c)], 1) << "chunk " << c;
      EXPECT_EQ(ranges[static_cast<usize>(c)].lo, even_chunk(100, 8, c).lo);
      EXPECT_EQ(ranges[static_cast<usize>(c)].hi, even_chunk(100, 8, c).hi);
    }
  }
}

TEST(ThreadPool, UnpinnedPoolReportsNotPinned) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.pinned());
}

TEST(ThreadPool, PinnedPoolStillExecutesCorrectly) {
  // Pinning is a placement hint: on Linux pinned() turns true, elsewhere the
  // request degrades to a no-op — either way the pool must work identically.
  ThreadPool pool(2, /*pin_threads=*/true);
#if defined(__linux__)
  EXPECT_TRUE(pool.pinned());
#else
  EXPECT_FALSE(pool.pinned());
#endif
  std::atomic<i64> sum{0};
  pool.parallel_ranges(1000, 4, [&](i32, IndexRange r) {
    i64 local = 0;
    for (i32 i = r.lo; i < r.hi; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 499500);
}

#if defined(__linux__)
TEST(ThreadPool, PinnedWorkersRunOnTheirAssignedCores) {
  // Worker i is pinned to the (i mod n)-th of the n cores in the mask.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  std::vector<i32> allowed;
  for (i32 cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) allowed.push_back(cpu);
  }
  const usize cores = allowed.size();
  ThreadPool pool(2, /*pin_threads=*/true);
  ASSERT_TRUE(pool.pinned());
  std::vector<i32> cpu_of_job;
  std::mutex m;
  std::vector<std::function<void()>> jobs;
  for (i32 j = 0; j < 16; ++j) {
    jobs.emplace_back([&] {
      const i32 cpu = sched_getcpu();
      std::lock_guard<std::mutex> lock(m);
      cpu_of_job.push_back(cpu);
    });
  }
  pool.run_all(std::move(jobs));
  // With 2 workers every job must observe one of the mask's first two
  // cores (the same one twice on a 1-core mask).
  for (const i32 cpu : cpu_of_job) {
    ASSERT_GE(cpu, 0);
    EXPECT_TRUE(cpu == allowed[0 % cores] || cpu == allowed[1 % cores])
        << "job ran on cpu " << cpu;
  }
}
#endif

TEST(ThreadPool, SingleThreadPoolStillCorrect) {
  ThreadPool pool(1);
  std::atomic<i64> sum{0};
  pool.parallel_ranges(1000, 8, [&](i32, IndexRange r) {
    i64 local = 0;
    for (i32 i = r.lo; i < r.hi; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 499500);
}

}  // namespace
}  // namespace tc::plat
