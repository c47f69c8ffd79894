// Metrics registry: counters, gauges and fixed-bucket histograms with
// percentile extraction, plus the per-frame log the CSV exporter and the
// ASCII dashboard read.
//
// Naming scheme (see DESIGN.md §"Observability"): every metric is prefixed
// `tripleC_`, uses Prometheus base units in the name (`_ms`, `_bytes`,
// `_pct`) and the `_total` suffix for counters; one optional label
// (`task=...`, `scenario=...`, `edge=...`, `component=...`) distinguishes
// series within a family.
//
// Instruments are registered once and never destroyed while the registry
// lives, so hot paths may cache `Counter&`/`Histogram&` references across
// frames; `reset_values()` zeroes values without invalidating references.
// Value updates are lock-free atomics; registration takes a mutex.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.hpp"
#include "common/types.hpp"

namespace tc::obs {

namespace detail {
/// fetch_add for atomic doubles via CAS (portable pre-C++20-library hosts).
inline void atomic_add(std::atomic<f64>& a, f64 v) {
  f64 cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

class Counter {
 public:
  void add(f64 v = 1.0) { detail::atomic_add(value_, v); }
  [[nodiscard]] f64 value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<f64> value_{0.0};
};

class Gauge {
 public:
  void set(f64 v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] f64 value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<f64> value_{0.0};
};

/// Fixed-bucket histogram with Prometheus `le` (less-or-equal) semantics:
/// bucket i counts samples <= bounds[i]; one implicit +Inf bucket catches
/// the rest.  Percentiles interpolate linearly inside the bucket.
class Histogram {
 public:
  /// `bounds` must be strictly ascending and non-empty.
  explicit Histogram(std::vector<f64> bounds);

  void record(f64 v);

  [[nodiscard]] u64 count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] f64 sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] f64 mean() const;
  [[nodiscard]] const std::vector<f64>& bounds() const { return bounds_; }
  /// Cumulative-free per-bucket counts; size() == bounds().size() + 1, the
  /// last entry being the +Inf bucket.
  [[nodiscard]] std::vector<u64> bucket_counts() const;

  /// Linear-interpolated percentile, p in [0, 100]; 0 when empty.  Samples
  /// in the +Inf bucket clamp to the last finite bound.
  [[nodiscard]] f64 percentile(f64 p) const;
  [[nodiscard]] f64 p50() const { return percentile(50.0); }
  [[nodiscard]] f64 p90() const { return percentile(90.0); }
  [[nodiscard]] f64 p99() const { return percentile(99.0); }

  void reset();

 private:
  std::vector<f64> bounds_;
  std::unique_ptr<std::atomic<u64>[]> counts_;  // bounds_.size() + 1
  std::atomic<f64> sum_{0.0};
  std::atomic<u64> count_{0};
};

/// Exponential latency buckets in ms: 0.25, 0.5, ..., 512.
[[nodiscard]] std::vector<f64> latency_buckets_ms();
/// Prediction-error buckets in percent: 1, 2, 5, 10, 15, 20, 30, 50, 100.
[[nodiscard]] std::vector<f64> error_pct_buckets();
/// Small-integer buckets 1..16 (stripe counts, quality levels).
[[nodiscard]] std::vector<f64> small_count_buckets();

enum class MetricType { Counter, Gauge, Histogram };

/// True when `name` matches the Prometheus metric-name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`; registration rejects everything else.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// Escape a label *value* for the Prometheus exposition format: `\` -> `\\`,
/// `"` -> `\"`, newline -> `\n`.
[[nodiscard]] std::string escape_label_value(std::string_view value);

/// Build one `key="value"` label pair with the value escaped — the canonical
/// way to construct the `labels` argument from dynamic strings (node names,
/// stream names) so a hostile value cannot break the exposition format.
[[nodiscard]] std::string label(std::string_view key, std::string_view value);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register-or-fetch: the same (name, labels) pair always returns the same
  /// instrument.  `labels` is the inner Prometheus label list, e.g.
  /// `task="RDG_FULL"` (empty for unlabeled metrics); build dynamic pairs
  /// with obs::label() so values are escaped.  A name that fails
  /// valid_metric_name() throws std::invalid_argument.
  Counter& counter(std::string_view name, std::string_view help,
                   std::string_view labels = "") TC_EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name, std::string_view help,
               std::string_view labels = "") TC_EXCLUDES(mutex_);
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::span<const f64> bounds,
                       std::string_view labels = "") TC_EXCLUDES(mutex_);

  struct Entry {
    std::string name;
    std::string help;
    std::string labels;
    MetricType type = MetricType::Counter;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };

  /// Snapshot of all instruments in registration order (pointers stay valid
  /// for the registry's lifetime).
  [[nodiscard]] std::vector<Entry> entries() const TC_EXCLUDES(mutex_);
  [[nodiscard]] usize size() const TC_EXCLUDES(mutex_);

  /// Zero every value; instruments (and references to them) survive.
  void reset_values() TC_EXCLUDES(mutex_);

 private:
  struct Slot {
    Entry meta;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };
  Slot* find_or_null(std::string_view name, std::string_view labels,
                     MetricType type) TC_REQUIRES(mutex_);

  mutable common::Mutex mutex_;
  std::vector<std::unique_ptr<Slot>> slots_ TC_GUARDED_BY(mutex_);
};

/// One row of the per-frame log (written by the executor on the simulated
/// source, consumed by the CSV exporter and the ASCII dashboard).
struct FrameSample {
  i32 frame = -1;
  u32 scenario = 0;
  i32 quality_level = 0;
  i32 total_stripes = 0;
  f64 predicted_ms = 0.0;
  f64 measured_ms = 0.0;
  f64 output_ms = 0.0;
  f64 budget_ms = 0.0;
  bool fits_budget = false;
  /// 100 * |predicted - measured| / measured (0 when measured ~ 0).
  f64 error_pct = 0.0;
};

class FrameLog {
 public:
  /// Samples kept: the most recent kCapacity (ring semantics), well above
  /// any shipped run, so a long-running process keeps a sliding window
  /// instead of growing forever.
  static constexpr usize kCapacity = 4096;

  void add(FrameSample s) TC_EXCLUDES(mutex_);
  /// Samples in arrival order (oldest surviving sample first).
  [[nodiscard]] std::vector<FrameSample> samples() const TC_EXCLUDES(mutex_);
  [[nodiscard]] usize size() const TC_EXCLUDES(mutex_);
  /// Samples ever added, including those the capacity bound evicted.
  [[nodiscard]] u64 total_added() const TC_EXCLUDES(mutex_);
  void clear() TC_EXCLUDES(mutex_);

 private:
  mutable common::Mutex mutex_;
  std::deque<FrameSample> samples_ TC_GUARDED_BY(mutex_);
  u64 total_added_ TC_GUARDED_BY(mutex_) = 0;
};

}  // namespace tc::obs
