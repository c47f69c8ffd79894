// Warm-start registry: trained predictors shared across streams.
//
// Admission must price a stream before it runs.  Without history that takes
// a serial probe of a throwaway application copy — real frames, paid at
// every submit, even when an identical stream (same resolution, same
// pipeline switches) just retired.  The registry removes that cost:
// StreamServer publishes a PredictorSnapshot when a stream retires, keyed by
// its *scenario class* (the configuration facets that determine
// computation-time statistics), and prices newly submitted same-class
// streams from the best snapshot with no execution.  The admitted stream's
// loop still learns its own predictor from frame 0.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "app/stentboost.hpp"
#include "common/sync.hpp"
#include "exec/executor.hpp"

namespace tc::serve {

/// Thread-safe snapshot store, keyed by scenario-class string.
class PredictorRegistry {
 public:
  /// Scenario class of an application config: the facets that shape the
  /// computation-time distribution (frame geometry, granularity lock, ROI
  /// override).  Streams of one class are statistically interchangeable.
  [[nodiscard]] static std::string class_key(
      const app::StentBoostConfig& config);

  /// Publish a snapshot for `klass`.  Kept only when it is trained on at
  /// least as many frames as the stored one (better-trained wins; ties go
  /// to the newcomer, whose statistics are fresher).
  void publish(const std::string& klass, exec::PredictorSnapshot snapshot)
      TC_EXCLUDES(mutex_);

  /// Best snapshot of `klass`, or nullopt (then the stream cold-starts).
  [[nodiscard]] std::optional<exec::PredictorSnapshot> lookup(
      const std::string& klass) const TC_EXCLUDES(mutex_);

  [[nodiscard]] usize size() const TC_EXCLUDES(mutex_);
  [[nodiscard]] u64 publishes() const TC_EXCLUDES(mutex_);
  [[nodiscard]] u64 hits() const TC_EXCLUDES(mutex_);
  [[nodiscard]] u64 misses() const TC_EXCLUDES(mutex_);

 private:
  mutable common::Mutex mutex_;
  std::vector<std::pair<std::string, exec::PredictorSnapshot>> snapshots_
      TC_GUARDED_BY(mutex_);
  u64 publishes_ TC_GUARDED_BY(mutex_) = 0;
  mutable u64 hits_ TC_GUARDED_BY(mutex_) = 0;
  mutable u64 misses_ TC_GUARDED_BY(mutex_) = 0;
};

}  // namespace tc::serve
