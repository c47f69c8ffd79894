// Set-associative LRU cache simulator: the test oracle of the buffer model.
//
// The Triple-C bandwidth analysis uses the *analytical* space-time
// buffer-occupation model (platform/buffer_model.hpp); this simulator
// provides an independent reference: replaying a task's access trace
// through it yields the actual miss traffic, which the tests compare
// against the analytical prediction.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace tc::plat {

struct CacheConfig {
  u64 capacity_bytes = 4 * MiB;
  u64 line_bytes = 64;
  u32 associativity = 8;
};

struct CacheStats {
  u64 accesses = 0;
  u64 hits = 0;
  u64 misses = 0;
  /// Lines written back because they were dirty when evicted.
  u64 writebacks = 0;

  [[nodiscard]] f64 miss_rate() const {
    return accesses == 0 ? 0.0
                         : static_cast<f64>(misses) / static_cast<f64>(accesses);
  }
  /// Total cache<->memory traffic: misses fetch a line, dirty evictions
  /// write one back.
  [[nodiscard]] u64 traffic_bytes(u64 line_bytes) const {
    return (misses + writebacks) * line_bytes;
  }
};

class CacheSim {
 public:
  explicit CacheSim(CacheConfig config);

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] u64 set_count() const { return sets_; }

  /// Access one byte address (the whole line is fetched on a miss).
  void read(u64 address);
  void write(u64 address);

  /// Touch a contiguous byte range.
  void read_range(u64 address, u64 bytes);
  void write_range(u64 address, u64 bytes);

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  /// Flush all lines (dirty lines count as writebacks).
  void flush();

 private:
  struct Line {
    u64 tag = ~0ull;
    u64 lru = 0;  // larger = more recently used
    bool valid = false;
    bool dirty = false;
  };

  void access(u64 address, bool is_write);

  CacheConfig config_;
  u64 sets_;
  u64 tick_ = 0;
  std::vector<Line> lines_;  // sets_ x associativity, row-major
  CacheStats stats_;
};

}  // namespace tc::plat
