#include "cache_sim.hpp"

#include <cassert>

#include "obs/obs.hpp"

namespace tc::plat {

CacheSim::CacheSim(CacheConfig config) : config_(config) {
  assert(config_.line_bytes > 0 && config_.associativity > 0);
  sets_ = config_.capacity_bytes /
          (config_.line_bytes * config_.associativity);
  if (sets_ == 0) sets_ = 1;
  lines_.assign(sets_ * config_.associativity, Line{});
}

void CacheSim::access(u64 address, bool is_write) {
  ++stats_.accesses;
  ++tick_;
  const u64 line_addr = address / config_.line_bytes;
  const u64 set = line_addr % sets_;
  const u64 tag = line_addr / sets_;
  Line* base = &lines_[set * config_.associativity];

  // Hit?
  for (u32 w = 0; w < config_.associativity; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      ++stats_.hits;
      line.lru = tick_;
      if (is_write) line.dirty = true;
      return;
    }
  }

  // Miss: fill an invalid way if one exists, otherwise evict the LRU way.
  ++stats_.misses;
  Line* victim = nullptr;
  for (u32 w = 0; w < config_.associativity; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (victim == nullptr || base[w].lru < victim->lru) victim = &base[w];
  }
  if (victim->valid && victim->dirty) {
    ++stats_.writebacks;
    if (obs::enabled()) {
      // Registered once; the reference stays valid for the process lifetime.
      static obs::Counter& evicted = obs::global().metrics.counter(
          "tripleC_cache_eviction_bytes_total",
          "Bytes written back by the cache simulator on dirty evictions");
      evicted.add(static_cast<f64>(config_.line_bytes));
    }
  }
  victim->valid = true;
  victim->tag = tag;
  victim->lru = tick_;
  victim->dirty = is_write;
}

void CacheSim::read(u64 address) { access(address, false); }
void CacheSim::write(u64 address) { access(address, true); }

void CacheSim::read_range(u64 address, u64 bytes) {
  const u64 first = address / config_.line_bytes;
  const u64 last = (address + (bytes == 0 ? 0 : bytes - 1)) / config_.line_bytes;
  for (u64 line = first; line <= last && bytes > 0; ++line) {
    read(line * config_.line_bytes);
  }
}

void CacheSim::write_range(u64 address, u64 bytes) {
  const u64 first = address / config_.line_bytes;
  const u64 last = (address + (bytes == 0 ? 0 : bytes - 1)) / config_.line_bytes;
  for (u64 line = first; line <= last && bytes > 0; ++line) {
    write(line * config_.line_bytes);
  }
}

void CacheSim::flush() {
  for (Line& line : lines_) {
    if (line.valid && line.dirty) ++stats_.writebacks;
    line = Line{};
  }
}

}  // namespace tc::plat
