#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace tc::obs {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  auto tail = [&head](char c) { return head(c) || (c >= '0' && c <= '9'); };
  if (!head(name.front())) return false;
  for (usize i = 1; i < name.size(); ++i) {
    if (!tail(name[i])) return false;
  }
  return true;
}

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
        break;
    }
  }
  return out;
}

std::string label(std::string_view key, std::string_view value) {
  std::string out(key);
  out += "=\"";
  out += escape_label_value(value);
  out += "\"";
  return out;
}

namespace {

void require_valid_name(std::string_view name) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: " + std::string(name));
  }
}

}  // namespace

Histogram::Histogram(std::vector<f64> bounds) : bounds_(std::move(bounds)) {
  assert(!bounds_.empty());
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  counts_ = std::make_unique<std::atomic<u64>[]>(bounds_.size() + 1);
  for (usize i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::record(f64 v) {
  usize idx = static_cast<usize>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
  count_.fetch_add(1, std::memory_order_relaxed);
}

f64 Histogram::mean() const {
  u64 n = count();
  return n == 0 ? 0.0 : sum() / static_cast<f64>(n);
}

std::vector<u64> Histogram::bucket_counts() const {
  std::vector<u64> out(bounds_.size() + 1);
  for (usize i = 0; i <= bounds_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

f64 Histogram::percentile(f64 p) const {
  const std::vector<u64> counts = bucket_counts();
  u64 total = 0;
  for (u64 c : counts) total += c;
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const f64 rank = p / 100.0 * static_cast<f64>(total);
  u64 cumulative = 0;
  for (usize i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const f64 before = static_cast<f64>(cumulative);
    cumulative += counts[i];
    if (static_cast<f64>(cumulative) >= rank) {
      if (i == bounds_.size()) return bounds_.back();  // +Inf bucket: clamp.
      const f64 lo = i == 0 ? 0.0 : bounds_[i - 1];
      const f64 hi = bounds_[i];
      const f64 frac =
          std::clamp((rank - before) / static_cast<f64>(counts[i]), 0.0, 1.0);
      return lo + (hi - lo) * frac;
    }
  }
  return bounds_.back();
}

void Histogram::reset() {
  for (usize i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

std::vector<f64> latency_buckets_ms() {
  std::vector<f64> b;
  for (f64 v = 0.25; v <= 512.0; v *= 2.0) b.push_back(v);
  return b;
}

std::vector<f64> error_pct_buckets() {
  return {1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0, 100.0};
}

std::vector<f64> small_count_buckets() {
  std::vector<f64> b;
  for (f64 v = 1.0; v <= 16.0; v += 1.0) b.push_back(v);
  return b;
}

MetricsRegistry::Slot* MetricsRegistry::find_or_null(std::string_view name,
                                                     std::string_view labels,
                                                     MetricType type) {
  for (auto& slot : slots_) {
    if (slot->meta.name == name && slot->meta.labels == labels) {
      assert(slot->meta.type == type);
      (void)type;
      return slot.get();
    }
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  std::string_view labels) {
  require_valid_name(name);
  common::MutexLock lock(mutex_);
  if (Slot* s = find_or_null(name, labels, MetricType::Counter)) {
    return *s->c;
  }
  auto slot = std::make_unique<Slot>();
  slot->meta = Entry{std::string(name), std::string(help), std::string(labels),
                     MetricType::Counter, nullptr, nullptr, nullptr};
  slot->c = std::make_unique<Counter>();
  slot->meta.counter = slot->c.get();
  Counter& ref = *slot->c;
  slots_.push_back(std::move(slot));
  return ref;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              std::string_view labels) {
  require_valid_name(name);
  common::MutexLock lock(mutex_);
  if (Slot* s = find_or_null(name, labels, MetricType::Gauge)) {
    return *s->g;
  }
  auto slot = std::make_unique<Slot>();
  slot->meta = Entry{std::string(name), std::string(help), std::string(labels),
                     MetricType::Gauge, nullptr, nullptr, nullptr};
  slot->g = std::make_unique<Gauge>();
  slot->meta.gauge = slot->g.get();
  Gauge& ref = *slot->g;
  slots_.push_back(std::move(slot));
  return ref;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help,
                                      std::span<const f64> bounds,
                                      std::string_view labels) {
  require_valid_name(name);
  common::MutexLock lock(mutex_);
  if (Slot* s = find_or_null(name, labels, MetricType::Histogram)) {
    return *s->h;
  }
  auto slot = std::make_unique<Slot>();
  slot->meta = Entry{std::string(name), std::string(help), std::string(labels),
                     MetricType::Histogram, nullptr, nullptr, nullptr};
  slot->h = std::make_unique<Histogram>(
      std::vector<f64>(bounds.begin(), bounds.end()));
  slot->meta.histogram = slot->h.get();
  Histogram& ref = *slot->h;
  slots_.push_back(std::move(slot));
  return ref;
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::entries() const {
  common::MutexLock lock(mutex_);
  std::vector<Entry> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) out.push_back(slot->meta);
  return out;
}

usize MetricsRegistry::size() const {
  common::MutexLock lock(mutex_);
  return slots_.size();
}

void MetricsRegistry::reset_values() {
  common::MutexLock lock(mutex_);
  for (auto& slot : slots_) {
    if (slot->c) slot->c->reset();
    if (slot->g) slot->g->reset();
    if (slot->h) slot->h->reset();
  }
}

void FrameLog::add(FrameSample s) {
  common::MutexLock lock(mutex_);
  samples_.push_back(s);
  ++total_added_;
  if (samples_.size() > kCapacity) samples_.pop_front();
}

std::vector<FrameSample> FrameLog::samples() const {
  common::MutexLock lock(mutex_);
  return {samples_.begin(), samples_.end()};
}

usize FrameLog::size() const {
  common::MutexLock lock(mutex_);
  return samples_.size();
}

u64 FrameLog::total_added() const {
  common::MutexLock lock(mutex_);
  return total_added_;
}

void FrameLog::clear() {
  common::MutexLock lock(mutex_);
  samples_.clear();
}

}  // namespace tc::obs
