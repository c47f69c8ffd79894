// Fixed-size, allocation-free span buffer for the traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// program's layers.  All storage is allocated once at construction; a span
// that does not fit is dropped and counted, never grown into.  Span names
// must be string literals (the buffer stores the pointer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "open_loop.hpp"

namespace tcbench {

struct Span {
  const char* name = nullptr;
  double start_us = 0.0;
  double end_us = 0.0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at the root
  std::int32_t frame = -1;   ///< frame (or round) the span belongs to
};

class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity)
      : capacity_(capacity), spans_(new Span[capacity]), t0_(Clock::now()) {}

  /// Open a span; returns its id, or -1 when the buffer is full (the span
  /// is dropped and counted).  Not thread-safe: record from one thread.
  std::int32_t begin(const char* name, std::int32_t frame,
                     std::int32_t parent = -1) {
    if (size_ == capacity_) {
      ++dropped_;
      return -1;
    }
    Span& s = spans_[size_];
    s.name = name;
    s.frame = frame;
    s.parent = parent;
    s.start_us = now_us();
    s.end_us = s.start_us;
    return static_cast<std::int32_t>(size_++);
  }

  void end(std::int32_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = now_us();
  }

  /// Record an already finished span (timed on another thread and handed
  /// over after that thread was joined).
  std::int32_t record(const char* name, Clock::time_point start,
                      Clock::time_point end, std::int32_t frame,
                      std::int32_t parent = -1) {
    const std::int32_t id = begin(name, frame, parent);
    if (id >= 0) {
      Span& s = spans_[static_cast<std::size_t>(id)];
      s.start_us = us_since_start(start);
      s.end_us = us_since_start(end);
    }
    return id;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] const Span& at(std::size_t i) const { return spans_[i]; }
  [[nodiscard]] const Span* data() const { return spans_.get(); }

  /// Chrome trace-event JSON ("X" complete events, one thread).
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  [[nodiscard]] double us_since_start(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  }
  [[nodiscard]] double now_us() const { return us_since_start(Clock::now()); }

  std::size_t capacity_;
  std::unique_ptr<Span[]> spans_;
  std::size_t size_ = 0;
  std::size_t dropped_ = 0;
  Clock::time_point t0_;
};

/// RAII span on an optional buffer (null = tracing off, records nothing).
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, std::int32_t frame,
             std::int32_t parent = -1)
      : buf_(buf), id_(buf != nullptr ? buf->begin(name, frame, parent) : -1) {}
  ~ScopedSpan() {
    if (buf_ != nullptr) buf_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  SpanBuffer* buf_;
  std::int32_t id_;
};

}  // namespace tcbench
