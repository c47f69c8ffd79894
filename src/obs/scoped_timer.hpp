// Wall-clock timing helper (steady_clock).  Benches, the flight recorder and
// the thread pool all measure host time through this one type instead of
// hand-rolling std::chrono arithmetic.
#pragma once

#include <chrono>

#include "common/types.hpp"

namespace tc::obs {

class ScopedTimer {
 public:
  ScopedTimer() : start_(std::chrono::steady_clock::now()) {}

  /// Elapsed wall-clock time since construction (or the last restart).
  [[nodiscard]] f64 elapsed_us() const {
    return std::chrono::duration<f64, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  [[nodiscard]] f64 elapsed_ms() const { return elapsed_us() / 1000.0; }

  void restart() { start_ = std::chrono::steady_clock::now(); }

  [[nodiscard]] std::chrono::steady_clock::time_point start() const {
    return start_;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace tc::obs
