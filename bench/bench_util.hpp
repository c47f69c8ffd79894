// Shared helpers for the experiment benches: small formatting utilities
// (the Table 2(b) predictor kinds live in tripleC/paper_kinds.hpp).
#pragma once

#include <cstdio>
#include <string>

#include "app/stentboost.hpp"
#include "obs/scoped_timer.hpp"
#include "tripleC/paper_kinds.hpp"

namespace tc::bench {

/// Prints "[wall] <label>: X ms" when the scope ends.  Benches time their
/// sections through this (obs::ScopedTimer underneath) instead of
/// hand-rolling std::chrono arithmetic.
class ScopedWallReport {
 public:
  explicit ScopedWallReport(const char* label) : label_(label) {}
  ~ScopedWallReport() {
    std::printf("[wall] %s: %.1f ms\n", label_, timer_.elapsed_ms());
  }
  ScopedWallReport(const ScopedWallReport&) = delete;
  ScopedWallReport& operator=(const ScopedWallReport&) = delete;

 private:
  const char* label_;
  obs::ScopedTimer timer_;
};

inline void print_header(const char* experiment, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n\n");
}

}  // namespace tc::bench
