// Per-frame deadline quality-of-service policy of the executor.
//
// The paper's runtime manager keeps the *output* latency constant; the
// executor enforces the same contract with a per-frame deadline.  What
// happens to a late frame is configurable:
//
//   Run      — finish it anyway (deadline misses are only counted);
//   Drop     — discard it: the executor removes the frame from the display
//              stream (a late fluoroscopy frame is worthless — the next one
//              is already more current);
//   Degrade  — keep the frame but lower the application quality (the QoS
//              ladder of runtime/qos) until the deadline fits again.
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace tc::exec {

enum class DeadlinePolicy { Run, Drop, Degrade };

[[nodiscard]] constexpr std::string_view to_string(DeadlinePolicy p) {
  switch (p) {
    case DeadlinePolicy::Run:
      return "run";
    case DeadlinePolicy::Drop:
      return "drop";
    case DeadlinePolicy::Degrade:
      return "degrade";
  }
  return "?";
}

}  // namespace tc::exec
