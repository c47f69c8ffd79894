// triplec-lint analyzer: composes the validation passes over everything the
// control loop is about to trust — the flow graph, the graph predictor
// (per-task models + scenario table), the platform spec, and optional
// memory rows — *before* any frame executes.
//
// Policy knob:
//   Strict     — enforce() throws AnalysisError when the report has errors
//                (fail-fast startup);
//   Permissive — enforce() never throws; callers read the report and decide.
// Warnings never throw under either policy; they describe conditions the
// runtime handles (eviction traffic, unseen scenarios).
#pragma once

#include <span>
#include <stdexcept>

#include "analysis/passes.hpp"

namespace tc::analysis {

enum class Policy { Permissive, Strict };

[[nodiscard]] std::string_view to_string(Policy p);

/// Everything the analyzer may look at.  Null members skip their passes, so
/// the same entry point serves the executor (graph + predictor + platform at
/// startup) and the CLI (additionally memory rows captured from a run).
struct AnalysisInput {
  const graph::FlowGraph* graph = nullptr;
  const model::GraphPredictor* predictor = nullptr;
  const plat::PlatformSpec* platform = nullptr;
  std::span<const model::MemoryRow> memory_rows;
};

/// Thrown by enforce() under Policy::Strict; carries the full report text.
class AnalysisError : public std::runtime_error {
 public:
  explicit AnalysisError(const Report& report);
  [[nodiscard]] const Report& report() const { return report_; }

 private:
  Report report_;
};

class Analyzer {
 public:
  explicit Analyzer(PassOptions options = {}) : options_(options) {}

  [[nodiscard]] const PassOptions& options() const { return options_; }

  /// Run every applicable pass and return the combined report.
  [[nodiscard]] Report run(const AnalysisInput& input) const;

 private:
  PassOptions options_;
};

/// Apply the policy to a finished report: Strict + errors -> AnalysisError.
void enforce(const Report& report, Policy policy);

}  // namespace tc::analysis
