// triplec-lint: standalone static validation of Triple-C artifacts.
//
// Loads a named example configuration (the flow graph, a predictor trained
// on a short synthetic run, the platform spec, and captured per-task memory
// rows), runs every analysis pass over it, and prints the diagnostics.
//
// Usage: triplec_lint [options] <graph>
//   <graph>              quickstart | stentboost
//   --strict             exit nonzero on warnings too (default: errors only)
//   --permissive         report only; always exit 0
//   --format=FMT         text (default) | csv | json | sarif
//   --frames=N           frames of the synthetic training run (default 60)
//   --size=N             rendered frame side in pixels (default: per graph)
//   --no-train           lint the untrained predictor (scenario/model info
//                        diagnostics instead of trained-model checks)
//   --fix                apply the in-memory repairs (analysis/fixes.hpp)
//                        for the repairable diagnostics -- currently G005
//                        duplicate switches -- then re-run the analyzer;
//                        the exit code reflects the post-fix report
//   --rules              print the rule catalog and exit
//
// Exit status: 0 = clean, 1 = lint errors (or warnings under --strict),
// 2 = usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/fixes.hpp"
#include "analysis/rules.hpp"
#include "app/stentboost.hpp"
#include "runtime/audit_gate.hpp"
#include "tripleC/graph_predictor.hpp"
#include "tripleC/memory_model.hpp"

using namespace tc;

namespace {

struct Options {
  std::string graph;
  bool strict = false;
  bool permissive = false;
  std::string format = "text";
  i32 frames = 60;
  i32 size = 0;  // 0 = per-graph default
  bool train = true;
  bool fix = false;
};

void print_usage() {
  std::fprintf(stderr,
               "usage: triplec_lint [--strict|--permissive] "
               "[--format=text|csv|json|sarif] [--frames=N] [--size=N] "
               "[--no-train] [--fix] [--rules] <quickstart|stentboost>\n");
}

void print_rules() {
  std::printf("%-6s %-7s %s\n", "id", "level", "title");
  for (const analysis::RuleInfo& r : analysis::rule_catalog()) {
    std::printf("%-6s %-7s %s\n", std::string(r.id).c_str(),
                std::string(analysis::to_string(r.severity)).c_str(),
                std::string(r.title).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--rules") {
      print_rules();
      return 0;
    } else if (arg == "--strict") {
      opt.strict = true;
    } else if (arg == "--permissive") {
      opt.permissive = true;
    } else if (arg.rfind("--format=", 0) == 0) {
      opt.format = arg.substr(9);
    } else if (arg.rfind("--frames=", 0) == 0) {
      opt.frames = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--size=", 0) == 0) {
      opt.size = std::atoi(arg.c_str() + 7);
    } else if (arg == "--no-train") {
      opt.train = false;
    } else if (arg == "--fix") {
      opt.fix = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "triplec_lint: unknown option %s\n", arg.c_str());
      print_usage();
      return 2;
    } else if (opt.graph.empty()) {
      opt.graph = arg;
    } else {
      print_usage();
      return 2;
    }
  }
  if (opt.graph != "quickstart" && opt.graph != "stentboost") {
    print_usage();
    return 2;
  }
  if (opt.format != "text" && opt.format != "csv" && opt.format != "json" &&
      opt.format != "sarif") {
    std::fprintf(stderr, "triplec_lint: unknown format %s\n",
                 opt.format.c_str());
    return 2;
  }

  // quickstart = the small demo setup of examples/quickstart.cpp;
  // stentboost = the full-resolution case-study configuration.
  const i32 size = opt.size > 0 ? opt.size : (opt.graph == "quickstart" ? 128
                                                                        : 256);
  app::StentBoostConfig config =
      app::StentBoostConfig::make(size, size, opt.frames, /*seed=*/42);
  app::StentBoostApp app(config);

  model::GraphPredictor predictor(app::kNodeCount, app::kSwitchCount);
  std::vector<model::MemoryRow> memory_rows;
  if (opt.train) {
    std::vector<graph::FrameRecord> records = app.run(opt.frames);
    std::vector<std::vector<graph::FrameRecord>> seqs = {records};
    predictor.train(seqs);
    memory_rows = rt::capture_memory_rows(
        records, 1024.0 * 1024.0 / (static_cast<f64>(size) * size));
    app.reset();
  }

  analysis::PassOptions pass_options;
  pass_options.byte_scale = 1024.0 * 1024.0 / (static_cast<f64>(size) * size);
  analysis::AnalysisInput input;
  input.graph = &app.graph();
  input.predictor = &predictor;
  input.platform = &config.platform;
  input.memory_rows = memory_rows;
  analysis::Report report = analysis::Analyzer(pass_options).run(input);

  analysis::FixSummary fixes;
  if (opt.fix) {
    // Apply the repairable findings and lint again: the exit code (and the
    // printed report) reflect the post-fix state, so a cleanly repaired
    // artifact exits 0 exactly as if it had been healthy from the start.
    if (report.fired(analysis::rules::kDuplicateSwitch)) {
      fixes.merge(analysis::fix_duplicate_switches(app.graph()));
    }
    if (fixes.applied > 0) {
      report = analysis::Analyzer(pass_options).run(input);
    }
  }

  if (opt.format == "csv") {
    std::fputs(report.to_csv().c_str(), stdout);
  } else if (opt.format == "json") {
    std::fputs(report.to_json().c_str(), stdout);
  } else if (opt.format == "sarif") {
    std::fputs(report.to_sarif("triplec-lint").c_str(), stdout);
  } else {
    std::printf("triplec-lint: %s (%dx%d, %d frames, %s)\n", opt.graph.c_str(),
                size, size, opt.frames,
                opt.train ? "trained" : "untrained");
    if (opt.fix) {
      for (const std::string& note : fixes.notes) {
        std::printf("fix: %s\n", note.c_str());
      }
      std::printf("fix: %d applied, %d skipped\n", fixes.applied,
                  fixes.skipped);
    }
    std::fputs(report.to_text().c_str(), stdout);
  }

  if (opt.permissive) return 0;
  if (report.has_errors()) return 1;
  if (opt.strict && report.has_warnings()) return 1;
  return 0;
}
