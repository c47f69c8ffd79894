// triplec_postmortem — render Triple-C post-mortem bundles.
//
// A bundle is the JSON document obs::PostmortemWriter drops on a deadline
// miss / SLO breach (see DESIGN.md §5e).  This tool makes it human- and
// tool-readable again:
//
//   triplec_postmortem <bundle.json>              pretty-print the bundle
//   triplec_postmortem <bundle.json> --events N   also list the last N events
//   triplec_postmortem <bundle.json> --chrome out.json
//                                  write the embedded flight events as a
//                                  Chrome trace (chrome://tracing,
//                                  Perfetto) with the same writer the
//                                  running process uses (obs/chrome_trace).
//
// Exit codes: 0 ok, 1 usage, 2 unreadable/invalid bundle.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"
#include "obs/chrome_trace.hpp"

namespace {

using tc::common::JsonValue;
using tc::f64;
using tc::i32;
using tc::i64;
using tc::usize;

struct Options {
  std::string bundle_path;
  std::string chrome_path;
  i64 show_events = 12;
};

int usage() {
  std::fprintf(stderr,
               "usage: triplec_postmortem <bundle.json> [--events N] "
               "[--chrome out.json]\n");
  return 1;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The bundle stores each event's type as its name ("frame_start", ...),
/// mirroring obs::to_string(FrEventType).
std::string event_name(const JsonValue& event) {
  return event.string_or("type", "unknown");
}

void print_header(const JsonValue& root) {
  std::printf("Triple-C post-mortem  (%s)\n",
              root.string_or("format", "?").c_str());
  std::printf("  reason        : %s\n", root.string_or("reason", "?").c_str());
  std::printf("  frame         : %" PRId64 "\n",
              static_cast<i64>(root.number_or("frame", -1)));
  std::printf("  deadline      : %.3f ms\n", root.number_or("deadline_ms", 0));
  std::printf("  predicted     : %.3f ms\n", root.number_or("predicted_ms", 0));
  std::printf("  measured      : %.3f ms\n", root.number_or("measured_ms", 0));
  std::printf("  plan          : %s\n", root.string_or("plan", "?").c_str());
  std::printf("  quality level : %" PRId64 "\n",
              static_cast<i64>(root.number_or("quality_level", 0)));
  std::printf("  scenario      : %" PRId64 "\n",
              static_cast<i64>(root.number_or("scenario", 0)));
}

/// Free-form context the executor attached (policy, workers, and — for SLO
/// breaches — the triggering objective plus its window aggregates).
void print_extra(const JsonValue& root) {
  const JsonValue* extra = root.find("extra");
  if (extra == nullptr || extra->type() != JsonValue::Type::Object ||
      extra->members().empty()) {
    return;
  }
  std::printf("\nContext\n");
  for (const auto& [key, v] : extra->members()) {
    std::printf("  %-22s : %s\n", key.c_str(),
                v.type() == JsonValue::Type::String ? v.as_string().c_str()
                                                    : "?");
  }
}

void print_predictors(const JsonValue& root) {
  const JsonValue* p = root.find("predictors");
  if (p == nullptr || p->type() != JsonValue::Type::Object) return;
  std::printf("\nPredictor state\n");
  if (const JsonValue* drift = p->find("drift_errors_pct");
      drift != nullptr && drift->type() == JsonValue::Type::Object) {
    for (const auto& [name, v] : drift->members()) {
      std::printf("  drift %-20s : %6.2f %% smoothed error\n", name.c_str(),
                  v.as_f64());
    }
  }
  if (const JsonValue* nodes = p->find("nodes");
      nodes != nullptr && nodes->type() == JsonValue::Type::Array) {
    std::printf("  node forecast (serial-equivalent ms):\n");
    for (usize i = 0; i < nodes->size(); ++i) {
      const JsonValue& n = nodes->at(i);
      std::printf("    %-10s %8.3f ms %s\n",
                  n.string_or("name", "?").c_str(),
                  n.number_or("predicted_ms", 0),
                  n.find("active") != nullptr && n.find("active")->as_bool()
                      ? ""
                      : "(inactive)");
    }
  }
}

void print_events(const JsonValue& root, i64 limit) {
  const JsonValue* events = root.find("events");
  if (events == nullptr || events->type() != JsonValue::Type::Array) return;
  const i64 total = static_cast<i64>(events->size());
  const i64 from = limit > 0 && total > limit ? total - limit : 0;
  std::printf("\nFlight events (%" PRId64 " of %" PRId64 ", newest last)\n",
              total - from, total);
  for (i64 i = from; i < total; ++i) {
    const JsonValue& e = events->at(static_cast<usize>(i));
    std::printf("  %12.3f us  t%-2" PRId64 " %-16s frame=%-5" PRId64
                " node=%-3" PRId64 " a=%-10.4g b=%.4g\n",
                e.number_or("ts_us", 0),
                static_cast<i64>(e.number_or("tid", 0)),
                event_name(e).c_str(),
                static_cast<i64>(e.number_or("frame", -1)),
                static_cast<i64>(e.number_or("node", -1)),
                e.number_or("a", 0), e.number_or("b", 0));
  }
}

void print_metrics(const JsonValue& root) {
  const JsonValue* metrics = root.find("metrics");
  if (metrics == nullptr || metrics->type() != JsonValue::Type::Array) return;
  std::printf("\nMetrics snapshot (%zu series)\n", metrics->size());
  for (usize i = 0; i < metrics->size(); ++i) {
    const JsonValue& m = metrics->at(i);
    const std::string labels = m.string_or("labels", "");
    const std::string name =
        m.string_or("name", "?") + (labels.empty() ? "" : "{" + labels + "}");
    if (m.string_or("type", "") == "histogram") {
      std::printf("  %-60s count=%-8" PRId64 " p50=%.3f p99=%.3f\n",
                  name.c_str(), static_cast<i64>(m.number_or("count", 0)),
                  m.number_or("p50", 0), m.number_or("p99", 0));
    } else {
      std::printf("  %-60s %.6g\n", name.c_str(), m.number_or("value", 0));
    }
  }
}

/// Node display names as the bundle's predictor summary lists them (node id
/// order); "node<i>" beyond it, like ObsContext::node_name's default.
tc::obs::NodeNamer bundle_node_namer(const JsonValue& root) {
  std::vector<std::string> names;
  const JsonValue* p = root.find("predictors");
  const JsonValue* nodes = p != nullptr && p->type() == JsonValue::Type::Object
                               ? p->find("nodes")
                               : nullptr;
  if (nodes != nullptr && nodes->is_array()) {
    for (usize i = 0; i < nodes->size(); ++i) {
      names.push_back(
          nodes->at(i).string_or("name", "node" + std::to_string(i)));
    }
  }
  return [names](i32 node) {
    return node >= 0 && static_cast<usize>(node) < names.size()
               ? names[static_cast<usize>(node)]
               : "node" + std::to_string(node);
  };
}

int write_chrome_trace(const JsonValue& root, const std::string& out_path) {
  const JsonValue* events = root.find("events");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "triplec_postmortem: bundle has no events array\n");
    return 2;
  }
  const std::vector<tc::obs::FlightEvent> parsed =
      tc::obs::flight_events_from_json(*events);
  std::ofstream f(out_path, std::ios::binary | std::ios::trunc);
  f << tc::obs::chrome_trace_json(parsed, bundle_node_namer(root));
  if (!f) {
    std::fprintf(stderr, "triplec_postmortem: cannot write %s\n",
                 out_path.c_str());
    return 2;
  }
  std::printf("wrote %s (%zu flight events)\n", out_path.c_str(),
              parsed.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--events" && i + 1 < argc) {
      opt.show_events = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--chrome" && i + 1 < argc) {
      opt.chrome_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (opt.bundle_path.empty()) {
      opt.bundle_path = arg;
    } else {
      return usage();
    }
  }
  if (opt.bundle_path.empty()) return usage();

  const std::string text = read_file(opt.bundle_path);
  if (text.empty()) {
    std::fprintf(stderr, "triplec_postmortem: cannot read %s\n",
                 opt.bundle_path.c_str());
    return 2;
  }
  JsonValue root;
  try {
    root = JsonValue::parse(text);
  } catch (const tc::common::JsonError& e) {
    std::fprintf(stderr, "triplec_postmortem: %s is not valid JSON: %s\n",
                 opt.bundle_path.c_str(), e.what());
    return 2;
  }
  if (root.type() != JsonValue::Type::Object ||
      root.string_or("format", "") != "triplec-postmortem-v1") {
    std::fprintf(stderr,
                 "triplec_postmortem: %s is not a triplec-postmortem-v1 "
                 "bundle\n",
                 opt.bundle_path.c_str());
    return 2;
  }

  print_header(root);
  print_extra(root);
  print_predictors(root);
  print_events(root, opt.show_events);
  print_metrics(root);
  if (!opt.chrome_path.empty()) return write_chrome_trace(root, opt.chrome_path);
  return 0;
}
