#include "obs/postmortem.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/json.hpp"

namespace tc::obs {

namespace {

std::string fmt_f64(f64 v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string metrics_json(const MetricsRegistry& metrics) {
  std::string out = "[";
  bool first = true;
  for (const auto& e : metrics.entries()) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + common::json_escape(e.name) + "\"";
    if (!e.labels.empty()) {
      out += ",\"labels\":\"" + common::json_escape(e.labels) + "\"";
    }
    switch (e.type) {
      case MetricType::Counter:
        out += ",\"type\":\"counter\",\"value\":" + fmt_f64(e.counter->value());
        break;
      case MetricType::Gauge:
        out += ",\"type\":\"gauge\",\"value\":" + fmt_f64(e.gauge->value());
        break;
      case MetricType::Histogram: {
        const Histogram& h = *e.histogram;
        out += ",\"type\":\"histogram\",\"count\":" +
               std::to_string(h.count()) + ",\"sum\":" + fmt_f64(h.sum()) +
               ",\"p50\":" + fmt_f64(h.p50()) + ",\"p99\":" + fmt_f64(h.p99());
        break;
      }
    }
    out += "}";
  }
  out += "]";
  return out;
}

std::string predictors_json(const PredictorStateSummary& p) {
  std::string out = "{\"nodes\":[";
  for (usize i = 0; i < p.nodes.size(); ++i) {
    if (i != 0) out += ",";
    const auto& n = p.nodes[i];
    out += "{\"name\":\"" + common::json_escape(n.name) +
           "\",\"predicted_ms\":" + fmt_f64(n.predicted_ms) +
           ",\"active\":" + (n.active ? "true" : "false") + "}";
  }
  out += "],\"drift_errors_pct\":{";
  for (usize i = 0; i < p.drift_errors_pct.size(); ++i) {
    if (i != 0) out += ",";
    out += "\"" + common::json_escape(p.drift_errors_pct[i].first) +
           "\":" + fmt_f64(p.drift_errors_pct[i].second);
  }
  out += "}}";
  return out;
}

std::string ledger_rows_json(std::span<const LedgerRow> rows) {
  std::string out = "[";
  for (usize i = 0; i < rows.size(); ++i) {
    const LedgerRow& r = rows[i];
    if (i != 0) out += ",";
    out += "{\"frame\":" + std::to_string(r.frame) +
           ",\"node\":" + std::to_string(r.node) +
           ",\"scenario\":" + std::to_string(r.scenario) +
           ",\"stripes\":" + std::to_string(r.stripes) +
           ",\"slack_ms\":" + fmt_f64(r.deadline_slack_ms) +
           ",\"pred_mask\":" + std::to_string(r.pred_mask) +
           ",\"meas_mask\":" + std::to_string(r.meas_mask) + ",\"pred\":[";
    for (i32 v = 0; v < kLedgerResourceCount; ++v) {
      if (v != 0) out += ",";
      out += fmt_f64(r.pred[static_cast<usize>(v)]);
    }
    out += "],\"meas\":[";
    for (i32 v = 0; v < kLedgerResourceCount; ++v) {
      if (v != 0) out += ",";
      out += fmt_f64(r.meas[static_cast<usize>(v)]);
    }
    out += "]}";
  }
  out += "]";
  return out;
}

}  // namespace

std::string bundle_json(const PostmortemContext& ctx,
                        std::span<const FlightEvent> events,
                        const MetricsRegistry& metrics) {
  std::string out = "{\n";
  out += "  \"format\": \"triplec-postmortem-v1\",\n";
  out += "  \"reason\": \"" + common::json_escape(ctx.reason) + "\",\n";
  out += "  \"frame\": " + std::to_string(ctx.frame) + ",\n";
  out += "  \"deadline_ms\": " + fmt_f64(ctx.deadline_ms) + ",\n";
  out += "  \"predicted_ms\": " + fmt_f64(ctx.predicted_ms) + ",\n";
  out += "  \"measured_ms\": " + fmt_f64(ctx.measured_ms) + ",\n";
  out += "  \"plan\": \"" + common::json_escape(ctx.plan) + "\",\n";
  out += "  \"quality_level\": " + std::to_string(ctx.quality_level) + ",\n";
  out += "  \"scenario\": " + std::to_string(ctx.scenario) + ",\n";
  out += "  \"predictors\": " + predictors_json(ctx.predictors) + ",\n";
  out += "  \"ledger\": " + ledger_rows_json(ctx.ledger_rows) + ",\n";
  out += "  \"extra\": {";
  for (usize i = 0; i < ctx.extra.size(); ++i) {
    if (i != 0) out += ",";
    out += "\"" + common::json_escape(ctx.extra[i].first) + "\":\"" +
           common::json_escape(ctx.extra[i].second) + "\"";
  }
  out += "},\n";
  out += "  \"metrics\": " + metrics_json(metrics) + ",\n";
  out += "  \"events\": " + flight_events_json(events) + "\n";
  out += "}\n";
  return out;
}

PostmortemWriter::PostmortemWriter(std::string directory)
    : directory_(std::move(directory)) {}

std::string PostmortemWriter::write(const PostmortemContext& ctx,
                                    const FlightRecorder& flight,
                                    const MetricsRegistry& metrics,
                                    bool force) {
  if (directory_.empty()) return "";
  {
    common::MutexLock lock(mutex_);
    if (bundles_written_ >= kMaxBundles) {
      ++suppressed_;
      return "";
    }
    if (!force && last_bundle_frame_ >= 0 &&
        ctx.frame - last_bundle_frame_ < kMinFramesBetween) {
      ++suppressed_;
      return "";
    }
  }

  std::vector<FlightEvent> events = flight.snapshot();
  if (events.size() > kMaxEvents) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(kMaxEvents));
  }
  const std::string doc = bundle_json(ctx, events, metrics);

  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) return "";

  std::string path;
  {
    common::MutexLock lock(mutex_);
    char name[128];
    std::snprintf(name, sizeof(name), "postmortem_%04llu_frame%d.json",
                  static_cast<unsigned long long>(bundles_written_),
                  ctx.frame);
    path = (std::filesystem::path(directory_) / name).string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return "";
    out << doc;
    out.close();
    if (!out) return "";
    last_bundle_frame_ = ctx.frame;
    ++bundles_written_;
    last_path_ = path;
  }
  return path;
}

u64 PostmortemWriter::bundles_written() const {
  common::MutexLock lock(mutex_);
  return bundles_written_;
}

u64 PostmortemWriter::suppressed() const {
  common::MutexLock lock(mutex_);
  return suppressed_;
}

std::string PostmortemWriter::last_path() const {
  common::MutexLock lock(mutex_);
  return last_path_;
}

}  // namespace tc::obs
