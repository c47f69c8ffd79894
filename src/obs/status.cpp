#include "obs/status.hpp"

#include <cstdio>
#include <utility>

#include "common/json.hpp"

namespace tc::obs {

namespace {

std::string fmt_f64(f64 v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void StatusAggregator::set_streams_provider(JsonProvider provider) {
  common::MutexLock lock(mutex_);
  streams_ = std::move(provider);
}

void StatusAggregator::set_ledger_provider(RowsProvider rows,
                                           NodeNamer node_name) {
  common::MutexLock lock(mutex_);
  ledger_rows_ = std::move(rows);
  node_name_ = std::move(node_name);
}

std::string StatusAggregator::streams_json() const {
  JsonProvider provider;
  {
    common::MutexLock lock(mutex_);
    provider = streams_;
  }
  if (provider) return provider();
  return std::string("{\"ready\":") + (ready() ? "true" : "false") +
         ",\"streams\":[]}";
}

std::string ledger_row_json(const LedgerRow& row) {
  std::string out;
  out += "{\"frame\":" + std::to_string(row.frame) +
         ",\"node\":" + std::to_string(row.node) +
         ",\"stream\":" + std::to_string(row.stream) +
         ",\"scenario\":" + std::to_string(row.scenario) +
         ",\"ticket\":" + std::to_string(row.ticket) +
         ",\"stripes\":" + std::to_string(row.stripes) +
         ",\"deadline_ms\":" + fmt_f64(row.deadline_ms) +
         ",\"slack_ms\":" + fmt_f64(row.deadline_slack_ms) +
         ",\"pred_mask\":" + std::to_string(row.pred_mask) +
         ",\"meas_mask\":" + std::to_string(row.meas_mask) + ",\"pred\":[";
  for (i32 v = 0; v < kLedgerResourceCount; ++v) {
    if (v != 0) out += ",";
    out += fmt_f64(row.pred[static_cast<usize>(v)]);
  }
  out += "],\"meas\":[";
  for (i32 v = 0; v < kLedgerResourceCount; ++v) {
    if (v != 0) out += ",";
    out += fmt_f64(row.meas[static_cast<usize>(v)]);
  }
  out += "]}";
  return out;
}

std::string StatusAggregator::ledger_json(usize recent, usize worst) const {
  RowsProvider rows_provider;
  NodeNamer namer;
  {
    common::MutexLock lock(mutex_);
    rows_provider = ledger_rows_;
    namer = node_name_;
  }
  if (!rows_provider) return "{\"rows\":0,\"recent\":[],\"worst\":[]}";

  const std::vector<LedgerRow> rows = rows_provider();
  std::string out = "{\"rows\":" + std::to_string(rows.size()) + ",\n";

  out += "\"recent\":[";
  const usize first = rows.size() > recent ? rows.size() - recent : 0;
  for (usize i = first; i < rows.size(); ++i) {
    if (i != first) out += ",\n";
    out += ledger_row_json(rows[i]);
  }
  out += "],\n";

  // Worst-calibrated (node, scenario) groups over the full provider window,
  // same ranking as `triplec_ledger --worst K`.
  const CalibrationReport report = build_calibration_report(rows);
  const std::vector<const GroupCalibration*> ranked =
      worst_calibrated(report, worst);
  out += "\"worst\":[";
  for (usize i = 0; i < ranked.size(); ++i) {
    const GroupCalibration& g = *ranked[i];
    const CalibrationWindow::Stats& cpu =
        g.res[static_cast<usize>(LedgerResource::CpuMs)];
    if (i != 0) out += ",\n";
    out += "{\"node\":" + std::to_string(g.node);
    if (namer) {
      out += ",\"name\":\"" + common::json_escape(namer(g.node)) + "\"";
    }
    out += ",\"scenario\":" + std::to_string(g.scenario) +
           ",\"rows\":" + std::to_string(g.rows) +
           ",\"cpu_bias_pct\":" + fmt_f64(cpu.bias_pct) +
           ",\"cpu_p50_ape_pct\":" + fmt_f64(cpu.p50_ape_pct) +
           ",\"cpu_p95_ape_pct\":" + fmt_f64(cpu.p95_ape_pct) + "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace tc::obs
