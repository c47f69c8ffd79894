#include "obs/ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "obs/obs.hpp"

namespace tc::obs {

namespace {

std::string fmt_f64(f64 v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

constexpr std::array<const char*, kLedgerResourceCount> kResourceNames = {
    "cpu_ms", "mem_bytes", "cache_bus_mb", "memory_bus_mb", "io_bus_mb"};

}  // namespace

const char* to_string(LedgerResource r) {
  const auto i = static_cast<usize>(r);
  return i < kResourceNames.size() ? kResourceNames[i] : "unknown";
}

std::optional<LedgerResource> ledger_resource_from(std::string_view name) {
  for (usize i = 0; i < kResourceNames.size(); ++i) {
    if (name == kResourceNames[i]) return static_cast<LedgerResource>(i);
  }
  return std::nullopt;
}

std::optional<f64> LedgerRow::error_pct(LedgerResource r) const {
  if (!has_pred(r) || !has_meas(r)) return std::nullopt;
  return relative_error_pct(pred[static_cast<usize>(r)],
                            meas[static_cast<usize>(r)]);
}

// --- CalibrationWindow ------------------------------------------------------

void CalibrationWindow::add(f64 signed_error_pct) {
  ++total_;
  if (capacity_ == 0 || ring_.size() < capacity_) {
    ring_.push_back(signed_error_pct);
    return;
  }
  // Ring is full: overwrite the oldest sample (wraparound).
  ring_[next_] = signed_error_pct;
  next_ = (next_ + 1) % capacity_;
}

CalibrationWindow::Stats CalibrationWindow::stats() const {
  Stats s;
  s.total = total_;
  s.samples = ring_.size();
  if (ring_.empty()) return s;
  std::vector<f64> abs_errors;
  abs_errors.reserve(ring_.size());
  f64 sum = 0.0;
  f64 abs_sum = 0.0;
  u64 under = 0;
  u64 over = 0;
  for (f64 e : ring_) {
    sum += e;
    abs_sum += std::abs(e);
    abs_errors.push_back(std::abs(e));
    if (e < 0.0) ++under;
    if (e > 0.0) ++over;
  }
  const f64 n = static_cast<f64>(ring_.size());
  s.bias_pct = sum / n;
  s.mean_ape_pct = abs_sum / n;
  s.p50_ape_pct = percentile(abs_errors, 50.0);
  s.p95_ape_pct = percentile(abs_errors, 95.0);
  s.under_pct = static_cast<f64>(under) / n;
  s.over_pct = static_cast<f64>(over) / n;
  return s;
}

void CalibrationWindow::clear() {
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

bool DriftRule::crossed(const CalibrationWindow::Stats& s) {
  if (s.mean_ape_pct <= kThresholdPct) {
    drifting_ = false;
    return false;
  }
  if (drifting_ || s.samples < kMinSamples) return false;
  drifting_ = true;
  return true;
}

// --- PredictionLedger -------------------------------------------------------

PredictionLedger::PredictionLedger(LedgerConfig config,
                                   MetricsRegistry* metrics)
    : config_(std::move(config)), metrics_(metrics) {}

std::string PredictionLedger::node_name(i32 node) const {
  if (config_.node_name) return config_.node_name(node);
  return "node" + std::to_string(node);
}

void PredictionLedger::predict_frame(i32 frame, i64 ticket, f64 deadline_ms,
                                     std::span<const i32> stripes,
                                     std::span<const LedgerSample> predictions) {
  common::MutexLock lock(mutex_);
  PendingFrame p;
  p.frame = frame;
  p.ticket = ticket;
  p.deadline_ms = deadline_ms > 0.0 ? deadline_ms : 0.0;
  p.rows.reserve(predictions.size());
  for (const LedgerSample& s : predictions) {
    if (s.node < 0) continue;
    LedgerRow row;
    row.frame = frame;
    row.node = s.node;
    row.stream = config_.stream_id;
    row.ticket = ticket;
    row.deadline_ms = p.deadline_ms;
    if (static_cast<usize>(s.node) < stripes.size()) {
      row.stripes = stripes[static_cast<usize>(s.node)];
    }
    row.pred_mask = s.mask & kLedgerAllResources;
    row.pred = s.values;
    p.rows.push_back(row);
  }
  pending_.push_back(std::move(p));
  while (pending_.size() > kMaxOpenFrames) {
    // A frame that never settles (crash path, dropped mid-pipeline) must
    // not pin memory forever; count it lost and move on.
    pending_.pop_front();
    ++frames_lost_;
  }
}

std::vector<LedgerRow> PredictionLedger::settle_frame(
    i32 frame, u32 scenario, f64 measured_frame_ms,
    std::span<const LedgerSample> actuals) {
  common::MutexLock lock(mutex_);
  PendingFrame p;
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->frame != frame) continue;
    p = std::move(*it);
    pending_.erase(it);
    break;
  }
  if (p.frame < 0) p.ticket = frame;  // actual-only frame (never predicted)

  const f64 slack =
      p.deadline_ms > 0.0 ? p.deadline_ms - measured_frame_ms : 0.0;
  for (const LedgerSample& a : actuals) {
    if (a.node < 0) continue;
    LedgerRow* row = nullptr;
    for (LedgerRow& r : p.rows) {
      if (r.node == a.node) {
        row = &r;
        break;
      }
    }
    if (row == nullptr) {
      // Executed but never predicted (e.g. a scenario switch the forecast
      // missed) — still worth a row: an activity misprediction.
      p.rows.emplace_back();
      row = &p.rows.back();
      row->frame = frame;
      row->node = a.node;
      row->stream = config_.stream_id;
      row->ticket = p.ticket;
      row->deadline_ms = p.deadline_ms;
    }
    row->meas_mask = a.mask & kLedgerAllResources;
    row->meas = a.values;
  }

  for (LedgerRow& row : p.rows) {
    row.scenario = scenario;
    row.deadline_slack_ms = slack;
    observe_row(row);
    ++rows_settled_;
  }
  if (metrics_ != nullptr && config_.export_metrics) {
    metrics_
        ->counter("tripleC_ledger_rows_total",
                  "Settled prediction-ledger rows")
        .add(static_cast<f64>(p.rows.size()));
  }
  std::vector<LedgerRow> settled(p.rows.begin(), p.rows.end());
  for (LedgerRow& row : p.rows) append_row(std::move(row));
  return settled;
}

void PredictionLedger::observe_row(const LedgerRow& row) {
  for (i32 r = 0; r < kLedgerResourceCount; ++r) {
    const auto res = static_cast<LedgerResource>(r);
    const std::optional<f64> err = row.error_pct(res);
    if (!err.has_value()) continue;
    CalibrationWindow& nw = node_window(row.node, r);
    nw.add(*err);
    CalibrationWindow& sw = scenario_window(row.scenario, r);
    sw.add(*err);
    if (metrics_ != nullptr && config_.export_metrics) {
      export_node_metrics(row.node, r, nw.stats());
      export_scenario_metrics(row.scenario, r, sw.stats());
    }
  }
  // Chrome counter track per node: the predicted and actual CPU series
  // overlaid on one track, sampled at settle time on the host timeline.
  if (config_.trace_counters && enabled() &&
      row.has_pred(LedgerResource::CpuMs) &&
      row.has_meas(LedgerResource::CpuMs)) {
    global().flight.record(
        FrEventType::LedgerCpu, row.frame, row.node,
        row.pred[static_cast<usize>(LedgerResource::CpuMs)],
        row.meas[static_cast<usize>(LedgerResource::CpuMs)]);
  }
}

void PredictionLedger::append_row(LedgerRow row) {
  rows_.push_back(row);
  while (config_.capacity > 0 && rows_.size() > config_.capacity) {
    rows_.pop_front();
  }
}

CalibrationWindow& PredictionLedger::node_window(i32 node, i32 resource) {
  const i64 key = static_cast<i64>(node) * kLedgerResourceCount + resource;
  for (auto& [k, w] : node_streams_) {
    if (k == key) return w;
  }
  node_streams_.emplace_back(key, CalibrationWindow(kCalibrationWindow));
  return node_streams_.back().second;
}

CalibrationWindow& PredictionLedger::scenario_window(u32 scenario,
                                                     i32 resource) {
  const i64 key = static_cast<i64>(scenario) * kLedgerResourceCount + resource;
  for (auto& [k, w] : scenario_streams_) {
    if (k == key) return w;
  }
  scenario_streams_.emplace_back(key, CalibrationWindow(kCalibrationWindow));
  return scenario_streams_.back().second;
}

void PredictionLedger::export_node_metrics(i32 node, i32 resource,
                                           const CalibrationWindow::Stats& s) {
  const std::string labels =
      label("task", node_name(node)) + "," +
      label("resource", kResourceNames[static_cast<usize>(resource)]);
  metrics_
      ->gauge("tripleC_ledger_bias_pct",
              "Rolling mean signed prediction error per node and resource",
              labels)
      .set(s.bias_pct);
  metrics_
      ->gauge("tripleC_ledger_ape_p50_pct",
              "Rolling P50 absolute percentage error per node and resource",
              labels)
      .set(s.p50_ape_pct);
  metrics_
      ->gauge("tripleC_ledger_ape_p95_pct",
              "Rolling P95 absolute percentage error per node and resource",
              labels)
      .set(s.p95_ape_pct);
  metrics_
      ->gauge("tripleC_ledger_under_pct",
              "Rolling under-prediction coverage per node and resource",
              labels)
      .set(s.under_pct);
  metrics_
      ->gauge("tripleC_ledger_over_pct",
              "Rolling over-prediction coverage per node and resource", labels)
      .set(s.over_pct);
}

void PredictionLedger::export_scenario_metrics(
    u32 scenario, i32 resource, const CalibrationWindow::Stats& s) {
  const std::string labels =
      label("scenario", std::to_string(scenario)) + "," +
      label("resource", kResourceNames[static_cast<usize>(resource)]);
  metrics_
      ->gauge("tripleC_ledger_scenario_bias_pct",
              "Rolling mean signed prediction error per scenario and resource",
              labels)
      .set(s.bias_pct);
  metrics_
      ->gauge(
          "tripleC_ledger_scenario_ape_p95_pct",
          "Rolling P95 absolute percentage error per scenario and resource",
          labels)
      .set(s.p95_ape_pct);
}

std::vector<LedgerRow> PredictionLedger::rows() const {
  common::MutexLock lock(mutex_);
  return {rows_.begin(), rows_.end()};
}

std::vector<LedgerRow> PredictionLedger::recent(usize n) const {
  common::MutexLock lock(mutex_);
  const usize count = std::min(n, rows_.size());
  return {rows_.end() - static_cast<std::ptrdiff_t>(count), rows_.end()};
}

u64 PredictionLedger::rows_settled() const {
  common::MutexLock lock(mutex_);
  return rows_settled_;
}

u64 PredictionLedger::frames_lost() const {
  common::MutexLock lock(mutex_);
  return frames_lost_;
}

CalibrationWindow::Stats PredictionLedger::node_calibration(
    i32 node, LedgerResource r) const {
  common::MutexLock lock(mutex_);
  const i64 key =
      static_cast<i64>(node) * kLedgerResourceCount + static_cast<i64>(r);
  for (const auto& [k, w] : node_streams_) {
    if (k == key) return w.stats();
  }
  return {};
}

CalibrationWindow::Stats PredictionLedger::scenario_calibration(
    u32 scenario, LedgerResource r) const {
  common::MutexLock lock(mutex_);
  const i64 key =
      static_cast<i64>(scenario) * kLedgerResourceCount + static_cast<i64>(r);
  for (const auto& [k, w] : scenario_streams_) {
    if (k == key) return w.stats();
  }
  return {};
}

std::string PredictionLedger::dump_json() const {
  common::MutexLock lock(mutex_);
  std::string out = "{\n";
  out += "  \"format\": \"triplec-ledger-v1\",\n";
  out += "  \"resources\": [";
  for (usize i = 0; i < kResourceNames.size(); ++i) {
    if (i != 0) out += ",";
    out += std::string("\"") + kResourceNames[i] + "\"";
  }
  out += "],\n";
  // Node name map, so the report tool can label without the binary.
  std::set<i32> nodes;
  for (const LedgerRow& r : rows_) nodes.insert(r.node);
  out += "  \"nodes\": {";
  bool first = true;
  for (i32 n : nodes) {
    if (!first) out += ",";
    first = false;
    out += "\"" + std::to_string(n) + "\":\"" +
           common::json_escape(node_name(n)) + "\"";
  }
  out += "},\n";
  out += "  \"rows_settled\": " + std::to_string(rows_settled_) + ",\n";
  out += "  \"frames_lost\": " + std::to_string(frames_lost_) + ",\n";
  out += "  \"rows\": [\n";
  for (usize i = 0; i < rows_.size(); ++i) {
    const LedgerRow& r = rows_[i];
    out += "    {\"frame\":" + std::to_string(r.frame) +
           ",\"node\":" + std::to_string(r.node) +
           ",\"stream\":" + std::to_string(r.stream) +
           ",\"scenario\":" + std::to_string(r.scenario) +
           ",\"ticket\":" + std::to_string(r.ticket) +
           ",\"stripes\":" + std::to_string(r.stripes) +
           ",\"deadline_ms\":" + fmt_f64(r.deadline_ms) +
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
    out += i + 1 < rows_.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

void PredictionLedger::clear() {
  common::MutexLock lock(mutex_);
  pending_.clear();
  rows_.clear();
  rows_settled_ = 0;
  frames_lost_ = 0;
  node_streams_.clear();
  scenario_streams_.clear();
}

// --- offline calibration report --------------------------------------------

CalibrationReport build_calibration_report(std::span<const LedgerRow> rows) {
  CalibrationReport report;
  report.rows = rows.size();
  std::set<i32> frames;
  std::set<u32> scenarios;
  // Unbounded windows: the offline report scores every retained sample.
  struct Group {
    GroupCalibration cal;
    std::array<CalibrationWindow, kLedgerResourceCount> windows;
    Group() {
      for (auto& w : windows) w = CalibrationWindow(0);
    }
  };
  std::map<i64, Group> by_node;
  std::map<i64, Group> by_scenario;
  std::map<std::pair<i32, i32>, Group> by_pair;

  for (const LedgerRow& row : rows) {
    frames.insert(row.frame);
    scenarios.insert(row.scenario);
    bool scored = false;
    for (i32 r = 0; r < kLedgerResourceCount; ++r) {
      const std::optional<f64> err =
          row.error_pct(static_cast<LedgerResource>(r));
      if (!err.has_value()) continue;
      scored = true;
      by_node[row.node].windows[static_cast<usize>(r)].add(*err);
      by_scenario[static_cast<i64>(row.scenario)]
          .windows[static_cast<usize>(r)]
          .add(*err);
      by_pair[{row.node, static_cast<i32>(row.scenario)}]
          .windows[static_cast<usize>(r)]
          .add(*err);
    }
    if (scored) {
      ++by_node[row.node].cal.rows;
      ++by_scenario[static_cast<i64>(row.scenario)].cal.rows;
      ++by_pair[{row.node, static_cast<i32>(row.scenario)}].cal.rows;
    }
  }
  report.frames = frames.size();
  report.scenarios = scenarios.size();

  auto finish = [](Group& g, i32 node, i32 scenario) {
    g.cal.node = node;
    g.cal.scenario = scenario;
    for (i32 r = 0; r < kLedgerResourceCount; ++r) {
      g.cal.res[static_cast<usize>(r)] =
          g.windows[static_cast<usize>(r)].stats();
    }
    return g.cal;
  };
  for (auto& [node, g] : by_node) {
    report.per_node.push_back(finish(g, static_cast<i32>(node), -1));
  }
  for (auto& [scenario, g] : by_scenario) {
    report.per_scenario.push_back(finish(g, -1, static_cast<i32>(scenario)));
  }
  for (auto& [key, g] : by_pair) {
    report.per_node_scenario.push_back(finish(g, key.first, key.second));
  }
  return report;
}

std::vector<const GroupCalibration*> worst_calibrated(
    const CalibrationReport& report, usize k, LedgerResource rank_by,
    u64 min_samples) {
  std::vector<const GroupCalibration*> out;
  for (const GroupCalibration& g : report.per_node_scenario) {
    if (g.res[static_cast<usize>(rank_by)].samples >= min_samples) {
      out.push_back(&g);
    }
  }
  std::sort(out.begin(), out.end(),
            [rank_by](const GroupCalibration* a, const GroupCalibration* b) {
              return a->res[static_cast<usize>(rank_by)].p95_ape_pct >
                     b->res[static_cast<usize>(rank_by)].p95_ape_pct;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace tc::obs
