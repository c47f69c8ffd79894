#include "serve/stream_server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "obs/obs.hpp"

namespace tc::serve {

namespace {

/// Frames of the warm-vs-cold calibration comparison.
constexpr i32 kEarlyFrames = 12;

/// Mean CPU absolute percentage error over the stream's first kEarlyFrames
/// frames — the warm-vs-cold calibration comparison (-1 without data).
f64 early_cpu_ape(const obs::PredictionLedger* ledger) {
  if (ledger == nullptr) return -1.0;
  const auto cpu = obs::LedgerResource::CpuMs;
  f64 sum = 0.0;
  i32 n = 0;
  for (const obs::LedgerRow& row : ledger->rows()) {
    if (row.frame >= kEarlyFrames) continue;
    const std::optional<f64> err = row.error_pct(cpu);
    if (!err.has_value()) continue;
    sum += std::abs(*err);
    ++n;
  }
  return n > 0 ? sum / n : -1.0;
}

}  // namespace

StreamServer::StreamServer(ServeConfig config)
    : config_(config),
      pool_(config.pool_threads <= 0 ? 0
                                     : static_cast<usize>(config.pool_threads),
            config.pin_threads),
      admission_(config.admission, narrow<i32>(pool_.thread_count()),
                 plat::PlatformSpec::paper_platform()) {
  status_agg_.set_streams_provider([this] { return fleet_status_json(); });
  status_agg_.set_ledger_provider(
      [this] { return ledger_rows(); },
      [](i32 node) { return std::string(app::node_name(node)); });
  if (config_.telemetry.enabled) {
    telemetry_ =
        std::make_unique<obs::TelemetryServer>(config_.telemetry, &status_agg_);
    telemetry_->start();
  }
  // Startup gates passed (pool up, admission sized): ready for traffic.
  status_agg_.set_ready(true);
}

StreamServer::~StreamServer() = default;

i32 StreamServer::submit(StreamConfig stream) {
  common::MutexLock lock(mutex_);
  const i32 id = narrow<i32>(reports_.size());
  if (stream.name.empty()) {
    std::string fallback = std::to_string(id);
    fallback.insert(fallback.begin(), 's');
    stream.name = std::move(fallback);
  }

  StreamReport report;
  report.id = id;
  report.name = stream.name;
  report.class_key = PredictorRegistry::class_key(stream.app);
  report.weight = stream.weight;
  report.deadline_ms = stream.deadline_ms;

  // Price the stream: a registry snapshot when one exists for its class
  // (warm — no execution), else a short serial probe.
  const std::optional<exec::PredictorSnapshot> snap =
      registry_.lookup(report.class_key);
  StreamDemand demand = admission_.estimate_demand(
      stream.app, stream.deadline_ms, stream.max_stripes_per_task,
      snap.has_value() ? &*snap : nullptr);
  report.decision = admission_.decide(demand);
  if (report.decision.verdict == AdmissionVerdict::Reject && demand.warm) {
    // A snapshot trained under fleet contention over-prices the stream
    // (its predictor saw contended wall times, not intrinsic cost).  Before
    // rejecting on warm numbers alone, re-price with an uncontended probe.
    demand = admission_.estimate_demand(stream.app, stream.deadline_ms,
                                        stream.max_stripes_per_task, nullptr);
    report.decision = admission_.decide(demand);
  }
  report.warm_started = demand.warm;

  stream_configs_.push_back(std::move(stream));
  reports_.push_back(std::move(report));
  const AdmissionDecision& decision = reports_.back().decision;

  switch (decision.verdict) {
    case AdmissionVerdict::Admit:
      activate(id);
      break;
    case AdmissionVerdict::Queue:
      wait_queue_.push_back(id);
      if (obs::enabled()) {
        obs::global().flight.record(obs::FrEventType::StreamReject, -1, id,
                                    decision.demand.cores, 1.0);
      }
      break;
    case AdmissionVerdict::Reject:
      if (obs::enabled()) {
        obs::global().flight.record(obs::FrEventType::StreamReject, -1, id,
                                    decision.demand.cores, 0.0);
      }
      break;
  }
  update_fleet_gauges();
  return id;
}

void StreamServer::activate(i32 id) {
  const StreamConfig& stream = stream_configs_[static_cast<usize>(id)];
  StreamReport& report = reports_[static_cast<usize>(id)];

  auto session = std::make_unique<Session>();
  session->id = id;
  session->config = stream;
  session->demand = report.decision.demand;

  exec::ExecutorConfig ec;
  ec.shared_pool = &pool_;
  ec.deadline_ms = stream.deadline_ms;
  ec.policy = stream.policy;
  ec.max_stripes_per_task = stream.max_stripes_per_task;
  ec.warmup_frames = stream.warmup_frames;
  // Per-stream ledger rows carry the stream id; metric/counter export stays
  // off — N streams would write the same per-node series.
  ec.ledger.enabled = stream.ledger;
  ec.ledger.stream_id = id;
  ec.ledger.export_metrics = false;
  ec.ledger.trace_counters = false;
  session->executor = std::make_unique<exec::Executor>(stream.app, ec);

  // Per-stream SLOs under stream-prefixed names, so N monitors coexist in
  // one MetricsRegistry.
  obs::MetricsRegistry* metrics =
      obs::enabled() ? &obs::global().metrics : nullptr;
  session->slo = std::make_unique<obs::SloMonitor>(
      obs::deadline_slos(stream.name + "/", stream.deadline_ms), metrics);
  if (fleet_slo_ == nullptr) {
    // Fleet objectives derive from the first admitted stream's deadline —
    // the fleet-level "are we keeping up" signal.
    fleet_slo_ = std::make_unique<obs::SloMonitor>(
        obs::deadline_slos("fleet/", stream.deadline_ms), metrics);
  }

  // A promoted stream starts at the fleet's current virtual time, not 0 —
  // it must not monopolize the slots to "catch up" service it never queued
  // for.
  f64 min_vtime = 0.0;
  bool first = true;
  for (const auto& other : sessions_) {
    if (other->done) continue;
    if (first || other->vtime < min_vtime) min_vtime = other->vtime;
    first = false;
  }
  session->vtime = first ? 0.0 : min_vtime;

  admission_.commit(session->demand);
  peak_committed_cores_ =
      std::max(peak_committed_cores_, admission_.committed_cores());
  if (obs::enabled()) {
    obs::global().flight.record(obs::FrEventType::StreamAdmit, -1, id,
                                session->demand.cores,
                                admission_.residual_cores());
  }
  sessions_.push_back(std::move(session));
}

f64 StreamServer::active_weight() const {
  f64 total = 0.0;
  for (const auto& s : sessions_) {
    if (!s->done) total += std::max(1e-9, s->config.weight);
  }
  return std::max(1e-9, total);
}

StreamServer::Session* StreamServer::pick_min_vtime() {
  Session* best = nullptr;
  for (const auto& s : sessions_) {
    if (s->done || s->busy) continue;
    if (best == nullptr || s->vtime < best->vtime) best = s.get();
  }
  return best;
}

void StreamServer::retire(Session& s) {
  // Publish the trained predictor so the next same-class stream is priced
  // without a probe.
  registry_.publish(reports_[static_cast<usize>(s.id)].class_key,
                    s.executor->snapshot_predictors());
  admission_.release(s.demand);
  finalize_report(s);
  if (obs::enabled()) {
    const exec::ExecutorStats stats = s.executor->stats();
    obs::global().flight.record(obs::FrEventType::StreamRetire, -1, s.id,
                                static_cast<f64>(stats.frames),
                                static_cast<f64>(stats.deadline_misses));
  }
  // Promote queued streams that now fit the refilled residual (FIFO).
  for (auto it = wait_queue_.begin(); it != wait_queue_.end();) {
    const i32 id = *it;
    StreamReport& r = reports_[static_cast<usize>(id)];
    const AdmissionDecision redecide = admission_.decide(r.decision.demand);
    if (redecide.verdict == AdmissionVerdict::Admit) {
      it = wait_queue_.erase(it);
      activate(id);
    } else {
      ++it;
    }
  }
  update_fleet_gauges();
}

void StreamServer::finalize_report(Session& s) {
  StreamReport& r = reports_[static_cast<usize>(s.id)];
  const exec::ExecutorStats stats = s.executor->stats();
  r.served = true;
  r.frames = stats.frames;
  r.deadline_misses = stats.deadline_misses;
  r.degraded_frames = stats.degraded_frames;
  r.repartitions = stats.repartitions;
  r.mean_ms = stats.mean_measured_ms;
  r.miss_rate = stats.frames > 0
                    ? static_cast<f64>(stats.deadline_misses) / stats.frames
                    : 0.0;
  if (!s.latencies_ms.empty()) {
    r.p50_ms = percentile(s.latencies_ms, 50.0);
    r.p99_ms = percentile(s.latencies_ms, 99.0);
  }
  r.early_ape_pct = early_cpu_ape(s.executor->ledger());
}

void StreamServer::update_fleet_gauges() {
  if (!obs::enabled()) return;
  obs::MetricsRegistry& m = obs::global().metrics;
  i32 active = 0;
  for (const auto& s : sessions_) {
    if (!s->done) ++active;
  }
  m.gauge("tripleC_serve_active_streams", "Streams currently being served")
      .set(static_cast<f64>(active));
  m.gauge("tripleC_serve_queued_streams", "Streams waiting for capacity")
      .set(static_cast<f64>(wait_queue_.size()));
  // Per-stream lifecycle gauge, stream-labeled so N streams coexist:
  // 0 = rejected, 1 = queued, 2 = active, 3 = done.
  for (const StreamReport& r : reports_) {
    f64 state = r.decision.verdict == AdmissionVerdict::Reject ? 0.0 : 1.0;
    for (const auto& s : sessions_) {
      if (s->id == r.id) {
        state = s->done ? 3.0 : 2.0;
        break;
      }
    }
    m.gauge("tripleC_serve_stream_state",
            "Stream lifecycle: 0 rejected, 1 queued, 2 active, 3 done",
            obs::label("stream", r.name))
        .set(state);
  }
  m.gauge("tripleC_serve_committed_cores",
          "Cores committed by admission control")
      .set(admission_.committed_cores());
  m.gauge("tripleC_serve_capacity_cores",
          "Total core capacity available to admission")
      .set(admission_.capacity_cores());
}

void StreamServer::slot_loop() {
  for (;;) {
    Session* s = nullptr;
    i32 share = 0;
    {
      common::MutexLock lock(mutex_);
      for (;;) {
        s = pick_min_vtime();
        if (s != nullptr) break;
        bool any_open = false;
        for (const auto& sp : sessions_) {
          if (!sp->done) {
            any_open = true;
            break;
          }
        }
        if (!any_open) return;  // every stream served
        work_cv_.wait(mutex_, [this]() TC_REQUIRES(mutex_) {
          if (pick_min_vtime() != nullptr) return true;
          for (const auto& sp : sessions_) {
            if (!sp->done) return false;
          }
          return true;
        });
      }
      s->busy = true;
      // Weighted fair share of the pool, as seen by this stream's planner:
      // its instance budget scales with its weight, so a heavy stream
      // cannot starve the others even while it holds a slot.
      share = std::max(
          1, static_cast<i32>(std::floor(
                 static_cast<f64>(pool_.thread_count()) *
                 std::max(1e-9, s->config.weight) / active_weight())));
      s->pool_share = share;  // fleet_status() mirror
    }

    s->executor->set_pool_share(share);
    const i32 t = s->next_frame;
    const exec::ExecutedFrame frame = s->executor->step(t);

    {
      common::MutexLock lock(mutex_);
      s->busy = false;
      ++s->next_frame;
      // WFQ bookkeeping: virtual time advances by the service received over
      // the stream's weight; the next slot goes to the smallest vtime.
      s->vtime += frame.measured_host_ms / std::max(1e-9, s->config.weight);
      s->latencies_ms.push_back(frame.measured_host_ms);
      if (frame.deadline_miss) ++s->deadline_misses;
      if (s->slo != nullptr) {
        s->slo->observe_frame(t, frame.measured_host_ms, frame.deadline_miss);
      }
      if (fleet_slo_ != nullptr) {
        fleet_slo_->observe_frame(narrow<i32>(fleet_frame_++),
                                  frame.measured_host_ms, frame.deadline_miss);
      }
      if (s->next_frame >= s->config.frames) {
        s->done = true;
        retire(*s);
      }
    }
    work_cv_.notify_all();
  }
}

void StreamServer::drain() {
  i32 slots = 0;
  {
    common::MutexLock lock(mutex_);
    if (draining_) return;
    draining_ = true;
    i32 open = 0;
    for (const auto& s : sessions_) {
      if (!s->done) ++open;
    }
    if (open == 0) return;
    slots = std::clamp(std::min(config_.max_concurrent_streams, open), 1,
                       narrow<i32>(pool_.thread_count()));
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<usize>(slots));
  for (i32 i = 0; i < slots; ++i) {
    workers.emplace_back([this] { slot_loop(); });
  }
  for (std::thread& w : workers) w.join();
  common::MutexLock lock(mutex_);
  draining_ = false;
  update_fleet_gauges();
}

StreamReport StreamServer::report(i32 id) const {
  common::MutexLock lock(mutex_);
  return reports_.at(static_cast<usize>(id));
}

std::vector<StreamReport> StreamServer::reports() const {
  common::MutexLock lock(mutex_);
  return reports_;
}

FleetReport StreamServer::fleet() const {
  common::MutexLock lock(mutex_);
  FleetReport f;
  f.submitted = narrow<i32>(reports_.size());
  std::vector<f64> all_latencies;
  for (const StreamReport& r : reports_) {
    if (r.served) {
      ++f.admitted;
    } else if (r.decision.verdict == AdmissionVerdict::Reject) {
      ++f.rejected;
    }
    if (r.decision.verdict == AdmissionVerdict::Queue) ++f.queued;
    f.frames += r.frames;
    f.deadline_misses += r.deadline_misses;
  }
  for (const auto& s : sessions_) {
    all_latencies.insert(all_latencies.end(), s->latencies_ms.begin(),
                         s->latencies_ms.end());
  }
  if (!all_latencies.empty()) {
    f.p50_ms = percentile(all_latencies, 50.0);
    f.p99_ms = percentile(all_latencies, 99.0);
  }
  f.miss_rate =
      f.frames > 0 ? static_cast<f64>(f.deadline_misses) / f.frames : 0.0;
  f.capacity_cores = admission_.capacity_cores();
  f.peak_committed_cores = peak_committed_cores_;
  f.registry_publishes = registry_.publishes();
  f.registry_hits = registry_.hits();
  return f;
}

FleetStatus StreamServer::fleet_status() const {
  common::MutexLock lock(mutex_);
  FleetStatus fs;
  fs.draining = draining_;
  fs.capacity_cores = admission_.capacity_cores();
  fs.committed_cores = admission_.committed_cores();
  fs.fleet_frames = fleet_frame_;
  if (fleet_slo_ != nullptr) fs.fleet_slo = fleet_slo_->window_snapshot();

  fs.streams.reserve(reports_.size());
  for (const StreamReport& r : reports_) {
    StreamStatus st;
    st.id = r.id;
    st.name = r.name;
    st.verdict = to_string(r.decision.verdict);
    st.weight = r.weight;
    st.deadline_ms = r.deadline_ms;
    st.frames_total = stream_configs_[static_cast<usize>(r.id)].frames;

    const Session* session = nullptr;
    for (const auto& s : sessions_) {
      if (s->id == r.id) {
        session = s.get();
        break;
      }
    }
    if (session != nullptr) {
      st.state = session->done ? "done" : "active";
      session->done ? ++fs.done : ++fs.active;
      st.vtime = session->vtime;
      st.pool_share = session->pool_share;
      st.frames_done = session->next_frame;
      st.deadline_misses = session->deadline_misses;
      if (session->slo != nullptr) st.slo = session->slo->window_snapshot();
      // Rolling CPU calibration from the stream's own ledger (the ledger
      // has its own mutex; lock order server -> ledger matches slot_loop).
      if (const obs::PredictionLedger* ledger = session->executor->ledger()) {
        obs::CalibrationWindow window(0);
        for (const obs::LedgerRow& row : ledger->recent(128)) {
          const std::optional<f64> err =
              row.error_pct(obs::LedgerResource::CpuMs);
          if (err.has_value()) window.add(*err);
        }
        const obs::CalibrationWindow::Stats cal = window.stats();
        st.calibration_samples = cal.samples;
        st.cpu_bias_pct = cal.bias_pct;
        st.cpu_p95_ape_pct = cal.p95_ape_pct;
      }
    } else if (r.decision.verdict == AdmissionVerdict::Reject) {
      st.state = "rejected";
      ++fs.rejected;
    } else {
      st.state = "queued";
      ++fs.queued;
    }
    fs.streams.push_back(std::move(st));
  }
  return fs;
}

namespace {

std::string fmt_f64(f64 v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void append_window(std::string& out, const obs::SloMonitor::WindowStats& w) {
  out += "{\"frames\":" + std::to_string(w.frames) +
         ",\"miss_rate\":" + fmt_f64(w.miss_rate) +
         ",\"p50_ms\":" + fmt_f64(w.p50) + ",\"p99_ms\":" + fmt_f64(w.p99) +
         "}";
}

}  // namespace

std::string StreamServer::fleet_status_json() const {
  const FleetStatus fs = fleet_status();
  std::string out = "{\"ready\":true";
  out += ",\"draining\":" + std::string(fs.draining ? "true" : "false");
  out += ",\"capacity_cores\":" + fmt_f64(fs.capacity_cores);
  out += ",\"committed_cores\":" + fmt_f64(fs.committed_cores);
  out += ",\"active\":" + std::to_string(fs.active);
  out += ",\"done\":" + std::to_string(fs.done);
  out += ",\"queued\":" + std::to_string(fs.queued);
  out += ",\"rejected\":" + std::to_string(fs.rejected);
  out += ",\"fleet_frames\":" + std::to_string(fs.fleet_frames);
  out += ",\"fleet_slo\":";
  append_window(out, fs.fleet_slo);
  out += ",\"streams\":[";
  for (usize i = 0; i < fs.streams.size(); ++i) {
    const StreamStatus& st = fs.streams[i];
    if (i > 0) out += ',';
    out += "{\"id\":" + std::to_string(st.id);
    out += ",\"name\":\"" + common::json_escape(st.name) + "\"";
    out += ",\"state\":\"" + std::string(st.state) + "\"";
    out += ",\"verdict\":\"" + std::string(st.verdict) + "\"";
    out += ",\"weight\":" + fmt_f64(st.weight);
    out += ",\"deadline_ms\":" + fmt_f64(st.deadline_ms);
    out += ",\"vtime_ms\":" + fmt_f64(st.vtime);
    out += ",\"pool_share\":" + std::to_string(st.pool_share);
    out += ",\"frames_done\":" + std::to_string(st.frames_done);
    out += ",\"frames_total\":" + std::to_string(st.frames_total);
    out += ",\"deadline_misses\":" + std::to_string(st.deadline_misses);
    out += ",\"slo\":";
    append_window(out, st.slo);
    out += ",\"calibration\":{\"samples\":" +
           std::to_string(st.calibration_samples) +
           ",\"cpu_bias_pct\":" + fmt_f64(st.cpu_bias_pct) +
           ",\"cpu_p95_ape_pct\":" + fmt_f64(st.cpu_p95_ape_pct) + "}";
    out += "}";
  }
  out += "]}";
  return out;
}

std::vector<obs::LedgerRow> StreamServer::ledger_rows(usize per_stream) const {
  common::MutexLock lock(mutex_);
  std::vector<obs::LedgerRow> rows;
  for (const auto& s : sessions_) {
    const obs::PredictionLedger* ledger = s->executor->ledger();
    if (ledger == nullptr) continue;
    std::vector<obs::LedgerRow> part = ledger->recent(per_stream);
    rows.insert(rows.end(), part.begin(), part.end());
  }
  return rows;
}

}  // namespace tc::serve
