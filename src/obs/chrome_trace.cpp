#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <optional>
#include <vector>

#include "common/json.hpp"

namespace tc::obs {

namespace {

struct Arg {
  const char* key;
  f64 value;
};

/// Stripe lanes drawn per simulated task at most: plans stripe a task over
/// at most the platform's CPUs; this bounds what a malformed post-mortem
/// bundle can make the writer draw.
constexpr f64 kMaxStripeLanes = 64.0;

std::string micros(f64 us) {
  if (!std::isfinite(us)) return "null";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

/// The comma-separated trace elements, in the order they were derived.
class TraceBuilder {
 public:
  /// One element; `dur_us` is used by complete spans ('X') only.
  void add(const std::string& name, const char* category, char phase, u32 pid,
           u32 tid, f64 ts_us, f64 dur_us, std::initializer_list<Arg> args) {
    if (!out_.empty()) out_ += ",\n";
    out_ += "{\"name\":\"" + common::json_escape(name) + "\",\"cat\":\"" +
            category + "\",\"ph\":\"" + phase + "\",\"ts\":" + micros(ts_us);
    if (phase == 'X') out_ += ",\"dur\":" + micros(dur_us);
    if (phase == 'i') out_ += ",\"s\":\"t\"";
    out_ += ",\"pid\":" + std::to_string(pid) +
            ",\"tid\":" + std::to_string(tid) + ",\"args\":{";
    bool first = true;
    for (const Arg& a : args) {
      if (!first) out_ += ',';
      first = false;
      out_ += '"';
      out_ += a.key;
      out_ += "\":";
      out_ += common::json_number(a.value);
    }
    out_ += "}}";
  }
  /// A process_name / thread_name metadata element.
  void name(const char* what, u32 pid, std::optional<u32> tid,
            const std::string& name) {
    if (!out_.empty()) out_ += ",\n";
    out_ += "{\"name\":\"" + std::string(what) +
            "\",\"ph\":\"M\",\"pid\":" + std::to_string(pid);
    if (tid.has_value()) out_ += ",\"tid\":" + std::to_string(*tid);
    out_ += ",\"args\":{\"name\":\"" + common::json_escape(name) + "\"}}";
  }
  [[nodiscard]] const std::string& text() const { return out_; }

 private:
  std::string out_;
};

/// A frame_start still waiting for its frame_end, plus the plan/QoS changes
/// recorded inside it on the same thread.
struct OpenFrame {
  FlightEvent start;
  std::optional<FlightEvent> repartition = std::nullopt;
  std::optional<FlightEvent> qos_transition = std::nullopt;
};

/// The last frame a ring closed: the sim_task events that follow it lay the
/// frame out on the simulated timeline.
struct ClosedFrame {
  OpenFrame frame;
  FlightEvent end;
  bool drawn = false;
  f64 cursor_ms = 0.0;
};

void draw_simulated_frame(TraceBuilder& trace, const ClosedFrame& f) {
  const f64 start_us = f.frame.start.b * 1000.0;
  const f64 measured_ms = f.end.a;
  const f64 budget_ms = f.end.b;
  trace.add("frame " + std::to_string(f.end.frame), "frame", 'X', kSimPid, 0,
            start_us, std::max(measured_ms, budget_ms) * 1000.0,
            {{"predicted_ms", f.frame.start.a},
             {"measured_ms", measured_ms},
             {"budget_ms", budget_ms}});
  // The output delay line holds an early frame until its budget instant.
  if (budget_ms > measured_ms + 1e-12) {
    trace.add("delay_line_hold", "delay-line", 'X', kSimPid, 0,
              start_us + measured_ms * 1000.0,
              (budget_ms - measured_ms) * 1000.0, {});
  }
  if (f.frame.repartition) {
    trace.add("repartition", "plan", 'i', kSimPid, 0, start_us, 0.0,
              {{"stripes", f.frame.repartition->a}});
  }
  if (f.frame.qos_transition) {
    trace.add("qos_level_change", "qos", 'i', kSimPid, 0, start_us, 0.0,
              {{"level", f.frame.qos_transition->a}});
  }
}

}  // namespace

std::string chrome_trace_json(std::span<const FlightEvent> events,
                              const NodeNamer& node_name) {
  TraceBuilder trace;
  // Host lane labels; the most specific role a lane showed wins over the
  // generic "thread <tid>".
  std::map<u32, std::string> host_lanes;
  auto label_lane = [&host_lanes](u32 tid, std::string label) {
    auto [it, inserted] = host_lanes.try_emplace(tid, label);
    if (!inserted && it->second.rfind("thread ", 0) == 0) {
      it->second = std::move(label);
    }
  };
  auto generic_lane = [&label_lane](u32 tid) {
    label_lane(tid, "thread " + std::to_string(tid));
  };
  std::vector<OpenFrame> open;
  std::map<u32, ClosedFrame> last_closed;  // by recorder thread
  bool simulated = false;
  i32 stripe_lanes = 0;

  for (const FlightEvent& e : events) {
    switch (e.type) {
      case FrEventType::TaskSpan:
        trace.add(node_name(e.node), "graph-task", 'X', kHostPid, e.tid,
                  e.ts_us - e.a * 1000.0, e.a * 1000.0,
                  {{"frame", static_cast<f64>(e.frame)}});
        generic_lane(e.tid);
        break;
      case FrEventType::PoolJob:
        trace.add("pool_job", "pool", 'X', kHostPid, e.tid,
                  e.ts_us - e.a * 1000.0, e.a * 1000.0, {});
        label_lane(e.tid, "pool worker " + std::to_string(e.tid));
        break;
      case FrEventType::StageEnd:
        trace.add("stage " + std::to_string(e.node), "exec-stage", 'X',
                  kHostPid, e.tid, e.ts_us - e.a * 1000.0, e.a * 1000.0,
                  {{"frame", static_cast<f64>(e.frame)}});
        label_lane(e.tid, "exec-stage " + std::to_string(e.node));
        break;
      case FrEventType::StageStart:
        break;  // the stage_end carries the span
      case FrEventType::LedgerCpu:
        trace.add("ledger " + node_name(e.node) + " cpu_ms", "ledger", 'C',
                  kHostPid, e.tid, e.ts_us, 0.0,
                  {{"predicted", e.a}, {"actual", e.b}});
        generic_lane(e.tid);
        break;
      case FrEventType::FrameStart:
        open.push_back(OpenFrame{e});
        break;
      case FrEventType::FrameEnd: {
        // Pair with the newest open start of the frame id, preferring the
        // same thread (streams on different threads reuse frame ids; a
        // pipelined frame starts and ends on different threads).
        auto newest = [&](bool same_thread) {
          return std::find_if(open.rbegin(), open.rend(),
                              [&](const OpenFrame& f) {
                                return f.start.frame == e.frame &&
                                       (!same_thread || f.start.tid == e.tid);
                              });
        };
        auto it = newest(true);
        if (it == open.rend()) it = newest(false);
        if (it == open.rend()) break;  // its start is older than the events
        const FlightEvent& start = it->start;
        trace.add("frame " + std::to_string(e.frame), "frame", 'X', kHostPid,
                  start.tid, start.ts_us, e.ts_us - start.ts_us,
                  {{"predicted_ms", start.a},
                   {"measured_ms", e.a},
                   {"deadline_ms", e.b}});
        generic_lane(start.tid);
        last_closed[e.tid] = ClosedFrame{*it, e};
        open.erase(std::next(it).base());
        break;
      }
      case FrEventType::SimTask: {
        const auto it = last_closed.find(e.tid);
        if (it == last_closed.end() || it->second.end.frame != e.frame) break;
        ClosedFrame& f = it->second;
        if (!f.drawn) {
          draw_simulated_frame(trace, f);
          f.drawn = true;
          f.cursor_ms = f.frame.start.b;
          simulated = true;
        }
        const std::string name = node_name(e.node);
        const f64 start_us = f.cursor_ms * 1000.0;
        trace.add(name, "task", 'X', kSimPid, 0, start_us, e.a * 1000.0,
                  {{"simulated_ms", e.a}});
        // A task striped s-ways occupies s simulated CPU lanes for its
        // (already striped) duration.
        const i32 stripes =
            e.b > 1.0 ? static_cast<i32>(std::min(e.b, kMaxStripeLanes)) : 1;
        if (stripes > 1) {
          for (i32 s = 0; s < stripes; ++s) {
            trace.add(name + " stripe " + std::to_string(s), "stripe", 'X',
                      kSimPid, narrow<u32>(s) + 1, start_us, e.a * 1000.0, {});
          }
          stripe_lanes = std::max(stripe_lanes, stripes);
        }
        f.cursor_ms += e.a;
        break;
      }
      default:
        if (e.type == FrEventType::Repartition ||
            e.type == FrEventType::QosTransition) {
          for (OpenFrame& f : open) {
            if (f.start.frame != e.frame || f.start.tid != e.tid) continue;
            (e.type == FrEventType::Repartition ? f.repartition
                                                : f.qos_transition) = e;
          }
        }
        trace.add(to_string(e.type), "flight", 'i', kHostPid, e.tid, e.ts_us,
                  0.0,
                  {{"frame", static_cast<f64>(e.frame)},
                   {"node", static_cast<f64>(e.node)},
                   {"a", e.a},
                   {"b", e.b}});
        generic_lane(e.tid);
        break;
    }
  }

  TraceBuilder names;
  names.name("process_name", kSimPid, std::nullopt, "simulated platform");
  names.name("process_name", kHostPid, std::nullopt, "host");
  if (simulated) names.name("thread_name", kSimPid, 0, "frames / tasks");
  for (i32 lane = 1; lane <= stripe_lanes; ++lane) {
    names.name("thread_name", kSimPid, narrow<u32>(lane),
               "stripe lane " + std::to_string(lane));
  }
  for (const auto& [tid, label] : host_lanes) {
    names.name("thread_name", kHostPid, tid, label);
  }
  std::string out = "{\"traceEvents\":[\n" + names.text();
  if (!trace.text().empty()) out += ",\n" + trace.text();
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace tc::obs
