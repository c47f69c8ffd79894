#include "graph/flowgraph.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"

namespace tc::graph {

i32 FlowGraph::add_task(std::unique_ptr<Task> task, Guard guard) {
  nodes_.push_back(Node{std::move(task), std::move(guard)});
  return narrow<i32>(nodes_.size()) - 1;
}

i32 FlowGraph::add_task(std::unique_ptr<Task> task, LegacyGuard guard) {
  Guard wrapped;
  if (guard) {
    wrapped = [g = std::move(guard)](FlowGraph& fg, ExecContext&) {
      return g(fg);
    };
  }
  return add_task(std::move(task), std::move(wrapped));
}

i32 FlowGraph::add_switch(std::string name, SwitchFn predicate) {
  switches_.push_back(Switch{std::move(name), std::move(predicate)});
  default_ctx_.switch_cache.emplace_back();
  return narrow<i32>(switches_.size()) - 1;
}

i32 FlowGraph::add_switch(std::string name, std::function<bool()> predicate) {
  return add_switch(std::move(name),
                    SwitchFn([p = std::move(predicate)](ExecContext&) {
                      return p();
                    }));
}

void FlowGraph::remove_switch(i32 sw) {
  if (sw < 0 || sw >= narrow<i32>(switches_.size())) {
    throw std::out_of_range("FlowGraph::remove_switch: switch id out of range");
  }
  switches_.erase(switches_.begin() + sw);
  default_ctx_.switch_cache.erase(default_ctx_.switch_cache.begin() + sw);
}

void FlowGraph::add_edge(i32 from, i32 to,
                         std::function<u64()> bytes_per_frame) {
  if (from < 0 || to < 0 || from >= narrow<i32>(nodes_.size()) ||
      to >= narrow<i32>(nodes_.size())) {
    throw std::out_of_range("FlowGraph::add_edge: node id out of range");
  }
  if (!bytes_per_frame) {
    throw std::invalid_argument(
        "FlowGraph::add_edge: bytes_per_frame must be callable (pass "
        "[] { return u64{0}; } for a pure ordering edge)");
  }
  edges_.push_back(Edge{from, to, std::move(bytes_per_frame)});
}

std::vector<std::string> FlowGraph::switch_names() const {
  std::vector<std::string> names;
  names.reserve(switches_.size());
  for (const Switch& s : switches_) names.push_back(s.name);
  return names;
}

bool FlowGraph::switch_value(i32 sw, ExecContext& ctx) {
  assert(sw >= 0 && sw < narrow<i32>(switches_.size()) &&
         "FlowGraph::switch_value: switch id out of range");
  if (ctx.switch_cache.size() < switches_.size()) {
    ctx.switch_cache.resize(switches_.size());
  }
  auto& cached = ctx.switch_cache[static_cast<usize>(sw)];
  if (!cached.has_value()) {
    cached = switches_[static_cast<usize>(sw)].predicate(ctx);
  }
  return *cached;
}

bool FlowGraph::switch_value(i32 sw) { return switch_value(sw, default_ctx_); }

std::vector<i32> FlowGraph::topological_order() const {
  const usize n = nodes_.size();
  std::vector<i32> indegree(n, 0);
  std::vector<std::vector<i32>> adj(n);
  for (const Edge& e : edges_) {
    adj[static_cast<usize>(e.from)].push_back(e.to);
    ++indegree[static_cast<usize>(e.to)];
  }
  std::vector<i32> order;
  order.reserve(n);
  // Stable Kahn: repeatedly take the lowest-id ready node so the order is
  // deterministic and respects insertion order for independent tasks.
  std::vector<bool> done(n, false);
  for (usize emitted = 0; emitted < n; ++emitted) {
    i32 pick = -1;
    for (usize i = 0; i < n; ++i) {
      if (!done[i] && indegree[i] == 0) {
        pick = narrow<i32>(i);
        break;
      }
    }
    if (pick < 0) throw std::logic_error("FlowGraph: cycle detected");
    done[static_cast<usize>(pick)] = true;
    order.push_back(pick);
    for (i32 next : adj[static_cast<usize>(pick)]) {
      --indegree[static_cast<usize>(next)];
    }
  }
  return order;
}

void FlowGraph::begin_frame(i32 frame_index, ExecContext& ctx) {
  ctx.frame = frame_index;
  ctx.switch_cache.assign(switches_.size(), std::nullopt);
}

void FlowGraph::run_nodes(std::span<const i32> order, ExecContext& ctx,
                          FrameRecord& record) {
  for (i32 node_id : order) {
    const Node& node = nodes_[static_cast<usize>(node_id)];
    TaskExecution exec;
    exec.node = node_id;
    bool enabled = !node.guard || node.guard(*this, ctx);
    if (enabled) {
      // Stamp the host wall-clock time of the task body: the concurrent
      // executor's measured signal (the simulated time comes later, from
      // the cost model).  With obs on it also closes a host task span.
      obs::ScopedTimer timer;
      std::optional<img::WorkReport> work = node.task->execute(ctx);
      exec.host_ms = timer.elapsed_ms();
      if (obs::enabled()) {
        obs::global().flight.record(obs::FrEventType::TaskSpan, ctx.frame,
                                    node_id, exec.host_ms);
      }
      if (work.has_value()) {
        exec.executed = true;
        exec.work = *work;
      }
    }
    record.tasks.push_back(std::move(exec));
  }
}

void FlowGraph::finalize_scenario(ExecContext& ctx, FrameRecord& record) {
  record.scenario = 0;
  for (usize s = 0; s < switches_.size(); ++s) {
    if (switch_value(narrow<i32>(s), ctx)) record.scenario |= (1u << s);
  }
}

FrameRecord FlowGraph::run_frame(i32 frame_index, ExecContext& ctx) {
  FrameRecord record;
  record.frame = frame_index;
  begin_frame(frame_index, ctx);

  const std::vector<i32> order = topological_order();
  record.tasks.reserve(order.size());
  run_nodes(order, ctx, record);
  finalize_scenario(ctx, record);
  return record;
}

FrameRecord FlowGraph::run_frame(i32 frame_index) {
  return run_frame(frame_index, default_ctx_);
}

}  // namespace tc::graph
