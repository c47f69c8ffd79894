#include "app/stentboost.hpp"
#include <algorithm>
#include <cmath>

#include <cassert>
#include <stdexcept>

#include "obs/obs.hpp"

namespace tc::app {

namespace {
constexpr std::array<std::string_view, kNodeCount> kNodeNames = {
    "RDG_FULL", "RDG_ROI", "MKX_FULL", "MKX_ROI", "CPLS_SEL",
    "REG",      "ROI_EST", "GW_EXT",   "ENH",     "ZOOM",
};
constexpr std::array<bool, kNodeCount> kDataParallel = {
    true,  true,  true,  true,  false,
    false, false, false, true,  true,
};

/// The frame context a graph-level execution context belongs to.
FrameContext& ctx_of(graph::ExecContext& g) {
  assert(g.user != nullptr);
  return *static_cast<FrameContext*>(g.user);
}
}  // namespace

std::string_view node_name(i32 node) {
  return kNodeNames[static_cast<usize>(node)];
}

bool node_data_parallel(i32 node) {
  return kDataParallel[static_cast<usize>(node)];
}

std::array<bool, kNodeCount> scenario_node_activity(
    graph::ScenarioId scenario) {
  const bool rdg = ((scenario >> kSwRdg) & 1u) != 0;
  const bool roi = ((scenario >> kSwRoi) & 1u) != 0;
  const bool reg = ((scenario >> kSwReg) & 1u) != 0;
  std::array<bool, kNodeCount> active{};
  active[kRdgFull] = rdg && !roi;
  active[kRdgRoi] = rdg && roi;
  active[kMkxFull] = !roi;
  active[kMkxRoi] = roi;
  active[kCplsSel] = true;
  active[kReg] = true;
  active[kRoiEst] = true;
  active[kGwExt] = rdg;
  active[kEnh] = reg;
  active[kZoom] = reg;
  return active;
}

StentBoostConfig StentBoostConfig::make(i32 width, i32 height, i32 frames,
                                        u64 seed) {
  StentBoostConfig c;
  c.sequence.width = width;
  c.sequence.height = height;
  c.sequence.frames = frames;
  c.sequence.seed = seed;
  c.zoom.output_width = width;
  c.zoom.output_height = height;

  // Scale the scene geometry and the matched algorithm parameters with the
  // rendering resolution (defaults are tuned for 512x512).
  const f64 geom = static_cast<f64>(width) / 512.0;
  c.sequence.marker_distance_px = 90.0 * geom;
  c.sequence.marker_radius_px = std::max(2.5, 4.0 * geom);
  c.sequence.motion.cardiac_amplitude_px = 18.0 * geom;
  c.sequence.motion.breathing_amplitude_px = 10.0 * geom;
  c.couples.prior_distance = c.sequence.marker_distance_px;
  c.couples.distance_tolerance = std::max(6.0, 12.0 * geom);
  // Reject couples built from weak (noise-level) candidates so tracking
  // cannot coast on clutter when the markers are obscured.
  c.couples.min_strength = 2.5 * static_cast<f64>(c.markers.detect_threshold);
  c.registration.max_displacement = std::max(15.0, 40.0 * geom);
  c.registration.motion_window = std::max(10, static_cast<i32>(24.0 * geom));
  c.roi.min_side = std::max(48, static_cast<i32>(96.0 * geom));
  // Marker detection grid: keep the decimated blob scale >= ~0.9 px so the
  // DoG suppresses quantum noise adequately at small rendering sizes.
  c.markers.decimation = width >= 256 ? 4 : 2;
  c.markers.blob_sigma = std::max(
      0.9, c.sequence.marker_radius_px / static_cast<f64>(c.markers.decimation));
  c.markers.background_sigma = 2.5 * c.markers.blob_sigma;
  // Quantum noise per pixel is resolution-independent while marker area
  // shrinks with the render size, so the darkness threshold must grow as
  // the decimated grid gets finer relative to the noise.
  c.markers.detect_threshold = width >= 256 ? 800.0f : 1600.0f;
  c.guidewire.search_radius = std::max(3, static_cast<i32>(6.0 * geom));
  // Report simulated times as if the application ran at the paper's
  // 1024x1024 format regardless of the rendering resolution.
  f64 rendered = static_cast<f64>(width) * static_cast<f64>(height);
  f64 paper = static_cast<f64>(c.paper_format.width) *
              static_cast<f64>(c.paper_format.height);
  c.cost.resolution_scale = paper / rendered;
  // Dominant structures are curvilinear, so their pixel count scales with
  // the image side, not its area (~1536 px at 1024^2).
  c.dominant_low = static_cast<u64>(1.5 * width);
  return c;
}

StentBoostApp::StentBoostApp(StentBoostConfig config, plat::ThreadPool* pool)
    : config_(std::move(config)),
      pool_(pool),
      sequence_(config_.sequence),
      cost_model_(config_.platform, config_.cost) {
  interference_.reserve(kNodeCount);
  for (i32 node = 0; node < kNodeCount; ++node) {
    interference_.emplace_back(config_.cost, static_cast<u64>(node));
  }
  // Task-labeled metrics and spans report the graph's node names.
  obs::global().set_node_namer(
      [](i32 node) { return std::string(node_name(node)); });
  build_graph();
}

void StentBoostApp::build_graph() {
  using graph::FlowGraph;

  // Switches (bit positions must match the Switch enum).  SW_RDG and SW_ROI
  // read the admission-time stream snapshot; SW_REG reads the registration
  // outcome of the frame itself.
  i32 sw_rdg = graph_.add_switch(
      "RDG", FlowGraph::SwitchFn(
                 [](graph::ExecContext& g) { return ctx_of(g).front.rdg_active; }));
  i32 sw_roi = graph_.add_switch(
      "ROI", FlowGraph::SwitchFn(
                 [](graph::ExecContext& g) { return ctx_of(g).front.roi_valid; }));
  i32 sw_reg = graph_.add_switch(
      "REG", FlowGraph::SwitchFn(
                 [](graph::ExecContext& g) { return ctx_of(g).reg_success; }));
  assert(sw_rdg == kSwRdg && sw_roi == kSwRoi && sw_reg == kSwReg);
  (void)sw_rdg;
  (void)sw_roi;
  (void)sw_reg;

  auto add = [this](i32 expected, std::string name, bool dp,
                    graph::LambdaTask::Fn fn, FlowGraph::Guard guard) {
    i32 id = graph_.add_task(
        graph::make_task(std::move(name), dp, std::move(fn)),
        std::move(guard));
    assert(id == expected);
    (void)id;
    (void)expected;
  };

  add(kRdgFull, "RDG_FULL", true,
      [this](graph::ExecContext& g) { return run_rdg(ctx_of(g), false); },
      [](FlowGraph& g, graph::ExecContext& c) {
        return g.switch_value(kSwRdg, c) && !g.switch_value(kSwRoi, c);
      });
  add(kRdgRoi, "RDG_ROI", true,
      [this](graph::ExecContext& g) { return run_rdg(ctx_of(g), true); },
      [](FlowGraph& g, graph::ExecContext& c) {
        return g.switch_value(kSwRdg, c) && g.switch_value(kSwRoi, c);
      });
  add(kMkxFull, "MKX_FULL", true,
      [this](graph::ExecContext& g) { return run_mkx(ctx_of(g), false); },
      [](FlowGraph& g, graph::ExecContext& c) {
        return !g.switch_value(kSwRoi, c);
      });
  add(kMkxRoi, "MKX_ROI", true,
      [this](graph::ExecContext& g) { return run_mkx(ctx_of(g), true); },
      [](FlowGraph& g, graph::ExecContext& c) {
        return g.switch_value(kSwRoi, c);
      });
  add(kCplsSel, "CPLS_SEL", false,
      [this](graph::ExecContext& g) { return run_cpls(ctx_of(g)); }, {});
  add(kReg, "REG", false,
      [this](graph::ExecContext& g) { return run_reg(ctx_of(g)); }, {});
  add(kRoiEst, "ROI_EST", false,
      [this](graph::ExecContext& g) { return run_roi_est(ctx_of(g)); }, {});
  add(kGwExt, "GW_EXT", false,
      [this](graph::ExecContext& g) { return run_gw(ctx_of(g)); }, {});
  add(kEnh, "ENH", true,
      [this](graph::ExecContext& g) { return run_enh(ctx_of(g)); },
      [](FlowGraph& g, graph::ExecContext& c) {
        return g.switch_value(kSwReg, c);
      });
  add(kZoom, "ZOOM", true,
      [this](graph::ExecContext& g) { return run_zoom(ctx_of(g)); },
      [](FlowGraph& g, graph::ExecContext& c) {
        return g.switch_value(kSwReg, c);
      });

  // Edges: execution order plus the buffer flows of Fig. 2.  Byte counts
  // reflect the producer's output at the current granularity (edges are
  // queried at analysis time, so they read the committed stream state).
  const auto full_pixels = [this] {
    return static_cast<u64>(config_.sequence.width) *
           static_cast<u64>(config_.sequence.height);
  };
  const auto roi_px = [this, full_pixels] {
    FrontState front = stream_.front();
    return front.roi_valid ? static_cast<u64>(front.roi.area()) : full_pixels();
  };

  graph_.add_edge(kRdgFull, kMkxFull,
                  [=] { return full_pixels() * 2 * sizeof(f32); });
  graph_.add_edge(kRdgRoi, kMkxRoi, [=] { return roi_px() * 2 * sizeof(f32); });
  graph_.add_edge(kMkxFull, kCplsSel,
                  [] { return u64{96} * sizeof(img::MarkerCandidate); });
  graph_.add_edge(kMkxRoi, kCplsSel,
                  [] { return u64{96} * sizeof(img::MarkerCandidate); });
  graph_.add_edge(kCplsSel, kReg, [] { return u64{sizeof(img::Couple)}; });
  graph_.add_edge(kReg, kRoiEst,
                  [] { return u64{sizeof(img::RegistrationResult)}; });
  graph_.add_edge(kRoiEst, kGwExt, [] { return u64{sizeof(Rect)}; });
  graph_.add_edge(kGwExt, kEnh,
                  [] { return u64{64} * sizeof(Point2f); });
  graph_.add_edge(kReg, kEnh,
                  [=] { return full_pixels() * sizeof(u16); });
  graph_.add_edge(kEnh, kZoom, [=] { return roi_px() * sizeof(f32); });

  // Stage split for pipelined execution: ENH and ZOOM form the back end.
  // All front nodes precede them in the topological order (ENH depends on
  // GW_EXT, the last front node), so the concatenation front + back is the
  // full topological order and record layouts match serial execution.
  front_order_.clear();
  back_order_.clear();
  for (i32 node : graph_.topological_order()) {
    if (node == kEnh || node == kZoom) {
      back_order_.push_back(node);
    } else {
      front_order_.push_back(node);
    }
  }
}

FrameContext* StentBoostApp::acquire_context() {
  common::MutexLock lock(ctx_mutex_);
  if (!free_ctx_.empty()) {
    FrameContext* ctx = free_ctx_.back();
    free_ctx_.pop_back();
    return ctx;
  }
  contexts_.push_back(std::make_unique<FrameContext>());
  return contexts_.back().get();
}

void StentBoostApp::recycle_context(FrameContext* ctx) {
  common::MutexLock lock(ctx_mutex_);
  free_ctx_.push_back(ctx);
}

img::ImageU16 StentBoostApp::render_frame(i32 t) const {
  // One row band per thread of the frame's pool share, run on the pool;
  // the bytes do not depend on the split.
  const i32 share = budget_.pool_share;
  if (pool_ == nullptr || share <= 1) return sequence_.render(t);
  return sequence_.render(
      t, [this, share](i32 rows, const std::function<void(IndexRange)>& body) {
        pool_->parallel_ranges(rows, share,
                               [&body](i32, IndexRange band) { body(band); });
      });
}

FrameContext* StentBoostApp::admit_frame(i32 t) {
  return admit_image(t, render_frame(t));
}

FrameContext* StentBoostApp::admit_image(i32 t, const img::ImageU16& frame) {
  FrameContext* ctx = acquire_context();

  // Reuse a frame-image allocation once the stream's prev_frame reference
  // moved past it (use_count() == 1 means only the slot holds it).
  std::shared_ptr<img::ImageF32> image;
  for (std::shared_ptr<img::ImageF32>& slot : ctx->image_slots) {
    if (slot != nullptr && slot.use_count() == 1) {
      image = slot;
      break;
    }
  }
  if (image == nullptr) {
    image = std::make_shared<img::ImageF32>();
    for (std::shared_ptr<img::ImageF32>& slot : ctx->image_slots) {
      if (slot == nullptr) {
        slot = image;
        break;
      }
    }
  }
  img::to_f32(frame, *image);
  ctx->image = std::move(image);

  ctx->frame = t;
  ctx->ticket = stream_.admit(ctx->front);

  // Reset the per-frame outputs (buffers keep their allocations).
  ctx->ridge.dominant_pixels = 0;
  ctx->ridge.work = img::WorkReport{};
  ctx->ridge_valid = false;
  ctx->markers = img::MarkerResult{};
  ctx->couple.reset();
  ctx->reg = img::RegistrationResult{};
  ctx->reg_success = false;
  ctx->roi = ctx->front.roi;
  ctx->gw_ran = false;
  ctx->gw_found = false;
  for (auto& reports : ctx->stripe_reports) reports.clear();
  ctx->record = graph::FrameRecord{};
  ctx->record.frame = t;
  ctx->record.tasks.reserve(kNodeCount);

  // Knob snapshots: a set_* call only affects frames admitted afterwards.
  ctx->plan = plan_;
  ctx->budget = budget_;
  ctx->qos_extra_decim = qos_extra_decim_;
  ctx->qos_skip_gw = qos_skip_gw_;
  ctx->qos_zoom_div = qos_zoom_div_;

  const Rect full = Rect{0, 0, ctx->image->width(), ctx->image->height()};
  ctx->roi_for_frame = ctx->front.roi_valid ? ctx->front.roi : full;
  ctx->roi_pixels = static_cast<f64>(ctx->roi_for_frame.area()) *
                    config_.cost.resolution_scale;

  ctx->gctx.user = ctx;
  graph_.begin_frame(t, ctx->gctx);

  if (obs::enabled()) {
    obs::global().flight.record(obs::FrEventType::CtxAdmit, t, -1,
                                static_cast<f64>(ctx->ticket));
  }
  return ctx;
}

void StentBoostApp::run_front(FrameContext& ctx) {
  graph_.run_nodes(front_order_, ctx.gctx, ctx.record);
  stream_.commit_front(ctx.ticket, advance_front(ctx));
  if (obs::enabled()) {
    obs::global().flight.record(obs::FrEventType::CtxCommit, ctx.frame, -1,
                                static_cast<f64>(ctx.ticket), 0.0);
  }
}

void StentBoostApp::run_back(FrameContext& ctx) {
  stream_.acquire_back(ctx.ticket, ctx.back);
  graph_.run_nodes(back_order_, ctx.gctx, ctx.record);
  // SW_REG: a failed registration restarts the temporal integration (the
  // reference ROI is kept, matching the serial application).
  if (!ctx.reg_success) {
    ctx.back.accumulator = img::ImageF32();
    ctx.back.ref_couple.reset();
  }
  stream_.commit_back(ctx.ticket, std::move(ctx.back));
  ctx.back = BackState{};
  if (obs::enabled()) {
    obs::global().flight.record(obs::FrEventType::CtxCommit, ctx.frame, -1,
                                static_cast<f64>(ctx.ticket), 1.0);
  }
}

graph::FrameRecord StentBoostApp::retire_frame(FrameContext& ctx) {
  graph_.finalize_scenario(ctx.gctx, ctx.record);
  ctx.record.roi_pixels = ctx.roi_pixels;
  assign_costs(ctx);

  if (obs::enabled()) {
    obs::global()
        .metrics
        .counter("tripleC_scenario_frames_total", "Frames per active scenario",
                 obs::label("scenario", std::to_string(ctx.record.scenario)))
        .add();
  }

  graph::FrameRecord record = std::move(ctx.record);
  ctx.record = graph::FrameRecord{};
  last_ctx_ = &ctx;
  recycle_context(&ctx);
  return record;
}

graph::FrameRecord StentBoostApp::process_frame(i32 t) {
  return process_image(t, render_frame(t));
}

graph::FrameRecord StentBoostApp::process_image(i32 t,
                                                const img::ImageU16& frame) {
  obs::ScopedTimer wall;

  FrameContext& ctx = *admit_image(t, frame);
  run_front(ctx);
  run_back(ctx);
  graph::FrameRecord record = retire_frame(ctx);

  if (obs::enabled()) {
    obs::global()
        .metrics
        .histogram("tripleC_host_frame_wall_ms",
                   "Host wall-clock time per processed frame",
                   obs::latency_buckets_ms())
        .record(wall.elapsed_ms());
  }
  return record;
}

std::vector<graph::FrameRecord> StentBoostApp::run(i32 n) {
  std::vector<graph::FrameRecord> records;
  records.reserve(static_cast<usize>(n));
  for (i32 t = 0; t < n; ++t) records.push_back(process_frame(t));
  return records;
}

void StentBoostApp::reset() {
  stream_.reset();
  {
    common::MutexLock lock(ctx_mutex_);
    free_ctx_.clear();
    contexts_.clear();
  }
  last_ctx_ = nullptr;
  for (auto& p : interference_) p.reset();
}

bool StentBoostApp::last_reg_success() const {
  return last_ctx_ != nullptr && last_ctx_->reg_success;
}

const img::ImageU16& StentBoostApp::last_output() const {
  static const img::ImageU16 kEmpty;
  return last_ctx_ != nullptr ? last_ctx_->output : kEmpty;
}

const img::RidgeResult* StentBoostApp::last_ridge() const {
  return last_ctx_ != nullptr && last_ctx_->ridge_valid ? &last_ctx_->ridge
                                                        : nullptr;
}

usize StentBoostApp::last_candidate_count() const {
  return last_ctx_ != nullptr ? last_ctx_->markers.candidates.size() : 0;
}

f64 StentBoostApp::roi_pixels_of_frame() const {
  return last_ctx_ != nullptr ? last_ctx_->roi_pixels : 0.0;
}

void StentBoostApp::run_instances(
    FrameContext& ctx, i32 node, i32 count, i32 instances,
    const std::function<void(i32, IndexRange)>& body) {
  if (instances > 1 && obs::enabled()) {
    obs::global().flight.record(obs::FrEventType::InstanceFanout, ctx.frame,
                                node, static_cast<f64>(instances),
                                static_cast<f64>(count));
  }
  if (pool_ != nullptr && instances > 1 && ctx.budget.max_concurrent != 1) {
    // At most max_concurrent instances in flight (0 = the pool's width).
    pool_->parallel_ranges(count, instances, body, ctx.budget.max_concurrent);
  } else {
    for (i32 i = 0; i < instances; ++i) {
      body(i, plat::even_chunk(count, instances, i));
    }
  }
}

std::optional<img::WorkReport> StentBoostApp::run_rdg(FrameContext& ctx,
                                                      bool roi_mode) {
  const img::ImageF32& frame = *ctx.image;
  const Rect full = Rect{0, 0, frame.width(), frame.height()};
  const Rect r = clamp_rect(roi_mode && ctx.front.roi_valid ? ctx.front.roi
                                                            : full,
                            frame.width(), frame.height());
  const i32 node = roi_mode ? kRdgRoi : kRdgFull;
  const i32 stripes = ctx.plan[static_cast<usize>(node)];

  // Output images are reused across frames, and every pixel outside `r`
  // must read zero (GW_EXT samples the response along the marker chord,
  // which can leave the ROI).  Outside the rectangle the context's last RDG
  // wrote they already are, so only that rectangle is cleared before any
  // instance writes — or the whole planes, when ensure() reshaped them.
  img::ImageF32& response = ctx.ridge.response;
  img::ImageF32& blobness = ctx.ridge.blobness;
  if (response.width() != frame.width() ||
      response.height() != frame.height() ||
      blobness.width() != frame.width() ||
      blobness.height() != frame.height()) {
    response.ensure(frame.width(), frame.height());
    blobness.ensure(frame.width(), frame.height());
    response.fill(0.0f);
    blobness.fill(0.0f);
  } else {
    const Rect& old = ctx.ridge_written;
    for (i32 y = old.y; y < old.y + old.h; ++y) {
      std::fill_n(response.row(y) + old.x, old.w, 0.0f);
      std::fill_n(blobness.row(y) + old.x, old.w, 0.0f);
    }
  }
  ctx.ridge_written = r;
  ctx.ridge.dominant_pixels = 0;

  // One scratch set per instance, sized here on the calling thread: a
  // striped frame then allocates nothing on the pool's workers (whose
  // per-thread heaps keep what they allocated), and a change of the
  // instance count frees the old sets before the new bands allocate, so a
  // full-frame serial scratch and a striped frame's bands are never
  // resident together — memory follows the frame, not the plan history.
  const i32 instances = std::max(stripes, 1);
  if (ctx.ridge_scratch.size() != static_cast<usize>(instances)) {
    std::vector<img::RidgeScratch>(static_cast<usize>(instances))
        .swap(ctx.ridge_scratch);
  }
  for (i32 b = 0; b < instances; ++b) {
    const IndexRange band = plat::even_chunk(r.h, instances, b);
    ctx.ridge_scratch[static_cast<usize>(b)].ensure_for(
        frame, r, IndexRange{r.y + band.lo, r.y + band.hi});
  }

  if (stripes <= 1) {
    img::WorkReport work;
    img::ridge_detect_rows(frame, r, config_.ridge, ctx.ridge.response,
                           ctx.ridge.blobness, IndexRange{r.y, r.y + r.h},
                           ctx.ridge.dominant_pixels, work,
                           &ctx.ridge_scratch[0]);
    work.data_parallel = true;
    ctx.ridge.work = work;
    ctx.ridge_valid = true;
    return work;
  }

  // Instance-parallel execution: disjoint output row bands, bit-identical
  // to the serial run.
  std::vector<img::WorkReport> reports(static_cast<usize>(stripes));
  std::vector<u64> dominant(static_cast<usize>(stripes), 0);
  auto run_band = [&](i32 band, IndexRange rows) {
    IndexRange abs_rows{r.y + rows.lo, r.y + rows.hi};
    img::ridge_detect_rows(frame, r, config_.ridge, ctx.ridge.response,
                           ctx.ridge.blobness, abs_rows,
                           dominant[static_cast<usize>(band)],
                           reports[static_cast<usize>(band)],
                           &ctx.ridge_scratch[static_cast<usize>(band)]);
  };
  run_instances(ctx, node, r.h, stripes, run_band);
  img::WorkReport total;
  for (usize b = 0; b < reports.size(); ++b) {
    total += reports[b];
    ctx.ridge.dominant_pixels += dominant[b];
  }
  total.data_parallel = true;
  ctx.stripe_reports[static_cast<usize>(node)] = std::move(reports);
  ctx.ridge.work = total;
  ctx.ridge_valid = true;
  return total;
}

std::optional<img::WorkReport> StentBoostApp::run_mkx(FrameContext& ctx,
                                                      bool roi_mode) {
  const img::ImageF32& frame = *ctx.image;
  const Rect full = Rect{0, 0, frame.width(), frame.height()};
  const Rect r = roi_mode && ctx.front.roi_valid ? ctx.front.roi : full;
  const img::RidgeResult* ridge = ctx.ridge_valid ? &ctx.ridge : nullptr;
  img::MarkerParams params = config_.markers;
  if (ctx.qos_extra_decim > 1) {
    // QoS degradation: coarser detection grid, matched blob scales.
    params.decimation *= ctx.qos_extra_decim;
    params.blob_sigma =
        std::max(0.7, params.blob_sigma / ctx.qos_extra_decim);
    params.background_sigma = 2.5 * params.blob_sigma;
  }
  if (clamp_rect(r, frame.width(), frame.height()).empty()) {
    ctx.markers = img::MarkerResult{};
    return ctx.markers.work;
  }

  // Grid preparation is a serial prologue; cell extraction fans out as
  // candidate-batch instances over NMS cell rows.
  img::MarkerGrid grid = img::marker_grid(frame, r, params);
  const i32 node = roi_mode ? kMkxRoi : kMkxFull;
  const i32 instances =
      std::clamp(std::max(ctx.plan[static_cast<usize>(node)],
                          std::min(ctx.budget.pool_share, kMaxFeatureBatches)),
                 1, std::max(grid.cell_rows, 1));
  std::vector<img::MarkerBatch> batches(static_cast<usize>(instances));
  run_instances(ctx, node, grid.cell_rows, instances,
                [&](i32 b, IndexRange cells) {
                  batches[static_cast<usize>(b)] = img::extract_marker_cells(
                      frame, grid, params, ridge, cells);
                });
  ctx.markers = img::finalize_markers(
      grid, params, ridge != nullptr,
      std::span<const img::MarkerBatch>(batches));
  return ctx.markers.work;
}

std::optional<img::WorkReport> StentBoostApp::run_cpls(FrameContext& ctx) {
  const img::Couple* prior = ctx.front.prev_couple.has_value()
                                 ? &*ctx.front.prev_couple
                                 : nullptr;
  const i32 n = narrow<i32>(ctx.markers.candidates.size());
  const i32 instances =
      std::clamp(std::min(ctx.budget.pool_share, kMaxFeatureBatches), 1,
                 std::max(n, 1));
  std::vector<img::CouplePartial> partials(static_cast<usize>(instances));
  run_instances(ctx, kCplsSel, n, instances, [&](i32 b, IndexRange range) {
    partials[static_cast<usize>(b)] = img::select_couple_rows(
        ctx.markers.candidates, config_.couples, prior, range);
  });
  img::CoupleResult result = img::merge_couple_partials(
      std::span<const img::CouplePartial>(partials),
      ctx.markers.candidates.size());
  ctx.couple = result.best;
  return result.work;
}

std::optional<img::WorkReport> StentBoostApp::run_reg(FrameContext& ctx) {
  if (!ctx.couple.has_value() || !ctx.front.prev_couple.has_value() ||
      ctx.front.prev_frame == nullptr) {
    ctx.reg_success = false;
    return std::nullopt;
  }
  ctx.reg = img::register_couple(*ctx.front.prev_couple, *ctx.couple,
                                 *ctx.front.prev_frame, *ctx.image,
                                 config_.registration);
  ctx.reg_success = ctx.reg.success;
  return ctx.reg.work;
}

std::optional<img::WorkReport> StentBoostApp::run_roi_est(FrameContext& ctx) {
  if (!ctx.couple.has_value()) return std::nullopt;
  const img::ImageF32& frame = *ctx.image;
  img::RoiResult result = img::estimate_roi(*ctx.couple, frame.width(),
                                            frame.height(), config_.roi);
  ctx.roi = result.roi;
  if (config_.roi_side_override > 0) {
    const i32 s = config_.roi_side_override;
    const i32 cx =
        narrow<i32>(std::lround(0.5 * (ctx.couple->a.x + ctx.couple->b.x)));
    const i32 cy =
        narrow<i32>(std::lround(0.5 * (ctx.couple->a.y + ctx.couple->b.y)));
    ctx.roi = clamp_rect(Rect{cx - s / 2, cy - s / 2, s, s}, frame.width(),
                         frame.height());
  }
  return result.work;
}

std::optional<img::WorkReport> StentBoostApp::run_gw(FrameContext& ctx) {
  if (ctx.qos_skip_gw) return std::nullopt;
  if (!ctx.couple.has_value() || !ctx.ridge_valid) return std::nullopt;
  img::GuideWireResult result =
      img::extract_guidewire(ctx.ridge, *ctx.couple, config_.guidewire);
  ctx.gw_found = result.found;
  ctx.gw_ran = true;
  return result.work;
}

std::optional<img::WorkReport> StentBoostApp::run_enh(FrameContext& ctx) {
  if (!ctx.reg_success || !ctx.couple.has_value()) return std::nullopt;
  if (ctx.back.accumulator.empty() || !ctx.back.ref_couple.has_value()) {
    // Integration (re)starts: the current couple defines the reference.
    ctx.back.ref_couple = ctx.couple;
  }
  // Crop rectangle in reference coordinates: current ROI dimensions centred
  // on the reference couple (the stent is stabilized there).
  const img::ImageF32& frame = *ctx.image;
  const Rect full = Rect{0, 0, frame.width(), frame.height()};
  const Rect cur_roi = !ctx.roi.empty() ? ctx.roi : full;
  const i32 rcx = narrow<i32>(
      std::lround(0.5 * (ctx.back.ref_couple->a.x + ctx.back.ref_couple->b.x)));
  const i32 rcy = narrow<i32>(
      std::lround(0.5 * (ctx.back.ref_couple->a.y + ctx.back.ref_couple->b.y)));
  ctx.back.ref_roi = clamp_rect(
      Rect{rcx - cur_roi.w / 2, rcy - cur_roi.h / 2, cur_roi.w, cur_roi.h},
      frame.width(), frame.height());
  // The warp-and-blend is row-local: its row bands run as stripe instances,
  // bit-identical to a serial run.  ENH keeps one WorkReport (priced from
  // dimensions), so the simulated cost does not depend on the host split.
  const i32 stripes = ctx.plan[kEnh];
  img::RowBandRunner bands;
  if (stripes > 1) {
    bands = [&](i32 rows, const std::function<void(IndexRange)>& body) {
      run_instances(ctx, kEnh, rows, stripes,
                    [&](i32, IndexRange band) { body(band); });
    };
  }
  img::EnhanceResult result = img::enhance(
      frame, ctx.back.ref_roi, std::move(ctx.back.accumulator), *ctx.couple,
      *ctx.back.ref_couple, config_.enhance, bands);
  ctx.back.accumulator = std::move(result.accumulator);
  ctx.enhanced_roi = std::move(result.enhanced_roi);
  return result.work;
}

std::optional<img::WorkReport> StentBoostApp::run_zoom(FrameContext& ctx) {
  if (ctx.enhanced_roi.empty()) return std::nullopt;
  img::ZoomParams zoom_params = config_.zoom;
  zoom_params.output_width =
      std::max(16, zoom_params.output_width / ctx.qos_zoom_div);
  zoom_params.output_height =
      std::max(16, zoom_params.output_height / ctx.qos_zoom_div);
  const i32 stripes = ctx.plan[kZoom];
  // Every output pixel is written below, so stale reused contents are fine.
  ctx.output.ensure(zoom_params.output_width, zoom_params.output_height);
  if (stripes <= 1) {
    img::WorkReport work;
    img::zoom_rows(ctx.enhanced_roi, zoom_params, ctx.output,
                   IndexRange{0, zoom_params.output_height}, work);
    work.data_parallel = true;
    return work;
  }
  std::vector<img::WorkReport> reports(static_cast<usize>(stripes));
  auto run_band = [&](i32 band, IndexRange rows) {
    img::zoom_rows(ctx.enhanced_roi, zoom_params, ctx.output, rows,
                   reports[static_cast<usize>(band)]);
  };
  run_instances(ctx, kZoom, zoom_params.output_height, stripes, run_band);
  img::WorkReport total;
  for (const img::WorkReport& w : reports) total += w;
  total.data_parallel = true;
  ctx.stripe_reports[kZoom] = std::move(reports);
  return total;
}

void StentBoostApp::set_quality(i32 extra_mkx_decimation, bool skip_guidewire,
                                i32 zoom_divisor) {
  qos_extra_decim_ = std::max(1, extra_mkx_decimation);
  qos_skip_gw_ = skip_guidewire;
  qos_zoom_div_ = std::max(1, zoom_divisor);
}

void StentBoostApp::assign_costs(FrameContext& ctx) {
  f64 latency = 0.0;
  for (graph::TaskExecution& exec : ctx.record.tasks) {
    if (!exec.executed) continue;
    const usize node = static_cast<usize>(exec.node);
    plat::TaskCost cost;
    if (!ctx.stripe_reports[node].empty()) {
      cost = cost_model_.striped_cost(ctx.stripe_reports[node]);
    } else {
      i32 stripes = node_data_parallel(exec.node) ? ctx.plan[node] : 1;
      cost = stripes > 1 ? cost_model_.striped_cost(exec.work, stripes)
                         : cost_model_.serial_cost(exec.work);
    }
    // Platform interference (cache misses, task switching) — the paper's
    // short-term fluctuation source.
    f64 factor = interference_[node].next();
    exec.simulated_ms = cost.total_ms * factor;
    latency += exec.simulated_ms;
    if (obs::enabled()) {
      obs::global()
          .metrics
          .histogram("tripleC_task_simulated_ms",
                     "Simulated execution time per task",
                     obs::latency_buckets_ms(),
                     obs::label("task", node_name(exec.node)))
          .record(exec.simulated_ms);
    }
  }
  ctx.record.latency_ms = latency;
}

FrontState StentBoostApp::advance_front(const FrameContext& ctx) const {
  FrontState next = ctx.front;

  // SW_RDG hysteresis.
  if (ctx.ridge_valid) {
    if (ctx.ridge.dominant_pixels < config_.dominant_low) {
      ++next.quiet_frames;
    } else {
      next.quiet_frames = 0;
    }
    if (next.quiet_frames >= config_.rdg_off_after) {
      next.rdg_active = false;
      next.quiet_frames = 0;
    }
  } else if (ctx.markers.candidates.size() > config_.clutter_high) {
    next.rdg_active = true;
    next.quiet_frames = 0;
  }

  // SW_ROI: the ROI estimated this frame becomes next frame's granularity.
  // A failed guide-wire check (when it ran) invalidates the couple, so the
  // next frame re-acquires from scratch.
  std::optional<img::Couple> carried = ctx.couple;
  bool roi_ok = carried.has_value() && !ctx.roi.empty();
  if (ctx.gw_ran && !ctx.gw_found) {
    roi_ok = false;
    carried.reset();
  }
  next.roi_valid = roi_ok && !config_.force_full_frame;
  next.roi = ctx.roi;
  next.prev_couple = std::move(carried);
  next.prev_frame = ctx.image;
  return next;
}

}  // namespace tc::app
