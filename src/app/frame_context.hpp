// Per-frame execution context and cross-frame stream state of the StentBoost
// application (ROADMAP item 3: node → slot-task → instance architecture).
//
// A FrameContext carries everything one in-flight frame needs: the frame
// image (immutable input), the admission-time snapshot of the cross-frame
// state (switch values, prior-frame ROI/registration results), and the
// frame's owned outputs (stage results, per-node WorkReports, the
// FrameRecord under construction).  Because every mutable datum lives in the
// context, several frames can traverse the flow graph concurrently.
//
// The small amount of genuinely cross-frame state lives in StreamState,
// which is explicitly synchronized and ticket-ordered: a frame *admits*
// (reads a snapshot), executes against its context only, and *commits* its
// successor state when its producing stage retires.  The state is split by
// producing stage — FrontState is committed by the analysis front of the
// graph (RDG..GW_EXT), BackState by the enhancement back end (ENH, ZOOM) —
// so the back end of frame t-1 can overlap the front of frame t without
// either seeing a half-updated stream.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "common/sync.hpp"
#include "graph/exec_context.hpp"
#include "graph/record.hpp"
#include "imaging/pipeline.hpp"

namespace tc::app {

/// Forward-declared here so FrameContext can size its per-node arrays; the
/// authoritative definition is the Node enum in app/stentboost.hpp.
inline constexpr i32 kFrameNodeCount = 10;

/// Per-frame host resource budget derived from the Triple-C plan choice
/// (rt::budget_for_plan).  The budget throttles *host* concurrency only —
/// instance decomposition (and hence every WorkReport) is a function of the
/// stripe plan alone, so simulated results never depend on the budget.
struct InstanceBudget {
  /// Maximum stripe/batch instances of one slot task executing concurrently
  /// on the shared pool.  0 = unlimited (pool size); 1 = run the instances
  /// sequentially on the slot's own thread.
  i32 max_concurrent = 0;
  /// This frame's share of the pool (threads / frames in flight): the row
  /// bands the synthetic camera renders in and, capped at
  /// kMaxFeatureBatches, the candidate-batch instances of the feature-level
  /// stages (MKX cell-row batches, CPLS_SEL first-index batches).
  i32 pool_share = 1;
};

/// Most candidate-batch instances a feature-level stage fans out into.
inline constexpr i32 kMaxFeatureBatches = 4;

/// Cross-frame state produced by the analysis front (RDG..GW_EXT) of frame
/// t and consumed at the admission of frame t+1.
struct FrontState {
  /// SW_RDG hysteresis machine.
  bool rdg_active = true;
  i32 quiet_frames = 0;
  /// SW_ROI: was an ROI estimated on a previous frame?
  bool roi_valid = false;
  Rect roi{};
  /// Tracking prior for CPLS_SEL (couple of the previous frame, dropped
  /// when the guide-wire check rejected it).
  std::optional<img::Couple> prev_couple;
  /// Previous frame pixels for REG's temporal difference (shares ownership
  /// with the producing context's image — no copy).
  std::shared_ptr<const img::ImageF32> prev_frame;
};

/// Cross-frame state produced by the enhancement back end (ENH) of frame t
/// and consumed by the back end of frame t+1.
struct BackState {
  /// Temporal-integration accumulator in reference coordinates.
  img::ImageF32 accumulator;
  /// Marker couple of the frame the integration reference is aligned to.
  std::optional<img::Couple> ref_couple;
  /// Crop rectangle (reference coordinates) of the latest enhanced ROI.
  Rect ref_roi{};
};

/// Explicitly-synchronized cross-frame state.  Frames obtain a monotonic
/// admission ticket; reads and commits are serialized in ticket order, so
/// out-of-order callers block until their predecessor committed — the
/// pipeline stays deterministic no matter how stages interleave.
class StreamState {
 public:
  /// Admit the next frame: assigns its ticket, waits until the previous
  /// frame's front committed, and snapshots the front state into `out`.
  [[nodiscard]] u64 admit(FrontState& out) TC_EXCLUDES(mutex_);

  /// Commit the front state produced by ticket `t` (blocks until every
  /// earlier ticket committed, so commits apply in admission order).
  void commit_front(u64 ticket, FrontState next) TC_EXCLUDES(mutex_);

  /// Acquire the back state for ticket `t` (waits for ticket t-1's back
  /// commit); the state is moved out, the caller commits its successor.
  void acquire_back(u64 ticket, BackState& out) TC_EXCLUDES(mutex_);

  void commit_back(u64 ticket, BackState next) TC_EXCLUDES(mutex_);

  /// Locked copies for inspection (analysis-time edge queries, tests).
  [[nodiscard]] FrontState front() const TC_EXCLUDES(mutex_);
  [[nodiscard]] std::optional<img::Couple> back_ref_couple() const
      TC_EXCLUDES(mutex_);
  [[nodiscard]] Rect back_ref_roi() const TC_EXCLUDES(mutex_);

  /// Tickets handed out so far (== frames admitted).
  [[nodiscard]] u64 tickets_issued() const TC_EXCLUDES(mutex_);

  /// Restore the initial state.  Must not race in-flight frames.
  void reset() TC_EXCLUDES(mutex_);

 private:
  mutable common::Mutex mutex_;
  common::CondVar cv_;
  FrontState front_ TC_GUARDED_BY(mutex_);
  BackState back_ TC_GUARDED_BY(mutex_);
  u64 next_ticket_ TC_GUARDED_BY(mutex_) = 0;
  u64 front_committed_ TC_GUARDED_BY(mutex_) = 0;
  u64 back_committed_ TC_GUARDED_BY(mutex_) = 0;
};

/// Everything one in-flight frame owns.  Contexts are pooled and recycled
/// by StentBoostApp; large buffers (frame image, ridge images, per-instance
/// scratch) keep their allocations across frames.
struct FrameContext {
  i32 frame = -1;
  u64 ticket = 0;

  /// Frame pixels (immutable input).  Two rotating slots let the admission
  /// path reuse an allocation as soon as the stream's prev_frame reference
  /// moved on.
  std::shared_ptr<img::ImageF32> image;
  std::array<std::shared_ptr<img::ImageF32>, 2> image_slots;

  /// Admission-time snapshot of the cross-frame front state.
  FrontState front;
  /// Back state acquired (moved in) by the back stage, committed at retire.
  BackState back;

  /// Per-frame copies of the app-level knobs (plan, budget, QoS) so a
  /// mid-stream set_* call only affects frames admitted afterwards.
  std::array<i32, kFrameNodeCount> plan{};
  InstanceBudget budget;
  i32 qos_extra_decim = 1;
  bool qos_skip_gw = false;
  i32 qos_zoom_div = 1;

  /// ROI granularity driver of this frame (full frame when no valid ROI).
  Rect roi_for_frame{};
  f64 roi_pixels = 0.0;

  // --- owned stage outputs -------------------------------------------------
  img::RidgeResult ridge;  ///< response/blobness buffers are reused
  bool ridge_valid = false;
  /// The rectangle of `ridge`'s planes the context's last RDG wrote (all
  /// else in them is zero).
  Rect ridge_written{};
  img::MarkerResult markers;
  std::optional<img::Couple> couple;
  img::RegistrationResult reg;
  bool reg_success = false;
  /// ROI estimated this frame (initialized from the snapshot, so a frame
  /// without a couple carries the stale ROI forward like the serial app).
  Rect roi{};
  bool gw_ran = false;
  bool gw_found = false;
  img::ImageF32 enhanced_roi;
  img::ImageU16 output;

  /// Per-node per-instance reports (empty when the node ran as a single
  /// instance) and the record under construction.
  std::array<std::vector<img::WorkReport>, kFrameNodeCount> stripe_reports;
  graph::FrameRecord record;

  /// Graph-level execution context (switch cache); `gctx.user == this`.
  graph::ExecContext gctx;

  /// One reusable scratch set per concurrent ridge instance, each sized to
  /// that instance's band (rebuilt when the instance count changes).
  std::vector<img::RidgeScratch> ridge_scratch;
};

}  // namespace tc::app
