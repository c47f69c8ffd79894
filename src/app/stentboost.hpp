// StentBoost — the paper's case-study application (Fig. 2): motion-
// compensated enhancement of stents in X-ray fluoroscopy.
//
// The class wires the eight imaging stages into a graph::FlowGraph with the
// paper's three data-dependent switches:
//
//   SW_RDG  "RDG detection"     — ridge detection needed?  Driven by a
//            hysteresis state machine over the dominant-structure count of
//            previous ridge runs and the marker-candidate clutter while
//            ridge detection is off (contrast bolus in/out).
//   SW_ROI  "ROI estimated"     — was an ROI estimated on a previous frame?
//            Selects ROI-granularity variants (RDG_ROI/MKX_ROI) over the
//            full-frame variants.
//   SW_REG  "REG successful"    — did temporal registration succeed this
//            frame?  Gates ENH and ZOOM.
//
// Eight scenarios (2^3) result.  Every frame yields a FrameRecord with
// per-task WorkReports; simulated execution times are assigned by the
// platform cost model according to the active partitioning plan.
//
// Execution model (ROADMAP item 3): every in-flight frame owns a
// FrameContext; the only cross-frame state is the ticket-ordered
// StreamState (see app/frame_context.hpp).  A frame's lifecycle is
//
//   admit_frame/admit_image  — snapshot stream state, reset the context
//   run_front                — analysis front (RDG..GW_EXT), commit front
//   run_back                 — enhancement back end (ENH, ZOOM), commit back
//   retire_frame             — finalize scenario, assign simulated costs
//
// process_frame/process_image run the four steps serially; exec::FramePipeline
// overlaps run_back(t-1) with run_front(t) on separate stage threads.  Each
// graph node fans its work out as *instances* (row stripes for the streaming
// tasks, candidate batches for MKX/CPLS) onto the shared thread pool, under
// the per-frame InstanceBudget.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "app/frame_context.hpp"
#include "graph/flowgraph.hpp"
#include "imaging/pipeline.hpp"
#include "imaging/synthetic.hpp"
#include "platform/cost_model.hpp"
#include "platform/thread_pool.hpp"

namespace tc::app {

/// Node ids of the StentBoost flow graph (granularity variants are distinct
/// nodes, as in Table 1 / Table 2b of the paper).
enum Node : i32 {
  kRdgFull = 0,
  kRdgRoi,
  kMkxFull,
  kMkxRoi,
  kCplsSel,
  kReg,
  kRoiEst,
  kGwExt,
  kEnh,
  kZoom,
  kNodeCount,
};

static_assert(kNodeCount == kFrameNodeCount,
              "FrameContext per-node arrays must cover every graph node");

[[nodiscard]] std::string_view node_name(i32 node);
/// True for streaming tasks that support stripe (data) partitioning.
[[nodiscard]] bool node_data_parallel(i32 node);

/// Which nodes run under a scenario (switch bitmask, bits = Switch enum):
/// the static mirror of exec::Executor::forecast's per-frame activity rules
/// (RDG granularity variants select on SW_RDG/SW_ROI, ENH/ZOOM gate on
/// SW_REG).  triplec-audit enumerates all 2^kSwitchCount masks through this
/// to prove per-scenario properties offline.
[[nodiscard]] std::array<bool, kNodeCount> scenario_node_activity(
    graph::ScenarioId scenario);

/// Switch indices (bit positions in the scenario id).
enum Switch : i32 {
  kSwRdg = 0,
  kSwRoi = 1,
  kSwReg = 2,
  kSwitchCount = 3,
};

struct StentBoostConfig {
  img::SequenceParams sequence;
  img::RidgeParams ridge;
  img::MarkerParams markers;
  img::CoupleParams couples;
  img::RegistrationParams registration;
  img::RoiParams roi;
  img::GuideWireParams guidewire;
  img::EnhanceParams enhance;
  img::ZoomParams zoom;

  /// SW_RDG hysteresis: ridge detection turns off after `rdg_off_after`
  /// consecutive frames with fewer than `dominant_low` dominant pixels, and
  /// turns back on as soon as marker extraction reports more than
  /// `clutter_high` candidates.
  u64 dominant_low = 1500;
  i32 rdg_off_after = 3;
  usize clutter_high = 20;

  /// Lock the pipeline to full-frame granularity (never enter ROI mode);
  /// used by experiments that study the full-frame tasks (Fig. 3).
  bool force_full_frame = false;

  /// When > 0, every estimated ROI is replaced by a square of this side
  /// centred on the couple — used by the ROI-size sweep of Fig. 6.
  i32 roi_side_override = 0;

  plat::PlatformSpec platform = plat::PlatformSpec::paper_platform();
  plat::CostParams cost;

  /// The paper's canonical video format (used for reporting/scaling).
  plat::VideoFormat paper_format;

  /// Build a config whose synthetic sequence renders width×height but whose
  /// cost model reports times as if at the paper's 1024×1024 format.
  [[nodiscard]] static StentBoostConfig make(i32 width, i32 height, i32 frames,
                                             u64 seed);
};

/// Per-node stripe plan for the coming frame (1 = serial).
using StripePlan = std::array<i32, kNodeCount>;

[[nodiscard]] constexpr StripePlan serial_plan() {
  return StripePlan{1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
}

class StentBoostApp {
 public:
  /// `pool` (optional) enables real host-parallel instance execution; the
  /// simulated timing is host-independent either way.
  explicit StentBoostApp(StentBoostConfig config,
                         plat::ThreadPool* pool = nullptr);

  [[nodiscard]] const StentBoostConfig& config() const { return config_; }
  [[nodiscard]] graph::FlowGraph& graph() { return graph_; }
  [[nodiscard]] const plat::CostModel& cost_model() const { return cost_model_; }
  [[nodiscard]] const img::AngioSequence& sequence() const { return sequence_; }

  /// Set the partitioning plan snapshot applied to frames admitted from now
  /// on (1 = serial).
  void set_stripe_plan(const StripePlan& plan) { plan_ = plan; }
  [[nodiscard]] const StripePlan& stripe_plan() const { return plan_; }

  /// Set the host resource budget snapshot applied to frames admitted from
  /// now on (see InstanceBudget; never affects simulated results).
  void set_instance_budget(const InstanceBudget& budget) { budget_ = budget; }
  [[nodiscard]] const InstanceBudget& instance_budget() const {
    return budget_;
  }

  /// Apply a runtime quality setting (QoS): extra marker-grid decimation,
  /// guide-wire skip, and display-zoom divisor.  Takes effect from the next
  /// admitted frame; pass (1, false, 1) to restore full quality.
  void set_quality(i32 extra_mkx_decimation, bool skip_guidewire,
                   i32 zoom_divisor);
  [[nodiscard]] i32 quality_extra_decimation() const { return qos_extra_decim_; }
  [[nodiscard]] bool quality_skip_guidewire() const { return qos_skip_gw_; }
  [[nodiscard]] i32 quality_zoom_divisor() const { return qos_zoom_div_; }

  // --- frame lifecycle (pipelined execution) -------------------------------
  // The returned context stays owned by the app; it is valid until
  // retire_frame recycles it.  Admissions must happen in frame order (the
  // stream ticket sequences them); run_front/run_back/retire_frame may run
  // on different threads, the StreamState orders their commits.

  /// Admit frame `t` of the synthetic sequence (renders on this thread).
  [[nodiscard]] FrameContext* admit_frame(i32 t);
  /// Admit an externally supplied frame.
  [[nodiscard]] FrameContext* admit_image(i32 t, const img::ImageU16& frame);
  /// Run the analysis front (RDG..GW_EXT) and commit the next front state.
  void run_front(FrameContext& ctx);
  /// Run the enhancement back end (ENH, ZOOM) and commit the back state.
  void run_back(FrameContext& ctx);
  /// Finalize the scenario, assign simulated costs (platform interference is
  /// drawn here, so frames must retire in order), recycle the context.
  [[nodiscard]] graph::FrameRecord retire_frame(FrameContext& ctx);

  /// Process frame `t` of the synthetic sequence: render, run the full
  /// lifecycle serially, return the record.
  graph::FrameRecord process_frame(i32 t);

  /// Process an externally supplied frame (e.g. for tests).
  graph::FrameRecord process_image(i32 t, const img::ImageU16& frame);

  /// Convenience: process frames [0, n) and return all records.
  std::vector<graph::FrameRecord> run(i32 n);

  /// Reset all inter-frame state (start of a new sequence).  Must not be
  /// called with frames in flight.
  void reset();

  // --- state inspection (read-only, for tests/examples) -------------------
  // Committed-stream accessors take the stream lock and are safe while a
  // pipeline is running; the last_* accessors read the most recently retired
  // frame's context and are meaningful only when no frame is in flight.
  [[nodiscard]] bool rdg_active() const { return stream_.front().rdg_active; }
  [[nodiscard]] bool roi_valid() const { return stream_.front().roi_valid; }
  [[nodiscard]] Rect current_roi() const { return stream_.front().roi; }
  [[nodiscard]] std::optional<img::Couple> last_couple() const {
    return stream_.front().prev_couple;
  }
  /// Couple defining the stent-aligned integration reference (empty when
  /// the integration is cold).
  [[nodiscard]] std::optional<img::Couple> reference_couple() const {
    return stream_.back_ref_couple();
  }
  /// Crop rectangle (reference coordinates) of the most recent enhanced ROI.
  [[nodiscard]] Rect reference_roi() const { return stream_.back_ref_roi(); }
  [[nodiscard]] bool last_reg_success() const;
  [[nodiscard]] const img::ImageU16& last_output() const;
  [[nodiscard]] const img::RidgeResult* last_ridge() const;
  [[nodiscard]] usize last_candidate_count() const;

  /// ROI granularity driver of the frame most recently retired (full frame
  /// when no ROI was active).
  [[nodiscard]] f64 roi_pixels_of_frame() const;

  /// The explicitly-synchronized cross-frame state (tests).
  [[nodiscard]] StreamState& stream() { return stream_; }

 private:
  void build_graph();
  [[nodiscard]] FrameContext* acquire_context();
  void recycle_context(FrameContext* ctx);
  /// Fan one node's work out as `instances` index-range instances (host
  /// execution only; the decomposition is fixed by the caller).
  void run_instances(FrameContext& ctx, i32 node, i32 count, i32 instances,
                     const std::function<void(i32, IndexRange)>& body);
  /// Pure successor computation for the cross-frame front state.
  [[nodiscard]] FrontState advance_front(const FrameContext& ctx) const;

  std::optional<img::WorkReport> run_rdg(FrameContext& ctx, bool roi_mode);
  std::optional<img::WorkReport> run_mkx(FrameContext& ctx, bool roi_mode);
  std::optional<img::WorkReport> run_cpls(FrameContext& ctx);
  std::optional<img::WorkReport> run_reg(FrameContext& ctx);
  std::optional<img::WorkReport> run_roi_est(FrameContext& ctx);
  std::optional<img::WorkReport> run_gw(FrameContext& ctx);
  std::optional<img::WorkReport> run_enh(FrameContext& ctx);
  std::optional<img::WorkReport> run_zoom(FrameContext& ctx);
  void assign_costs(FrameContext& ctx);

  StentBoostConfig config_;
  plat::ThreadPool* pool_;
  img::AngioSequence sequence_;
  plat::CostModel cost_model_;
  graph::FlowGraph graph_;
  StripePlan plan_ = serial_plan();
  InstanceBudget budget_;
  /// Per-node platform interference (cache misses / task switching); drawn
  /// in retire order, so results are independent of pipelining.
  std::vector<plat::InterferenceProcess> interference_;

  /// Ticket-ordered cross-frame state.
  StreamState stream_;

  /// Context pool: stable-address contexts, recycled LIFO.
  common::Mutex ctx_mutex_;
  std::vector<std::unique_ptr<FrameContext>> contexts_
      TC_GUARDED_BY(ctx_mutex_);
  std::vector<FrameContext*> free_ctx_ TC_GUARDED_BY(ctx_mutex_);
  /// Most recently retired context (quiescent inspection only).
  FrameContext* last_ctx_ = nullptr;

  /// Topological order split at the front/back boundary (ENH, ZOOM form the
  /// back end; their concatenation is the full topological order).
  std::vector<i32> front_order_;
  std::vector<i32> back_order_;

  // QoS quality knobs (snapshotted into each context at admission).
  i32 qos_extra_decim_ = 1;
  bool qos_skip_gw_ = false;
  i32 qos_zoom_div_ = 1;
};

}  // namespace tc::app
