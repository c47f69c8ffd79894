// The eight image-analysis stages of the motion-compensated stent-
// enhancement application (Fig. 2 of the paper):
//
//   RDG      ridge detection & filtering (full-frame or ROI granularity)
//   MKX_EXT  marker extraction (candidate balloon markers)
//   CPLS_SEL couples selection (best marker pair given the a-priori distance)
//   REG      temporal registration of the marker couple
//   ROI_EST  region-of-interest estimation
//   GW_EXT   guide-wire extraction (ridge following between the markers)
//   ENH      enhancement by motion-compensated temporal integration
//   ZOOM     interpolating zoom of the enhanced ROI
//
// Each stage is a pure function from inputs to a Result struct that carries
// the stage output plus a WorkReport used by the platform cost model and the
// Triple-C memory/bandwidth analysis.  Stages that stream over pixels accept
// an output row range so they can be stripe-partitioned; a full-range call
// and the union of disjoint stripe calls produce bit-identical results.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "imaging/image.hpp"
#include "imaging/kernels.hpp"
#include "imaging/work_report.hpp"

namespace tc::img {

// ---------------------------------------------------------------------------
// RDG — ridge detection
// ---------------------------------------------------------------------------

struct RidgeParams {
  /// Scale of the Gaussian pre-smoothing (matched to vessel width).
  f64 sigma = 2.0;
  /// Ridgeness value above which a pixel counts as part of a dominant
  /// structure (used by the flow-graph switch logic).
  f32 dominant_threshold = 350.0f;
};

struct RidgeResult {
  /// Largest positive Hessian eigenvalue (curvilinear-structure strength).
  ImageF32 response;
  /// Smallest Hessian eigenvalue clamped at 0 (blob strength: high for
  /// punctual dark zones, low for elongated vessels).
  ImageF32 blobness;
  /// Number of pixels whose response exceeds dominant_threshold.
  u64 dominant_pixels = 0;
  WorkReport work;
};

/// Run ridge detection on `roi` of the input frame.  Pixels outside `roi`
/// are left zero.  Pass `rows` relative to the image (absolute row indices)
/// to compute only a stripe; dominant_pixels then counts that stripe only.
[[nodiscard]] RidgeResult ridge_detect(const ImageF32& frame, Rect roi,
                                       const RidgeParams& params);

/// Reusable working buffers for one ridge_detect_rows invocation (one set
/// per concurrent stripe instance, owned by the caller's frame context).
/// The six planes cover only the invocation's band — its output rows plus
/// the filter halo, full frame width — and are indexed band-locally, so an
/// instance's memory follows its stripe, not the frame.
struct RidgeScratch {
  ImageF32 smooth;
  ImageF32 resp_local;
  ImageF32 blob_local;
  HessianImages hess;
  /// Reshape every plane to width x rows (reuses allocations; stale
  /// contents are fine — ridge_detect_rows writes or zeroes what it reads).
  void ensure(i32 width, i32 rows);
  /// Reshape every plane to the band ridge_detect_rows(frame, roi, ..., rows)
  /// uses, so a caller can allocate on its own thread before fanning
  /// instances out (the call itself then allocates nothing).
  void ensure_for(const ImageF32& frame, Rect roi, IndexRange rows);
};

/// Stripe variant: computes response/blobness rows [rows.lo, rows.hi) ∩ roi
/// into the provided images (which must be frame-sized).  `scratch` (may be
/// null) supplies reusable working buffers; results are bit-identical with
/// and without it, and whatever the scratch held before.
void ridge_detect_rows(const ImageF32& frame, Rect roi,
                       const RidgeParams& params, ImageF32& response,
                       ImageF32& blobness, IndexRange rows, u64& dominant_pixels,
                       WorkReport& work, RidgeScratch* scratch = nullptr);

// ---------------------------------------------------------------------------
// MKX_EXT — marker extraction
// ---------------------------------------------------------------------------

struct MarkerParams {
  /// Detection runs on a `decimation`-times subsampled image (markers are
  /// several pixels wide, so a coarse grid suffices and keeps this stage
  /// cheap and nearly content-independent, like the paper's 2.5 ms MKX).
  i32 decimation = 4;
  /// Difference-of-Gaussians scales matched to the marker radius, in
  /// decimated-grid pixels.
  f64 blob_sigma = 0.9;
  f64 background_sigma = 2.2;
  /// Darkness score threshold for accepting a candidate.
  f32 detect_threshold = 800.0f;
  /// Non-maximum-suppression cell size in decimated pixels (anchored to the
  /// absolute pixel grid so stripe splits reproduce serial results).
  i32 nms_cell = 3;
  /// Hard cap on the candidate list (the paper's feature stages operate on
  /// small candidate sets).
  i32 max_candidates = 96;
  /// Ridge-based structure suppression (applied only when ridge detection
  /// ran; this is how RDG "removes all other structures except candidate
  /// markers").  Where the ridge response exceeds `ridge_floor`, the
  /// candidate score is attenuated by min(1, ridge_blob_weight * blobness /
  /// response): punctual markers (blobness ≈ response) pass unharmed,
  /// elongated structures (blobness ≈ 0) are eliminated.
  f32 ridge_floor = 100.0f;
  f32 ridge_blob_weight = 2.5f;
  /// Half-size of the full-resolution window used to refine each candidate
  /// position to sub-pixel accuracy.
  i32 refine_half = 5;
};

struct MarkerCandidate {
  Point2f position;
  f32 score = 0.0f;
};

struct MarkerResult {
  std::vector<MarkerCandidate> candidates;
  WorkReport work;
};

/// Extract candidate balloon markers from `roi` of the frame.  When `ridge`
/// is non-null the candidates on elongated structures are suppressed.
[[nodiscard]] MarkerResult extract_markers(const ImageF32& frame, Rect roi,
                                           const MarkerParams& params,
                                           const RidgeResult* ridge);

/// Decimated detection grid shared by every MKX instance batch of a frame:
/// the low-res ROI image, its difference-of-Gaussians pair, and the NMS
/// cell geometry.  Built once per frame; cell rows are then scanned in
/// independent batches (candidate-batch instance fan-out).
struct MarkerGrid {
  ImageF32 low;
  ImageF32 blob;
  ImageF32 background;
  Rect r{};           ///< clamped ROI in full-resolution pixels
  i32 d = 1;          ///< decimation factor
  i32 cell = 2;       ///< NMS cell size (decimated pixels)
  i32 gx0 = 0;        ///< absolute decimated grid origin (x)
  i32 gy0 = 0;        ///< absolute decimated grid origin (y)
  i32 lx0 = 0;        ///< low-res coords of the ROI origin (x)
  i32 ly0 = 0;        ///< low-res coords of the ROI origin (y)
  i32 cell_rows = 0;  ///< NMS cell rows — the batchable unit
  WorkReport work;    ///< decimation + blur work of the grid build
};

/// Build the shared detection grid for `roi` (must be non-empty after
/// clamping to the frame).
[[nodiscard]] MarkerGrid marker_grid(const ImageF32& frame, Rect roi,
                                     const MarkerParams& params);

/// Candidates produced by one batch of NMS cell rows.
struct MarkerBatch {
  std::vector<MarkerCandidate> candidates;
  u64 feature_ops = 0;  ///< sub-pixel refinement work of this batch
};

/// Scan NMS cell rows [cells.lo, cells.hi) of the grid.  Disjoint batches
/// visit disjoint cells, so they may run concurrently; concatenating the
/// batches in order reproduces the serial scan exactly.
[[nodiscard]] MarkerBatch extract_marker_cells(const ImageF32& frame,
                                               const MarkerGrid& grid,
                                               const MarkerParams& params,
                                               const RidgeResult* ridge,
                                               IndexRange cells);

/// Merge the per-batch candidate lists (in batch order), sort, cap, and
/// attach the fixed accounting — byte-identical to extract_markers().
[[nodiscard]] MarkerResult finalize_markers(const MarkerGrid& grid,
                                            const MarkerParams& params,
                                            bool ridge_used,
                                            std::span<const MarkerBatch> batches);

// ---------------------------------------------------------------------------
// CPLS_SEL — couples selection
// ---------------------------------------------------------------------------

struct CoupleParams {
  /// A-priori known balloon-marker separation and tolerance (pixels).
  f64 prior_distance = 90.0;
  f64 distance_tolerance = 12.0;
  /// Temporal tracking: when a previous couple is supplied, candidate
  /// couples are weighted by proximity to it; a couple whose centre moved
  /// more than ~3*tracking_sigma is effectively rejected.
  f64 tracking_sigma = 10.0;
  /// Minimum combined marker strength (sum of the two candidate scores) for
  /// a couple to be acceptable — prevents the tracker from locking onto
  /// noise candidates when the real markers are obscured.  0 disables.
  f64 min_strength = 0.0;
};

struct Couple {
  Point2f a;
  Point2f b;
  f64 score = 0.0;
  [[nodiscard]] f64 distance() const;
};

struct CoupleResult {
  std::optional<Couple> best;
  /// Pairs actually scored (the O(n^2) work driver).
  u64 pairs_considered = 0;
  WorkReport work;
};

/// Select the best marker couple.  `previous` (optional) enables temporal
/// tracking: the selected couple must be plausible both in separation and in
/// frame-to-frame displacement.
[[nodiscard]] CoupleResult select_couple(
    const std::vector<MarkerCandidate>& candidates, const CoupleParams& params,
    const Couple* previous = nullptr);

/// Partial result of scanning a sub-range of first-candidate indices (the
/// candidate-batch instance unit of CPLS_SEL).
struct CouplePartial {
  std::optional<Couple> best;
  f64 best_score = 0.0;
  u64 pairs_considered = 0;
};

/// Score pairs (i, j) with i ∈ [first_range.lo, first_range.hi) and j > i.
/// Disjoint ranges cover disjoint pairs, so batches may run concurrently.
[[nodiscard]] CouplePartial select_couple_rows(
    const std::vector<MarkerCandidate>& candidates, const CoupleParams& params,
    const Couple* previous, IndexRange first_range);

/// Merge partials in batch order (strict > keeps the earliest batch's
/// winner on ties, reproducing the serial scan) and attach the accounting.
[[nodiscard]] CoupleResult merge_couple_partials(
    std::span<const CouplePartial> partials, usize candidate_count);

// ---------------------------------------------------------------------------
// REG — temporal registration
// ---------------------------------------------------------------------------

struct RegistrationParams {
  /// Maximum plausible inter-frame displacement (pixels).
  f64 max_displacement = 40.0;
  /// Maximum change of the couple separation between frames.
  f64 max_distance_drift = 6.0;
  /// Window half-size of the local temporal-difference check.
  i32 motion_window = 24;
  /// Mean absolute temporal difference inside the motion window must exceed
  /// this for the motion criterion to consider the markers "live".
  f32 min_motion_energy = 1.0f;
};

struct RegistrationResult {
  bool success = false;
  /// Estimated translation of the current frame relative to the reference.
  f64 dx = 0.0;
  f64 dy = 0.0;
  /// Rotation of the marker axis (radians).
  f64 rotation = 0.0;
  WorkReport work;
};

/// Register the current couple against the previous one, using a temporal-
/// difference motion criterion computed around the current markers.
[[nodiscard]] RegistrationResult register_couple(
    const Couple& previous, const Couple& current, const ImageF32& prev_frame,
    const ImageF32& cur_frame, const RegistrationParams& params);

// ---------------------------------------------------------------------------
// ROI_EST — region-of-interest estimation
// ---------------------------------------------------------------------------

struct RoiParams {
  /// Margin around the marker couple, as a multiple of the couple distance.
  f64 margin_factor = 0.8;
  /// Minimum ROI side (pixels).
  i32 min_side = 96;
};

struct RoiResult {
  Rect roi;
  WorkReport work;
};

[[nodiscard]] RoiResult estimate_roi(const Couple& couple, i32 frame_width,
                                     i32 frame_height, const RoiParams& params);

// ---------------------------------------------------------------------------
// GW_EXT — guide-wire extraction
// ---------------------------------------------------------------------------

struct GuideWireParams {
  /// Sample points along the wire between the markers.
  i32 path_samples = 48;
  /// Perpendicular search half-range (pixels).
  i32 search_radius = 6;
  /// Smoothness weight of the perpendicular-offset refinement.
  f64 smoothness = 0.35;
  /// Refinement sweeps stop when the path moves less than this (pixels).
  f64 convergence_eps = 0.05;
  i32 max_iterations = 12;
  /// Mean ridgeness along the converged path must exceed this for the wire
  /// (and hence the marker couple) to be declared stable.
  f32 min_ridgeness = 150.0f;
  /// Wire-width check: the ridge response sampled this far *perpendicular*
  /// to the path must have dropped off — a guide wire is thin, a vessel is
  /// not.  The off-path/on-path response ratio must stay below
  /// `max_off_path_ratio` for the wire to be accepted.
  f64 width_check_offset = 2.5;
  f64 max_off_path_ratio = 0.45;
};

struct GuideWireResult {
  bool found = false;
  std::vector<Point2f> path;
  f64 mean_ridgeness = 0.0;
  /// Off-path/on-path ridge-response ratio (≈0 for a thin wire, ≈1 for a
  /// wide vessel); see GuideWireParams::max_off_path_ratio.
  f64 off_path_ratio = 0.0;
  /// Refinement sweeps actually executed (data-dependent work driver).
  i32 iterations = 0;
  WorkReport work;
};

[[nodiscard]] GuideWireResult extract_guidewire(const RidgeResult& ridge,
                                                const Couple& couple,
                                                const GuideWireParams& params);

// ---------------------------------------------------------------------------
// ENH — motion-compensated temporal integration
// ---------------------------------------------------------------------------

struct EnhanceParams {
  /// Recursive integration weight of the current frame.
  f32 integration_gain = 0.25f;
};

struct EnhanceResult {
  /// Full-frame integration state in reference coordinates (becomes the
  /// `accumulator` argument of the next invocation).
  ImageF32 accumulator;
  /// ROI crop of the accumulator, handed to ZOOM.
  ImageF32 enhanced_roi;
  WorkReport work;
};

/// Temporally integrate the current frame into the stent-aligned reference
/// accumulator and crop the enhanced ROI (`roi` is given in reference
/// coordinates).  The current frame is warped once by the rigid transform
/// mapping `cur_couple` onto `ref_couple` (the couple captured when the
/// integration started); the accumulator itself is never re-warped, so no
/// resampling blur accumulates.  `accumulator` is a sink: move the previous
/// result's accumulator in and it is updated in place and returned in the
/// result.  Empty or of another size (the first registered frame), it
/// restarts the integration.  `bands` (optional) runs the row-local warp
/// and blend in row bands; the result and the report do not depend on it.
[[nodiscard]] EnhanceResult enhance(const ImageF32& cur_frame, Rect roi,
                                    ImageF32 accumulator,
                                    const Couple& cur_couple,
                                    const Couple& ref_couple,
                                    const EnhanceParams& params,
                                    const RowBandRunner& bands = {});

/// Translation-only convenience overload: (dx, dy) is the displacement of
/// the current frame relative to the reference (accumulator) frame.
[[nodiscard]] EnhanceResult enhance(const ImageF32& cur_frame, Rect roi,
                                    ImageF32 accumulator, f64 dx, f64 dy,
                                    const EnhanceParams& params);

// ---------------------------------------------------------------------------
// ZOOM — interpolating zoom of the enhanced ROI
// ---------------------------------------------------------------------------

struct ZoomParams {
  i32 output_width = 512;
  i32 output_height = 512;
};

struct ZoomResult {
  ImageU16 output;
  WorkReport work;
};

[[nodiscard]] ZoomResult zoom(const ImageF32& enhanced, const ZoomParams& params);

/// Stripe variant writing only output rows [rows.lo, rows.hi).
void zoom_rows(const ImageF32& enhanced, const ZoomParams& params,
               ImageU16& out, IndexRange rows, WorkReport& work);

}  // namespace tc::img
