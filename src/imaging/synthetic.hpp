// Synthetic X-ray angiography sequence generator.
//
// Substitutes for the paper's clinical fluoroscopy material (37 sequences /
// 1 921 frames).  The generator produces the *dynamics* the Triple-C models
// feed on:
//   - a stented vessel with two balloon markers moving under cardiac +
//     respiratory motion  (→ long-term, low-frequency load correlation),
//   - per-frame quantum noise that perturbs candidate counts
//     (→ short-term Markov-like load fluctuation),
//   - a contrast-agent bolus that makes the vessel tree appear/disappear
//     (→ the "dominant structures present?" switch in the flow graph),
//   - occasional marker dropouts (→ registration-failure switch).
//
// Rendering is deterministic per (seed, frame index): any frame can be
// re-rendered independently, which the striped/parallel executors rely on.
// A frame renders in row bands, on the calling thread or on a pool (the
// app hands render() its frame's share of the pool): each band stamps the
// scene into its rows one row at a time, shading each row at once, and
// draws its quantum noise from its own offset of the frame's noise stream,
// so the bytes do not depend on the split.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "imaging/image.hpp"

namespace tc::img {

/// Periodic + drift motion applied to the stent and vessel tree.
struct MotionModel {
  f64 heart_rate_hz = 1.2;
  f64 cardiac_amplitude_px = 18.0;
  f64 breathing_rate_hz = 0.25;
  f64 breathing_amplitude_px = 10.0;
  f64 drift_px_per_frame = 0.03;
};

struct SequenceParams {
  i32 width = 512;
  i32 height = 512;
  i32 frames = 200;
  f64 fps = 30.0;
  u64 seed = 1;

  MotionModel motion;

  /// A-priori known balloon-marker separation (the prior used by couples
  /// selection), marker size and radiographic depth (opacity).
  f64 marker_distance_px = 90.0;
  f64 marker_radius_px = 4.0;
  f64 marker_depth = 0.45;

  /// Vessel tree.
  i32 vessel_count = 6;
  f64 vessel_contrast_peak = 0.30;

  /// Contrast-agent bolus: vessel opacity ramps in around `contrast_in_frame`
  /// and washes out around `contrast_out_frame`.  Frames outside the bolus
  /// have (nearly) invisible vessels, so ridge detection is unnecessary.
  i32 contrast_in_frame = 30;
  i32 contrast_out_frame = 150;

  /// Probability that a frame obscures the markers (e.g. diaphragm crossing)
  /// which makes downstream registration fail.
  f64 marker_dropout_prob = 0.04;

  /// Quantum-noise level: photon count at full transmission.  Lower dose =
  /// noisier frames = more spurious marker candidates.
  f64 dose_photons = 900.0;
};

/// Ground-truth state of one frame (used by tests and for oracle checks;
/// the pipeline itself never reads it).
struct FrameTruth {
  Point2f marker_a;
  Point2f marker_b;
  /// Vessel opacity in [0, 1]; above ~0.12 the vessel tree constitutes
  /// "dominant structures" that the RDG task must remove.
  f64 contrast_level = 0.0;
  bool markers_visible = true;
  /// Frame-to-frame stent displacement.
  f64 motion_dx = 0.0;
  f64 motion_dy = 0.0;
};

class AngioSequence {
 public:
  explicit AngioSequence(const SequenceParams& params);

  [[nodiscard]] const SequenceParams& params() const { return params_; }
  [[nodiscard]] i32 frames() const { return params_.frames; }

  /// Render frame `t` (16-bit, higher value = more transmission = brighter).
  /// `bands` (optional) runs the frame's row bands, e.g. on a pool; the
  /// bytes depend neither on it nor on how it splits or orders the rows.
  /// The image and the frame's stamp lists are allocated here, on the
  /// calling thread, and a band allocates nothing.
  [[nodiscard]] ImageU16 render(i32 t, const RowBandRunner& bands = {}) const;

  /// Ground truth for frame `t`.
  [[nodiscard]] FrameTruth truth(i32 t) const;

  /// One vessel of the static tree.  Frame t draws it shifted by
  /// stent_center(t) - (0.5 width, 0.45 height) (tests redraw the scene
  /// from it; the pipeline never reads it).
  struct Vessel {
    std::vector<Point2f> points;  // centerline polyline (scene coordinates)
    f64 half_width = 0.0;
  };
  [[nodiscard]] const std::vector<Vessel>& vessels() const { return vessels_; }

  /// Stent centre in frame `t`; the vessel tree moves with it.
  [[nodiscard]] Point2f stent_center(i32 t) const;

 private:
  [[nodiscard]] f64 contrast_at(i32 t) const;

  SequenceParams params_;
  std::vector<Vessel> vessels_;
  f64 stent_angle_ = 0.0;  // orientation of the marker couple
  std::vector<bool> dropout_;  // per-frame marker dropout flags
};

}  // namespace tc::img
