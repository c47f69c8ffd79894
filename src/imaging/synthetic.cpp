#include "imaging/synthetic.hpp"

#include <cassert>
#include <cmath>

namespace tc::img {
namespace {

constexpr f64 kPi = 3.14159265358979323846;

/// Max-blend a segment with a Gaussian cross profile into `rows` of
/// `opacity`: the pixels and values a whole-image stamp gives those rows.
void stamp_line(ImageF32& opacity, IndexRange rows, Point2f a, Point2f b,
                f64 half_width, f64 depth) {
  // Walk the segment in sub-pixel steps and add a Gaussian cross profile.
  f64 dx = b.x - a.x;
  f64 dy = b.y - a.y;
  f64 len = std::sqrt(dx * dx + dy * dy);
  if (len < 1e-9) return;
  const i32 steps = static_cast<i32>(len / 0.7) + 1;
  const i32 reach = static_cast<i32>(std::ceil(3.0 * half_width));
  for (i32 s = 0; s <= steps; ++s) {
    f64 frac = static_cast<f64>(s) / static_cast<f64>(steps);
    f64 px = a.x + frac * dx;
    f64 py = a.y + frac * dy;
    i32 cx = narrow<i32>(std::lround(px));
    i32 cy = narrow<i32>(std::lround(py));
    const i32 y1 = std::min(cy + reach + 1, rows.hi);
    const i32 x0 = std::max(cx - reach, 0);
    const i32 x1 = std::min(cx + reach + 1, opacity.width());
    for (i32 y = std::max(cy - reach, rows.lo); y < y1; ++y) {
      f32* row = opacity.row(y);
      for (i32 x = x0; x < x1; ++x) {
        // Perpendicular distance from pixel to the segment direction.
        f64 rx = static_cast<f64>(x) - px;
        f64 ry = static_cast<f64>(y) - py;
        f64 t_par = (rx * dx + ry * dy) / len;
        f64 perp2 = rx * rx + ry * ry - t_par * t_par;
        if (perp2 < 0.0) perp2 = 0.0;
        f64 g = std::exp(-0.5 * perp2 / (half_width * half_width));
        // max-blend avoids double-counting from overlapping stamps, and
        // makes the result independent of the stamping order.
        row[x] = std::max(row[x], static_cast<f32>(depth * g));
      }
    }
  }
}

/// Max-blend a soft-edged disk into `rows` of `opacity`.
void stamp_disk(ImageF32& opacity, IndexRange rows, Point2f c, f64 radius,
                f64 depth) {
  const i32 reach = static_cast<i32>(std::ceil(radius + 2.0));
  i32 cx = narrow<i32>(std::lround(c.x));
  i32 cy = narrow<i32>(std::lround(c.y));
  const i32 y1 = std::min(cy + reach + 1, rows.hi);
  const i32 x0 = std::max(cx - reach, 0);
  const i32 x1 = std::min(cx + reach + 1, opacity.width());
  for (i32 y = std::max(cy - reach, rows.lo); y < y1; ++y) {
    f32* row = opacity.row(y);
    for (i32 x = x0; x < x1; ++x) {
      f64 rx = static_cast<f64>(x) - c.x;
      f64 ry = static_cast<f64>(y) - c.y;
      f64 d = std::sqrt(rx * rx + ry * ry);
      // Soft-edged disk: full depth inside, smooth falloff over 1.5 px.
      f64 edge = 1.0 / (1.0 + std::exp((d - radius) / 0.6));
      row[x] = std::max(row[x], static_cast<f32>(depth * edge));
    }
  }
}

/// The frame's noise generator positioned for pixel `p`: pixel pair k
/// draws raw values 2k and 2k + 1 (unless an earlier draw was rejected),
/// and an odd pixel takes its pair's cached second variate.
Pcg32 noise_at(const Pcg32& frame_noise, u64 p) {
  Pcg32 gen = frame_noise;
  gen.advance(p / 2 * 2);
  if (p % 2 != 0) (void)gen.normal();
  return gen;
}

}  // namespace

AngioSequence::AngioSequence(const SequenceParams& params) : params_(params) {
  Pcg32 rng(params_.seed, /*stream=*/17);

  // Build a static vessel tree: each vessel is a smooth random polyline that
  // meanders across the field of view.
  const f64 w = static_cast<f64>(params_.width);
  const f64 h = static_cast<f64>(params_.height);
  for (i32 v = 0; v < params_.vessel_count; ++v) {
    Vessel vessel;
    vessel.half_width = rng.uniform(1.5, 4.0);
    f64 x = rng.uniform(0.1 * w, 0.9 * w);
    f64 y = rng.uniform(0.0, 0.15 * h);
    f64 heading = kPi / 2.0 + rng.uniform(-0.5, 0.5);
    const i32 steps = 60;
    const f64 step_len = h / static_cast<f64>(steps) * 1.2;
    for (i32 s = 0; s < steps; ++s) {
      vessel.points.push_back(Point2f{x, y});
      heading += rng.uniform(-0.25, 0.25);
      x += std::cos(heading) * step_len * 0.4;
      y += std::sin(heading) * step_len;
      if (y > 1.05 * h) break;
    }
    vessels_.push_back(std::move(vessel));
  }

  stent_angle_ = rng.uniform(0.0, kPi);

  // Pre-draw per-frame dropout flags so truth() and render() agree and each
  // frame stays independently renderable.
  dropout_.resize(static_cast<usize>(params_.frames), false);
  for (i32 t = 0; t < params_.frames; ++t) {
    dropout_[static_cast<usize>(t)] =
        rng.next_f64() < params_.marker_dropout_prob;
  }
}

Point2f AngioSequence::stent_center(i32 t) const {
  const f64 time_s = static_cast<f64>(t) / params_.fps;
  const MotionModel& m = params_.motion;
  const f64 cx = 0.5 * static_cast<f64>(params_.width);
  const f64 cy = 0.45 * static_cast<f64>(params_.height);
  f64 cardiac = std::sin(2.0 * kPi * m.heart_rate_hz * time_s);
  f64 breath = std::sin(2.0 * kPi * m.breathing_rate_hz * time_s);
  return Point2f{
      cx + m.cardiac_amplitude_px * cardiac + m.drift_px_per_frame * t,
      cy + m.breathing_amplitude_px * breath +
          0.35 * m.cardiac_amplitude_px * std::sin(4.0 * kPi * m.heart_rate_hz * time_s)};
}

f64 AngioSequence::contrast_at(i32 t) const {
  // Smooth bolus profile: raised-cosine ramp in over ~15 frames, plateau,
  // exponential washout.
  const f64 tin = static_cast<f64>(params_.contrast_in_frame);
  const f64 tout = static_cast<f64>(params_.contrast_out_frame);
  const f64 ramp = 15.0;
  const f64 tf = static_cast<f64>(t);
  if (tf < tin) return 0.0;
  f64 level;
  if (tf < tin + ramp) {
    level = 0.5 * (1.0 - std::cos(kPi * (tf - tin) / ramp));
  } else if (tf < tout) {
    level = 1.0;
  } else {
    level = std::exp(-(tf - tout) / 25.0);
  }
  return level;
}

FrameTruth AngioSequence::truth(i32 t) const {
  FrameTruth truth;
  Point2f c = stent_center(t);
  const f64 half = 0.5 * params_.marker_distance_px;
  // The marker couple wobbles slightly around the base orientation with the
  // cardiac phase (stent deforms with the vessel).
  const f64 time_s = static_cast<f64>(t) / params_.fps;
  f64 angle = stent_angle_ +
              0.08 * std::sin(2.0 * kPi * params_.motion.heart_rate_hz * time_s);
  truth.marker_a =
      Point2f{c.x - half * std::cos(angle), c.y - half * std::sin(angle)};
  truth.marker_b =
      Point2f{c.x + half * std::cos(angle), c.y + half * std::sin(angle)};
  truth.contrast_level = contrast_at(t);
  truth.markers_visible =
      t >= 0 && t < params_.frames ? !dropout_[static_cast<usize>(t)] : true;
  if (t > 0) {
    Point2f prev = stent_center(t - 1);
    truth.motion_dx = c.x - prev.x;
    truth.motion_dy = c.y - prev.y;
  }
  return truth;
}

ImageU16 AngioSequence::render(i32 t, const RowBandRunner& bands) const {
  const i32 w = params_.width;
  const i32 h = params_.height;
  FrameTruth tr = truth(t);
  Point2f center = stent_center(t);
  f64 offset_x = center.x - 0.5 * w;
  f64 offset_y = center.y - 0.45 * h;
  // Vessel tree, moving with the stent, visible only during the bolus.
  const f64 vessel_depth = contrast_at(t) * params_.vessel_contrast_peak;

  // Background anatomy: smooth vignette plus two low-frequency "rib"
  // bands.  Both are a row term plus a column term, tabulated here as the
  // per-pixel expressions compute them.
  std::vector<f64> col_sq(static_cast<usize>(w));
  std::vector<f64> col_sin(static_cast<usize>(w));
  std::vector<f64> row_sq(static_cast<usize>(h));
  std::vector<f64> row_sin(static_cast<usize>(h));
  for (i32 x = 0; x < w; ++x) {
    const f64 fx = static_cast<f64>(x) / w;
    col_sq[static_cast<usize>(x)] = (fx - 0.5) * (fx - 0.5);
    col_sin[static_cast<usize>(x)] = 0.04 * std::sin(5.0 * fx * kPi);
  }
  for (i32 y = 0; y < h; ++y) {
    const f64 fy = static_cast<f64>(y) / h;
    row_sq[static_cast<usize>(y)] = (fy - 0.5) * (fy - 0.5);
    row_sin[static_cast<usize>(y)] = 0.06 * std::sin(9.0 * fy * kPi + 1.3);
  }

  // Radiographic opacity accumulator (0 = transparent) and the output;
  // a band writes only its own rows of both.
  ImageF32 opacity(w, h, 0.0f);
  ImageU16 out(w, h);
  const Pcg32 noise(params_.seed ^ 0xABCDEF1234567890ULL, static_cast<u64>(t));
  // Each band's end row and its noise generator after its last pixel, in
  // the slot of the band's first row.
  struct BandEnd {
    i32 hi = 0;
    Pcg32 noise;
  };
  std::vector<BandEnd> ends(static_cast<usize>(h), BandEnd{0, noise});

  // X-ray transmission + quantum noise for `rows`, drawing from `gen`.
  const f64 dose = params_.dose_photons;
  auto shade = [&](IndexRange rows, Pcg32& gen) {
    for (i32 y = rows.lo; y < rows.hi; ++y) {
      const f64 rsq = row_sq[static_cast<usize>(y)];
      const f64 rsin = row_sin[static_cast<usize>(y)];
      const f32* op = opacity.row(y);
      u16* dst = out.row(y);
      for (i32 x = 0; x < w; ++x) {
        f64 vignette = 1.0 - 0.35 * (col_sq[static_cast<usize>(x)] + rsq);
        f64 ribs = rsin + col_sin[static_cast<usize>(x)];
        f64 background = std::clamp(vignette + ribs, 0.05, 1.0);
        f64 transmission = background * (1.0 - static_cast<f64>(op[x]));
        f64 lambda = dose * std::clamp(transmission, 0.01, 1.0);
        // Gaussian approximation of Poisson quantum noise (lambda >> 1).
        f64 photons = lambda + std::sqrt(lambda) * gen.normal();
        if (photons < 0.0) photons = 0.0;
        // Detector gain maps the dose range into 16-bit.
        f64 value = photons * (40000.0 / dose);
        dst[x] = static_cast<u16>(std::clamp(value, 0.0, 65535.0));
      }
    }
  };

  auto band = [&](IndexRange rows) {
    if (rows.empty()) return;
    if (vessel_depth > 1e-3) {
      for (const Vessel& v : vessels_) {
        for (usize i = 0; i + 1 < v.points.size(); ++i) {
          Point2f a{v.points[i].x + offset_x, v.points[i].y + offset_y};
          Point2f b{v.points[i + 1].x + offset_x, v.points[i + 1].y + offset_y};
          stamp_line(opacity, rows, a, b, v.half_width, vessel_depth);
        }
      }
    }
    // Guide wire joining the markers (always present while visible).
    if (tr.markers_visible) {
      stamp_line(opacity, rows, tr.marker_a, tr.marker_b, 1.1, 0.22);
      stamp_disk(opacity, rows, tr.marker_a, params_.marker_radius_px,
                 params_.marker_depth);
      stamp_disk(opacity, rows, tr.marker_b, params_.marker_radius_px,
                 params_.marker_depth);
    }
    Pcg32 gen =
        noise_at(noise, static_cast<u64>(rows.lo) * static_cast<u64>(w));
    shade(rows, gen);
    ends[static_cast<usize>(rows.lo)] = BandEnd{rows.hi, gen};
  };
  if (bands) {
    bands(h, band);
  } else {
    band(IndexRange{0, h});
  }

  // Box-Muller rejects a raw draw of 0 (about once in 2^32 draws), which
  // shifts the stream for every later pixel.  The first band whose
  // generator did not end where its draw count says started right and drew
  // serially, so it is right; the rows after it are shaded again serially
  // from where it ended.
  for (i32 y = 0; y < h; y = ends[static_cast<usize>(y)].hi) {
    const BandEnd& end = ends[static_cast<usize>(y)];
    assert(end.hi > y && "the band runner must cover every row");
    // Every pair touched so far was drawn: 2 * ceil(pixels / 2) draws.
    const u64 pixels = static_cast<u64>(end.hi) * static_cast<u64>(w);
    Pcg32 expected = noise;
    expected.advance((pixels + 1) / 2 * 2);
    if (end.noise.state() != expected.state()) {
      Pcg32 gen = end.noise;
      shade(IndexRange{end.hi, h}, gen);
      break;
    }
  }
  return out;
}

}  // namespace tc::img
