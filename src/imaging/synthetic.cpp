#include "imaging/synthetic.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <span>

#include "imaging/synthetic_stamp.hpp"

namespace tc::img {
namespace stamp {
namespace {

constexpr f64 kInf = std::numeric_limits<f64>::infinity();

/// g * kGuard is at least g + 8 ulp(g) for any normal g.
constexpr f64 kGuard = 1.0 + 0x1p-49;

/// Grows the hull [lo, hi) of `buf`, whose slot i holds column x0 + i, to
/// cover [a, b), filling the columns it adds with `fill`.
void widen(std::array<f64, kSpan>& buf, i32 x0, i32& lo, i32& hi, i32 a, i32 b,
           f64 fill) {
  if (lo >= hi) lo = hi = a;
  for (i32 x = a; x < lo; ++x) buf[static_cast<usize>(x - x0)] = fill;
  for (i32 x = hi; x < b; ++x) buf[static_cast<usize>(x - x0)] = fill;
  lo = std::min(lo, a);
  hi = std::max(hi, b);
}

/// Squared distance from the segment's line of a pixel at (rx, ry) from a
/// step, as the per-step stamp computes it: its operands in its order.
f64 perp2_at(const Segment& seg, f64 rx, f64 ry) {
  f64 t_par = (rx * seg.dx + ry * seg.dy) / seg.len;
  f64 perp2 = rx * rx + ry * ry - t_par * t_par;
  return perp2 < 0.0 ? 0.0 : perp2;
}

/// The cross profile's exponent at `perp2`; it falls as perp2 grows.
f64 exponent(const Segment& seg, f64 perp2) {
  return -0.5 * perp2 / (seg.half_width * seg.half_width);
}

/// Pixel (x, y) under `group` as the per-step stamp computes it: the
/// largest f32(depth * exp(a)) over every step whose box covers it.
f32 every_step(const Group& group, std::span<const Step> steps, i32 y, i32 x) {
  f32 v = 0.0f;
  for (const Segment& seg : group.segments) {
    if (y < seg.row_lo || y >= seg.row_hi) continue;
    for (const Step& st : steps.subspan(seg.first, seg.count)) {
      if (std::abs(st.cy - y) > seg.reach || std::abs(st.cx - x) > seg.reach) {
        continue;
      }
      const f64 perp2 = perp2_at(seg, static_cast<f64>(x) - st.px,
                                 static_cast<f64>(y) - st.py);
      const f64 g = std::exp(exponent(seg, perp2));
      v = std::max(v, static_cast<f32>(group.depth * g));
    }
  }
  return v;
}

}  // namespace

Segment make_segment(Point2f a, Point2f b, f64 half_width) {
  Segment seg;
  seg.ax = a.x;
  seg.ay = a.y;
  seg.dx = b.x - a.x;
  seg.dy = b.y - a.y;
  seg.len = std::sqrt(seg.dx * seg.dx + seg.dy * seg.dy);
  seg.half_width = half_width;
  if (seg.len < 1e-9) return seg;
  // Walk the segment in sub-pixel steps: steps + 1 points from a to b.
  const i32 steps = static_cast<i32>(seg.len / 0.7) + 1;
  seg.count = static_cast<usize>(steps) + 1;
  seg.reach = static_cast<i32>(std::ceil(3.0 * half_width));
  return seg;
}

void add_steps(Segment& seg, std::vector<Step>& steps) {
  seg.first = steps.size();
  const i32 n = static_cast<i32>(seg.count) - 1;
  for (i32 s = 0; s <= n; ++s) {
    f64 frac = static_cast<f64>(s) / static_cast<f64>(n);
    f64 px = seg.ax + frac * seg.dx;
    f64 py = seg.ay + frac * seg.dy;
    steps.push_back(Step{px, py, narrow<i32>(std::lround(px)),
                         narrow<i32>(std::lround(py))});
  }
  // py is monotone in s, so cy is too: the first and last steps bound the
  // rows, and the steps whose boxes cover one row are contiguous.
  const i32 cy0 = steps[seg.first].cy;
  const i32 cy1 = steps.back().cy;
  seg.row_lo = std::min(cy0, cy1) - seg.reach;
  seg.row_hi = std::max(cy0, cy1) + seg.reach + 1;
}

usize stamp_row(const Group& group, std::span<const Step> steps, i32 y, i32 x0,
                std::span<f32> row) {
  assert(row.size() <= static_cast<usize>(kSpan));
  const i32 x1 = x0 + static_cast<i32>(row.size());
  // Slot i holds column x0 + i: the group's largest exponent so far, over
  // the group's hull [lo, hi) (-inf where no step reached), and the
  // segment's smallest perp2, over its hull [slo, shi) (+inf likewise).
  std::array<f64, kSpan> best;
  std::array<f64, kSpan> nearest;
  i32 lo = x1;
  i32 hi = x1;
  const f64 fy = static_cast<f64>(y);
  for (const Segment& seg : group.segments) {
    if (y < seg.row_lo || y >= seg.row_hi) continue;
    i32 slo = x1;
    i32 shi = x1;
    bool covered = false;
    for (const Step& st : steps.subspan(seg.first, seg.count)) {
      if (std::abs(st.cy - y) > seg.reach) {
        if (covered) break;
        continue;
      }
      covered = true;
      const i32 xa = std::max(st.cx - seg.reach, x0);
      const i32 xb = std::min(st.cx + seg.reach + 1, x1);
      if (xa >= xb) continue;
      widen(nearest, x0, slo, shi, xa, xb, kInf);
      // rx from static_cast<f64>(x) keeps this loop vectorized.
      const f64 ry = fy - st.py;
      for (i32 x = xa; x < xb; ++x) {
        f64& n = nearest[static_cast<usize>(x - x0)];
        n = std::min(n, perp2_at(seg, static_cast<f64>(x) - st.px, ry));
      }
    }
    if (slo >= shi) continue;
    // The segment's largest exponent is its smallest perp2's (+inf gives
    // -inf).
    widen(best, x0, lo, hi, slo, shi, -kInf);
    for (i32 x = slo; x < shi; ++x) {
      const usize i = static_cast<usize>(x - x0);
      best[i] = std::max(best[i], exponent(seg, nearest[i]));
    }
  }

  // f32(depth * g) is monotone in g, so if exp were monotone the largest
  // exponent would set the pixel.  exp errs by less than 2 ulp (glibc's by
  // under 1), so no step covering the pixel computed more than g + 8 ulp,
  // which g * kGuard reaches: where that rounds to the same f32, no step
  // can exceed the value; elsewhere every step is evaluated.
  usize fallbacks = 0;
  for (i32 x = lo; x < hi; ++x) {
    const usize i = static_cast<usize>(x - x0);
    if (best[i] == -kInf) continue;
    const f64 g = std::exp(best[i]);
    f32 v = static_cast<f32>(group.depth * g);
    if (static_cast<f32>(group.depth * (g * kGuard)) != v) {
      v = every_step(group, steps, y, x);
      ++fallbacks;
    }
    row[i] = std::max(row[i], v);
  }
  return fallbacks;
}

}  // namespace stamp

namespace {

constexpr f64 kPi = 3.14159265358979323846;

/// Max-blend a soft-edged disk into `row`, which holds columns
/// [x0, x0 + row.size()) of image row `y`.
void stamp_disk_row(std::span<f32> row, i32 y, i32 x0, Point2f c, f64 radius,
                    f64 depth) {
  const i32 reach = static_cast<i32>(std::ceil(radius + 2.0));
  i32 cx = narrow<i32>(std::lround(c.x));
  i32 cy = narrow<i32>(std::lround(c.y));
  if (y < cy - reach || y > cy + reach) return;
  const i32 xa = std::max(cx - reach, x0);
  const i32 xb = std::min(cx + reach + 1, x0 + static_cast<i32>(row.size()));
  for (i32 x = xa; x < xb; ++x) {
    f64 rx = static_cast<f64>(x) - c.x;
    f64 ry = static_cast<f64>(y) - c.y;
    f64 d = std::sqrt(rx * rx + ry * ry);
    // Soft-edged disk: full depth inside, smooth falloff over 1.5 px.
    f64 edge = 1.0 / (1.0 + std::exp((d - radius) / 0.6));
    f32& o = row[static_cast<usize>(x - x0)];
    o = std::max(o, static_cast<f32>(depth * edge));
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
  const bool vessels_on = vessel_depth > 1e-3;

  // The frame's line stamps: the vessel segments, then the guide wire
  // joining the markers (present while they are visible).  Both lists are
  // sized before they are filled.
  usize pairs = tr.markers_visible ? 1 : 0;
  if (vessels_on) {
    for (const Vessel& v : vessels_) {
      pairs += v.points.empty() ? 0 : v.points.size() - 1;
    }
  }
  std::vector<stamp::Segment> segments;
  segments.reserve(pairs);
  usize step_count = 0;
  auto add_segment = [&](Point2f a, Point2f b, f64 half_width) {
    const stamp::Segment seg = stamp::make_segment(a, b, half_width);
    if (seg.count == 0) return;
    step_count += seg.count;
    segments.push_back(seg);
  };
  if (vessels_on) {
    for (const Vessel& v : vessels_) {
      for (usize i = 0; i + 1 < v.points.size(); ++i) {
        Point2f a{v.points[i].x + offset_x, v.points[i].y + offset_y};
        Point2f b{v.points[i + 1].x + offset_x, v.points[i + 1].y + offset_y};
        add_segment(a, b, v.half_width);
      }
    }
  }
  const usize vessel_segments = segments.size();
  if (tr.markers_visible) add_segment(tr.marker_a, tr.marker_b, 1.1);
  std::vector<stamp::Step> steps;
  steps.reserve(step_count);
  for (stamp::Segment& seg : segments) stamp::add_steps(seg, steps);
  const std::span<const stamp::Segment> all(segments);
  const stamp::Group vessel_group{all.first(vessel_segments), vessel_depth};
  const stamp::Group wire_group{all.subspan(vessel_segments), 0.22};

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

  // The output; a band writes only its own rows.
  ImageU16 out(w, h);
  const Pcg32 noise(params_.seed ^ 0xABCDEF1234567890ULL, static_cast<u64>(t));
  // Each band's end row and its noise generator after its last pixel, in
  // the slot of the band's first row.
  struct BandEnd {
    i32 hi = 0;
    Pcg32 noise;
  };
  std::vector<BandEnd> ends(static_cast<usize>(h), BandEnd{0, noise});

  // Renders `rows`, drawing from `gen`: each row is stamped into a
  // radiographic opacity row (0 = transparent) span by span, and each span
  // is shaded at once (X-ray transmission + quantum noise).
  const f64 dose = params_.dose_photons;
  auto render_rows = [&](IndexRange rows, Pcg32& gen) {
    std::array<f32, stamp::kSpan> opacity;
    for (i32 y = rows.lo; y < rows.hi; ++y) {
      const f64 rsq = row_sq[static_cast<usize>(y)];
      const f64 rsin = row_sin[static_cast<usize>(y)];
      u16* dst = out.row(y);
      for (i32 x0 = 0; x0 < w; x0 += stamp::kSpan) {
        const i32 span = std::min(stamp::kSpan, w - x0);
        const std::span<f32> op(opacity.data(), static_cast<usize>(span));
        std::fill(op.begin(), op.end(), 0.0f);
        stamp::stamp_row(vessel_group, steps, y, x0, op);
        stamp::stamp_row(wire_group, steps, y, x0, op);
        if (tr.markers_visible) {
          stamp_disk_row(op, y, x0, tr.marker_a, params_.marker_radius_px,
                         params_.marker_depth);
          stamp_disk_row(op, y, x0, tr.marker_b, params_.marker_radius_px,
                         params_.marker_depth);
        }
        for (usize i = 0; i < op.size(); ++i) {
          const usize x = static_cast<usize>(x0) + i;
          f64 vignette = 1.0 - 0.35 * (col_sq[x] + rsq);
          f64 ribs = rsin + col_sin[x];
          f64 background = std::clamp(vignette + ribs, 0.05, 1.0);
          f64 transmission = background * (1.0 - static_cast<f64>(op[i]));
          f64 lambda = dose * std::clamp(transmission, 0.01, 1.0);
          // Gaussian approximation of Poisson quantum noise (lambda >> 1).
          f64 photons = lambda + std::sqrt(lambda) * gen.normal();
          if (photons < 0.0) photons = 0.0;
          // Detector gain maps the dose range into 16-bit.
          f64 value = photons * (40000.0 / dose);
          dst[x] = static_cast<u16>(std::clamp(value, 0.0, 65535.0));
        }
      }
    }
  };

  auto band = [&](IndexRange rows) {
    if (rows.empty()) return;
    Pcg32 gen =
        noise_at(noise, static_cast<u64>(rows.lo) * static_cast<u64>(w));
    render_rows(rows, gen);
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
  // serially, so it is right; the rows after it are rendered again serially
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
      render_rows(IndexRange{end.hi, h}, gen);
      break;
    }
  }
  return out;
}

}  // namespace tc::img
