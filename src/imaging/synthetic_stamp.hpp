// The synthetic camera's line stamps, one image row at a time.  Internal
// to imaging/synthetic.cpp; declared here so a test can drive one row.
//
// A line stamp walks a segment in sub-pixel steps and max-blends a
// Gaussian cross profile, f32(depth * exp(a)) with
// a = -0.5 * perp2 / (half_width * half_width), into every pixel of a
// (2 reach + 1)² box about each step.  stamp_row gives a row the same
// values while evaluating one `exp` per touched pixel: within a group of
// one depth the value is monotone in a, so the largest exponent sets it,
// and a guard checks that no other step's `exp` could round above it.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace tc::img::stamp {

/// One step of a line stamp: the point its cross profile is centred at,
/// and that point rounded to a pixel (the centre of its box).
struct Step {
  f64 px = 0.0;
  f64 py = 0.0;
  i32 cx = 0;
  i32 cy = 0;
};

/// One segment of a line stamp.  Its steps are [first, first + count) of
/// the frame's step list; their boxes cover rows [row_lo, row_hi).
struct Segment {
  f64 ax = 0.0;
  f64 ay = 0.0;
  f64 dx = 0.0;
  f64 dy = 0.0;
  f64 len = 0.0;
  f64 half_width = 0.0;
  i32 reach = 0;
  i32 row_lo = 0;
  i32 row_hi = 0;
  usize first = 0;
  usize count = 0;
};

/// The segment a -> b with half width `half_width`; count is its number of
/// steps, 0 when it is too short to stamp.  Its steps are not built yet.
[[nodiscard]] Segment make_segment(Point2f a, Point2f b, f64 half_width);

/// Appends `seg`'s steps to `steps` and records where they went.
void add_steps(Segment& seg, std::vector<Step>& steps);

/// Segments stamped at one depth.
struct Group {
  std::span<const Segment> segments;
  f64 depth = 0.0;
};

/// Widest column span stamp_row takes (its scratch lives on the stack).
inline constexpr i32 kSpan = 512;

/// Max-blends `group` (depth > 0) into `row`, which holds columns
/// [x0, x0 + row.size()) of image row `y`, at most kSpan of them: each
/// pixel a step's box covers becomes max(row[x], the largest
/// f32(depth * exp(a)) of the steps covering it).  Returns the number of
/// pixels whose guard failed, which evaluated every covering step instead.
usize stamp_row(const Group& group, std::span<const Step> steps, i32 y, i32 x0,
                std::span<f32> row);

}  // namespace tc::img::stamp
