#include "imaging/kernels.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <type_traits>

namespace tc::img {
namespace {

/// Account for one separable-convolution pass over `pixels` pixels with a
/// kernel of length `klen`.
void account_conv(WorkReport* wr, u64 pixels, u64 klen) {
  if (wr == nullptr) return;
  wr->pixel_ops += pixels * klen * 2;  // one MAC per tap
  wr->bytes_read += pixels * klen * sizeof(f32);
  wr->bytes_written += pixels * sizeof(f32);
}

}  // namespace

std::vector<f32> gaussian_kernel(f64 sigma) {
  assert(sigma > 0.0);
  i32 radius = static_cast<i32>(std::ceil(3.0 * sigma));
  if (radius < 1) radius = 1;
  std::vector<f32> k(static_cast<usize>(2 * radius + 1));
  f64 sum = 0.0;
  for (i32 i = -radius; i <= radius; ++i) {
    f64 v = std::exp(-0.5 * (static_cast<f64>(i) / sigma) *
                     (static_cast<f64>(i) / sigma));
    k[static_cast<usize>(i + radius)] = static_cast<f32>(v);
    sum += v;
  }
  for (f32& v : k) v = static_cast<f32>(v / sum);
  return k;
}

void gaussian_blur_rect(const ImageF32& in, f64 sigma, ImageF32& out,
                        IndexRange rows, IndexRange cols, WorkReport* wr,
                        i32 out_row0) {
  const std::vector<f32> k = gaussian_kernel(sigma);
  const i32 radius = static_cast<i32>(k.size() / 2);
  const i32 taps = 2 * radius + 1;
  const i32 w = in.width();
  const i32 h = in.height();
  const i32 y0 = std::clamp(rows.lo, 0, h);
  const i32 y1 = std::clamp(rows.hi, 0, h);
  const i32 x0 = std::clamp(cols.lo, 0, w);
  const i32 x1 = std::clamp(cols.hi, 0, w);
  if (y1 <= y0 || x1 <= x0) return;
  assert(&out != &in && out.width() == w && y0 >= out_row0 &&
         y1 <= out_row0 + out.height());

  // Horizontal pass over the halo-expanded row band [ty0, ty1), restricted
  // to the requested columns (each output column only needs its own
  // filtered column; the horizontal halo reads the input directly).  Rows
  // are filtered once each, in order, into a ring of `taps` rows: row r
  // lives in slot r % taps, which holds every row the vertical pass of the
  // current output row reads.
  const i32 ty0 = std::max(0, y0 - radius);
  const i32 ty1 = std::min(h, y1 + radius);
  const i32 cw = x1 - x0;
  // Columns [ix0, ix1) read no tap outside the image.
  const i32 ix0 = std::clamp(radius, x0, x1);
  const i32 ix1 = std::clamp(w - radius, ix0, x1);
  std::vector<f32> ring(static_cast<usize>(taps) * static_cast<usize>(cw));
  auto filter_row = [&](i32 y) {
    const f32* src = in.row(y);
    f32* dst = ring.data() + static_cast<usize>(y % taps) * cw;
    auto clamped = [&](i32 xa, i32 xb) {
      for (i32 x = xa; x < xb; ++x) {
        f32 acc = 0.0f;
        for (i32 t = -radius; t <= radius; ++t) {
          acc += src[std::clamp(x + t, 0, w - 1)] *
                 k[static_cast<usize>(t + radius)];
        }
        dst[x - x0] = acc;
      }
    };
    clamped(x0, ix0);
    if (ix1 > ix0) {
      f32* interior = dst + (ix0 - x0);
      const i32 n = ix1 - ix0;
      std::fill_n(interior, n, 0.0f);
      for (i32 t = -radius; t <= radius; ++t) {
        const f32 kt = k[static_cast<usize>(t + radius)];
        const f32* s = src + ix0 + t;
        for (i32 i = 0; i < n; ++i) interior[i] += s[i] * kt;
      }
    }
    clamped(ix1, x1);
  };

  // Vertical pass, accumulated row by row into the requested output rows.
  i32 next = ty0;  // first band row not yet filtered
  for (i32 y = y0; y < y1; ++y) {
    for (; next < std::min(ty1, y + radius + 1); ++next) filter_row(next);
    f32* dst = out.row(y - out_row0) + x0;
    std::fill_n(dst, cw, 0.0f);
    for (i32 t = -radius; t <= radius; ++t) {
      const i32 yi = std::clamp(y + t, ty0, ty1 - 1);
      const f32* src = ring.data() + static_cast<usize>(yi % taps) * cw;
      const f32 kt = k[static_cast<usize>(t + radius)];
      for (i32 x = 0; x < cw; ++x) dst[x] += src[x] * kt;
    }
  }

  // Priced as the two passes over a band-sized temporary.
  const u64 band_pixels = static_cast<u64>(cw) * static_cast<u64>(ty1 - ty0);
  account_conv(wr, band_pixels, k.size());
  account_conv(wr, static_cast<u64>(cw) * static_cast<u64>(y1 - y0),
               k.size());
  if (wr != nullptr) {
    wr->intermediate_bytes += band_pixels * sizeof(f32);
  }
}

void gaussian_blur_rows(const ImageF32& in, f64 sigma, ImageF32& out,
                        IndexRange rows, WorkReport* wr) {
  gaussian_blur_rect(in, sigma, out, rows, IndexRange{0, in.width()}, wr);
}

ImageF32 gaussian_blur(const ImageF32& in, f64 sigma, WorkReport* wr) {
  ImageF32 out(in.width(), in.height());
  gaussian_blur_rows(in, sigma, out, IndexRange{0, in.height()}, wr);
  return out;
}

HessianImages make_hessian_images(i32 width, i32 height) {
  return HessianImages{ImageF32(width, height), ImageF32(width, height),
                       ImageF32(width, height)};
}

void hessian_rect(const ImageF32& smooth, HessianImages& h, IndexRange rows,
                  IndexRange cols, WorkReport* wr) {
  const i32 w = smooth.width();
  const i32 hh = smooth.height();
  const i32 y0 = std::clamp(rows.lo, 0, hh);
  const i32 y1 = std::clamp(rows.hi, y0, hh);
  const i32 x0 = std::clamp(cols.lo, 0, w);
  const i32 x1 = std::clamp(cols.hi, x0, w);
  // Columns [ix0, ix1) have both horizontal neighbours inside the image.
  const i32 ix0 = std::clamp(1, x0, x1);
  const i32 ix1 = std::clamp(w - 1, ix0, x1);
  for (i32 y = y0; y < y1; ++y) {
    const f32* rm = smooth.row(std::max(y - 1, 0));
    const f32* r0 = smooth.row(y);
    const f32* rp = smooth.row(std::min(y + 1, hh - 1));
    f32* xx = h.xx.row(y);
    f32* xy = h.xy.row(y);
    f32* yy = h.yy.row(y);
    // One output plane per loop, so each loop vectorizes.
    for (i32 x = x0; x < x1; ++x) yy[x] = rp[x] - 2.0f * r0[x] + rm[x];
    for (i32 x = ix0; x < ix1; ++x) {
      xx[x] = r0[x + 1] - 2.0f * r0[x] + r0[x - 1];
    }
    for (i32 x = ix0; x < ix1; ++x) {
      xy[x] = 0.25f * (rp[x + 1] - rm[x + 1] - rp[x - 1] + rm[x - 1]);
    }
    auto border = [&](i32 xa, i32 xb) {
      for (i32 x = xa; x < xb; ++x) {
        const i32 xm = std::max(x - 1, 0);
        const i32 xp = std::min(x + 1, w - 1);
        xx[x] = r0[xp] - 2.0f * r0[x] + r0[xm];
        xy[x] = 0.25f * (rp[xp] - rm[xp] - rp[xm] + rm[xm]);
      }
    };
    border(x0, ix0);
    border(ix1, x1);
  }
  if (wr != nullptr) {
    u64 pixels = static_cast<u64>(x1 - x0) * static_cast<u64>(y1 - y0);
    wr->pixel_ops += pixels * 14;
    wr->bytes_read += pixels * 9 * sizeof(f32);
    wr->bytes_written += pixels * 3 * sizeof(f32);
  }
}

void hessian_rows(const ImageF32& smooth, HessianImages& h, IndexRange rows,
                  WorkReport* wr) {
  hessian_rect(smooth, h, rows, IndexRange{0, smooth.width()}, wr);
}

void ridgeness_rows(const HessianImages& h, ImageF32& out, IndexRange rows,
                    WorkReport* wr) {
  const i32 w = out.width();
  const i32 hh = out.height();
  const i32 y0 = std::clamp(rows.lo, 0, hh);
  const i32 y1 = std::clamp(rows.hi, y0, hh);
  for (i32 y = y0; y < y1; ++y) {
    for (i32 x = 0; x < w; ++x) {
      f32 xx = h.xx.at(x, y);
      f32 yy = h.yy.at(x, y);
      f32 xy = h.xy.at(x, y);
      f32 tr = xx + yy;
      f32 det_term = std::sqrt((xx - yy) * (xx - yy) + 4.0f * xy * xy);
      f32 lambda_max = 0.5f * (tr + det_term);
      out.at(x, y) = lambda_max > 0.0f ? lambda_max : 0.0f;
    }
  }
  if (wr != nullptr) {
    u64 pixels = static_cast<u64>(w) * static_cast<u64>(y1 - y0);
    wr->pixel_ops += pixels * 10;
    wr->bytes_read += pixels * 3 * sizeof(f32);
    wr->bytes_written += pixels * sizeof(f32);
  }
}

ImageF32 temporal_difference(const ImageF32& a, const ImageF32& b,
                             WorkReport* wr) {
  assert(a.width() == b.width() && a.height() == b.height());
  ImageF32 out(a.width(), a.height());
  const f32* pa = a.data();
  const f32* pb = b.data();
  f32* po = out.data();
  for (usize i = 0; i < a.size(); ++i) po[i] = std::fabs(pa[i] - pb[i]);
  if (wr != nullptr) {
    wr->pixel_ops += a.size() * 2;
    wr->bytes_read += 2 * a.bytes();
    wr->bytes_written += out.bytes();
  }
  return out;
}

namespace {
/// Catmull-Rom weight for |t| <= 2.
f32 catmull_rom(f32 t) {
  t = std::fabs(t);
  if (t < 1.0f) return 1.5f * t * t * t - 2.5f * t * t + 1.0f;
  if (t < 2.0f) return -0.5f * t * t * t + 2.5f * t * t - 4.0f * t + 2.0f;
  return 0.0f;
}
}  // namespace

f32 bicubic_sample(const ImageF32& in, f64 x, f64 y) {
  i32 x0 = static_cast<i32>(std::floor(x));
  i32 y0 = static_cast<i32>(std::floor(y));
  f32 fx = static_cast<f32>(x - x0);
  f32 fy = static_cast<f32>(y - y0);
  f32 acc = 0.0f;
  for (i32 j = -1; j <= 2; ++j) {
    f32 wy = catmull_rom(static_cast<f32>(j) - fy);
    if (wy == 0.0f) continue;
    f32 row_acc = 0.0f;
    for (i32 i = -1; i <= 2; ++i) {
      f32 wx = catmull_rom(static_cast<f32>(i) - fx);
      row_acc += wx * in.at_clamped(x0 + i, y0 + j);
    }
    acc += wy * row_acc;
  }
  return acc;
}

namespace {

/// The four source taps of one output coordinate along one axis: clamped
/// indices floor(s) - 1 .. floor(s) + 2 and their Catmull-Rom weights, as
/// bicubic_sample computes them.
struct BicubicTaps {
  std::array<i32, 4> index;
  std::array<f32, 4> weight;
};

BicubicTaps bicubic_taps(f64 s, i32 size) {
  const i32 s0 = static_cast<i32>(std::floor(s));
  const f32 f = static_cast<f32>(s - s0);
  BicubicTaps taps{};
  for (i32 i = -1; i <= 2; ++i) {
    taps.index[static_cast<usize>(i + 1)] = std::clamp(s0 + i, 0, size - 1);
    taps.weight[static_cast<usize>(i + 1)] =
        catmull_rom(static_cast<f32>(i) - f);
  }
  return taps;
}

template <typename T>
i32 bicubic_rows_impl(const ImageF32& in, Rect src, Image<T>& out,
                      IndexRange rows) {
  assert(!in.empty() && !src.empty());
  const i32 ow = out.width();
  const i32 oh = out.height();
  const i32 y0 = std::clamp(rows.lo, 0, oh);
  const i32 y1 = std::clamp(rows.hi, y0, oh);
  if (y1 == y0) return 0;
  const f64 sx = static_cast<f64>(src.w) / static_cast<f64>(ow);
  const f64 sy = static_cast<f64>(src.h) / static_cast<f64>(oh);
  std::vector<BicubicTaps> col_taps(static_cast<usize>(ow));
  for (i32 x = 0; x < ow; ++x) {
    col_taps[static_cast<usize>(x)] = bicubic_taps(
        src.x + (static_cast<f64>(x) + 0.5) * sx - 0.5, in.width());
  }
  // Horizontal passes of the source rows the current output row reads; row
  // r lives in slot r % 4 (the rows one output row reads span at most 4
  // consecutive indices, so they never share a slot).
  std::vector<f32> ring(4 * static_cast<usize>(ow));
  std::array<i32, 4> ring_row{-1, -1, -1, -1};
  // f32 output accumulates in place; u16 output through one f32 row.
  constexpr bool kF32 = std::is_same_v<T, f32>;
  std::vector<f32> acc_row(kF32 ? 0 : static_cast<usize>(ow));
  for (i32 y = y0; y < y1; ++y) {
    const BicubicTaps row_taps = bicubic_taps(
        src.y + (static_cast<f64>(y) + 0.5) * sy - 0.5, in.height());
    f32* acc = nullptr;
    if constexpr (kF32) {
      acc = out.row(y);
    } else {
      acc = acc_row.data();
    }
    std::fill_n(acc, ow, 0.0f);
    for (usize j = 0; j < 4; ++j) {
      const f32 wy = row_taps.weight[j];
      if (wy == 0.0f) continue;
      const i32 r = row_taps.index[j];
      f32* hrow = ring.data() + static_cast<usize>(r % 4) * ow;
      if (ring_row[static_cast<usize>(r % 4)] != r) {
        ring_row[static_cast<usize>(r % 4)] = r;
        const f32* s = in.row(r);
        for (i32 x = 0; x < ow; ++x) {
          const BicubicTaps& t = col_taps[static_cast<usize>(x)];
          f32 row_acc = 0.0f;
          row_acc += t.weight[0] * s[t.index[0]];
          row_acc += t.weight[1] * s[t.index[1]];
          row_acc += t.weight[2] * s[t.index[2]];
          row_acc += t.weight[3] * s[t.index[3]];
          hrow[x] = row_acc;
        }
      }
      for (i32 x = 0; x < ow; ++x) acc[x] += wy * hrow[x];
    }
    if constexpr (!kF32) {
      u16* dst = out.row(y);
      for (i32 x = 0; x < ow; ++x) {
        dst[x] = static_cast<u16>(std::clamp(acc[x], 0.0f, 65535.0f) + 0.5f);
      }
    }
  }
  return y1 - y0;
}

}  // namespace

i32 bicubic_rows(const ImageF32& in, Rect src, ImageF32& out,
                 IndexRange rows) {
  return bicubic_rows_impl(in, src, out, rows);
}

i32 bicubic_rows(const ImageF32& in, Rect src, ImageU16& out,
                 IndexRange rows) {
  return bicubic_rows_impl(in, src, out, rows);
}

ImageF32 resample_bicubic(const ImageF32& in, i32 out_w, i32 out_h, Rect src,
                          WorkReport* wr) {
  assert(out_w > 0 && out_h > 0);
  ImageF32 out(out_w, out_h);
  resample_bicubic_rows(in, out, src, IndexRange{0, out_h}, wr);
  return out;
}

void resample_bicubic_rows(const ImageF32& in, ImageF32& out, Rect src,
                           IndexRange rows, WorkReport* wr) {
  const i32 n = bicubic_rows(in, src, out, rows);
  if (wr != nullptr) {
    u64 pixels = static_cast<u64>(out.width()) * static_cast<u64>(n);
    wr->pixel_ops += pixels * 40;  // 16 taps, ~2.5 ops each
    wr->bytes_read += pixels * 16 * sizeof(f32);
    wr->bytes_written += pixels * sizeof(f32);
  }
}

ImageF32 warp_rigid(const ImageF32& in, f64 dx, f64 dy, f64 angle,
                    Point2f center, WorkReport* wr) {
  if (angle == 0.0) return translate_bilinear(in, dx, dy, wr);
  ImageF32 out(in.width(), in.height());
  const f64 ca = std::cos(-angle);
  const f64 sa = std::sin(-angle);
  // Inverse of "rotate about center, then translate by d":
  // source = center + R(-angle) * (p - center - d).
  for (i32 y = 0; y < in.height(); ++y) {
    for (i32 x = 0; x < in.width(); ++x) {
      f64 rx = static_cast<f64>(x) - center.x - dx;
      f64 ry = static_cast<f64>(y) - center.y - dy;
      f64 sx2 = center.x + ca * rx - sa * ry;
      f64 sy2 = center.y + sa * rx + ca * ry;
      out.at(x, y) = bilinear_sample(in, sx2, sy2);
    }
  }
  if (wr != nullptr) {
    u64 pixels = in.size();
    wr->pixel_ops += pixels * 22;  // rotation math on top of the gather
    wr->bytes_read += pixels * 4 * sizeof(f32);
    wr->bytes_written += pixels * sizeof(f32);
  }
  return out;
}

ImageF32 translate_bilinear(const ImageF32& in, f64 dx, f64 dy,
                            WorkReport* wr) {
  ImageF32 out(in.width(), in.height());
  for (i32 y = 0; y < in.height(); ++y) {
    for (i32 x = 0; x < in.width(); ++x) {
      out.at(x, y) = bilinear_sample(in, static_cast<f64>(x) + dx,
                                     static_cast<f64>(y) + dy);
    }
  }
  if (wr != nullptr) {
    u64 pixels = in.size();
    // Bilinear gather is memory-bound: account the 4-tap fetch + blend at an
    // effective 18 ops/pixel.
    wr->pixel_ops += pixels * 18;
    wr->bytes_read += pixels * 4 * sizeof(f32);
    wr->bytes_written += pixels * sizeof(f32);
  }
  return out;
}

}  // namespace tc::img
