// Dense row-major 2-D image container used by every pipeline stage.
//
// The container is deliberately simple (contiguous std::vector storage, no
// strides) because the Triple-C cost model reasons about whole buffers; ROI
// processing is expressed with explicit Rect arguments so the amount of data
// touched is visible at each call site.
#pragma once

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tc::img {

template <typename T>
class Image {
 public:
  Image() = default;

  Image(i32 width, i32 height, T fill = T{})
      : width_(width), height_(height),
        pixels_(static_cast<usize>(width) * static_cast<usize>(height), fill) {
    assert(width >= 0 && height >= 0);
  }

  [[nodiscard]] i32 width() const { return width_; }
  [[nodiscard]] i32 height() const { return height_; }
  [[nodiscard]] usize size() const { return pixels_.size(); }
  [[nodiscard]] bool empty() const { return pixels_.empty(); }

  /// Buffer size in bytes — the quantity Table 1 of the paper reports.
  [[nodiscard]] u64 bytes() const { return pixels_.size() * sizeof(T); }

  [[nodiscard]] T& at(i32 x, i32 y) {
    assert(in_bounds(x, y));
    return pixels_[static_cast<usize>(y) * static_cast<usize>(width_) +
                   static_cast<usize>(x)];
  }
  [[nodiscard]] const T& at(i32 x, i32 y) const {
    assert(in_bounds(x, y));
    return pixels_[static_cast<usize>(y) * static_cast<usize>(width_) +
                   static_cast<usize>(x)];
  }

  /// Clamped access: coordinates outside the image are clamped to the border
  /// (replicate padding) — the boundary rule used by all filters here.
  [[nodiscard]] T at_clamped(i32 x, i32 y) const {
    x = std::clamp(x, 0, width_ - 1);
    y = std::clamp(y, 0, height_ - 1);
    return at(x, y);
  }

  [[nodiscard]] bool in_bounds(i32 x, i32 y) const {
    return x >= 0 && x < width_ && y >= 0 && y < height_;
  }

  [[nodiscard]] T* data() { return pixels_.data(); }
  [[nodiscard]] const T* data() const { return pixels_.data(); }

  [[nodiscard]] T* row(i32 y) { return data() + static_cast<usize>(y) * width_; }
  [[nodiscard]] const T* row(i32 y) const {
    return data() + static_cast<usize>(y) * width_;
  }

  void fill(T v) { std::fill(pixels_.begin(), pixels_.end(), v); }

  /// Reshape to width × height, reusing the allocation when possible.  The
  /// contents are unspecified afterwards (stale pixels are kept, not
  /// cleared) — callers that reuse an image as scratch must write or clear
  /// whatever region they read.
  void ensure(i32 width, i32 height) {
    assert(width >= 0 && height >= 0);
    width_ = width;
    height_ = height;
    pixels_.resize(static_cast<usize>(width) * static_cast<usize>(height));
  }

  [[nodiscard]] Rect full_rect() const { return Rect{0, 0, width_, height_}; }

  /// Copy out a sub-rectangle (clamped to the image bounds).
  [[nodiscard]] Image<T> crop(Rect r) const {
    Rect c = clamp_rect(r, width_, height_);
    Image<T> out(c.w, c.h);
    for (i32 y = 0; y < c.h; ++y) {
      const T* src = row(c.y + y) + c.x;
      std::copy(src, src + c.w, out.row(y));
    }
    return out;
  }

  bool operator==(const Image<T>& other) const {
    return width_ == other.width_ && height_ == other.height_ &&
           pixels_ == other.pixels_;
  }

 private:
  i32 width_ = 0;
  i32 height_ = 0;
  std::vector<T> pixels_;
};

using ImageU16 = Image<u16>;
using ImageF32 = Image<f32>;

/// Convert with clamping to the destination range.
[[nodiscard]] ImageF32 to_f32(const ImageU16& in);
[[nodiscard]] ImageU16 to_u16(const ImageF32& in);

/// Allocation-free variant: converts into `out` (reshaped as needed).
void to_f32(const ImageU16& in, ImageF32& out);

/// Write an image as binary PGM (P5, 8-bit after range compression for u16).
/// Returns false on I/O failure.
bool write_pgm(const ImageU16& image, const std::string& path);

}  // namespace tc::img
