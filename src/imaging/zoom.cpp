// ZOOM — interpolating zoom of the enhanced ROI to the display resolution.

#include <cassert>

#include "imaging/pipeline.hpp"

namespace tc::img {

void zoom_rows(const ImageF32& enhanced, const ZoomParams& params,
               ImageU16& out, IndexRange rows, WorkReport& work) {
  const i32 ow = params.output_width;
  const i32 oh = params.output_height;
  assert(out.width() == ow && out.height() == oh);
  const i32 n = bicubic_rows(enhanced, enhanced.full_rect(), out, rows);
  u64 pixels = static_cast<u64>(ow) * static_cast<u64>(n);
  work.pixel_ops += pixels * 40;
  work.bytes_read += pixels * 16 * sizeof(f32);
  work.bytes_written += pixels * sizeof(u16);
  f64 frac = static_cast<f64>(n) / static_cast<f64>(oh);
  work.input_bytes += static_cast<u64>(static_cast<f64>(enhanced.bytes()) * frac);
  work.intermediate_bytes +=
      static_cast<u64>(static_cast<f64>(enhanced.bytes()) * frac);
  work.output_bytes += pixels * sizeof(u16);
}

ZoomResult zoom(const ImageF32& enhanced, const ZoomParams& params) {
  ZoomResult result;
  result.output = ImageU16(params.output_width, params.output_height);
  zoom_rows(enhanced, params, result.output,
            IndexRange{0, params.output_height}, result.work);
  result.work.data_parallel = true;
  return result;
}

}  // namespace tc::img
