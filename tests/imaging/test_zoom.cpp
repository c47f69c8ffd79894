#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "imaging/pipeline.hpp"

namespace tc::img {
namespace {

ImageF32 gradient_image(i32 w, i32 h) {
  ImageF32 im(w, h);
  for (i32 y = 0; y < h; ++y) {
    for (i32 x = 0; x < w; ++x) {
      im.at(x, y) = static_cast<f32>(100 * x + 10 * y);
    }
  }
  return im;
}

TEST(Zoom, OutputDimensionsMatchParams) {
  ImageF32 roi = gradient_image(32, 24);
  ZoomParams p;
  p.output_width = 128;
  p.output_height = 96;
  ZoomResult r = zoom(roi, p);
  EXPECT_EQ(r.output.width(), 128);
  EXPECT_EQ(r.output.height(), 96);
}

TEST(Zoom, PreservesConstantImage) {
  ImageF32 roi(16, 16, 1234.0f);
  ZoomParams p;
  p.output_width = 64;
  p.output_height = 64;
  ZoomResult r = zoom(roi, p);
  for (i32 y = 4; y < 60; ++y) {
    for (i32 x = 4; x < 60; ++x) {
      EXPECT_NEAR(r.output.at(x, y), 1234, 2);
    }
  }
}

TEST(Zoom, UpscaledGradientStaysMonotone) {
  ImageF32 roi = gradient_image(16, 16);
  ZoomParams p;
  p.output_width = 64;
  p.output_height = 64;
  ZoomResult r = zoom(roi, p);
  for (i32 y = 8; y < 56; ++y) {
    for (i32 x = 9; x < 56; ++x) {
      EXPECT_GE(r.output.at(x, y), r.output.at(x - 1, y));
    }
  }
}

TEST(Zoom, StripedRunEqualsSerialRun) {
  Pcg32 rng(17);
  ImageF32 roi(24, 24);
  for (usize i = 0; i < roi.size(); ++i) {
    roi.data()[i] = static_cast<f32>(rng.uniform(0.0, 30000.0));
  }
  ZoomParams p;
  p.output_width = 96;
  p.output_height = 80;
  ZoomResult serial = zoom(roi, p);
  for (i32 stripes : {2, 3, 4}) {
    ImageU16 out(96, 80);
    WorkReport work;
    i32 y = 0;
    for (i32 s = 0; s < stripes; ++s) {
      i32 hi = (s == stripes - 1) ? 80 : y + 80 / stripes;
      zoom_rows(roi, p, out, IndexRange{y, hi}, work);
      y = hi;
    }
    EXPECT_EQ(out, serial.output) << stripes;
  }
}

TEST(Zoom, InvertedRowRangeAccountsNoWork) {
  ImageF32 roi = gradient_image(16, 16);
  ZoomParams p;
  p.output_width = 32;
  p.output_height = 32;
  ImageU16 out(32, 32);
  WorkReport work;
  zoom_rows(roi, p, out, IndexRange{10, 5}, work);
  EXPECT_EQ(work.pixel_ops, 0u);
  EXPECT_EQ(work.bytes_read, 0u);
  EXPECT_EQ(work.bytes_written, 0u);
  EXPECT_EQ(work.input_bytes, 0u);
  EXPECT_EQ(work.intermediate_bytes, 0u);
  EXPECT_EQ(work.output_bytes, 0u);
}

TEST(Zoom, WorkScalesWithOutputArea) {
  ImageF32 roi = gradient_image(16, 16);
  ZoomParams small;
  small.output_width = 32;
  small.output_height = 32;
  ZoomParams large;
  large.output_width = 128;
  large.output_height = 128;
  ZoomResult rs = zoom(roi, small);
  ZoomResult rl = zoom(roi, large);
  EXPECT_EQ(rl.work.pixel_ops, rs.work.pixel_ops * 16);
}

TEST(Zoom, ClampsToU16Range) {
  ImageF32 roi(8, 8, 100000.0f);  // above u16 max
  ZoomParams p;
  p.output_width = 16;
  p.output_height = 16;
  ZoomResult r = zoom(roi, p);
  EXPECT_EQ(r.output.at(8, 8), 65535);
}

}  // namespace
}  // namespace tc::img
