// Micro-benchmarks of the imaging kernels (google-benchmark).  Not a paper
// figure; used to track the substrate's host performance.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "imaging/pipeline.hpp"
#include "imaging/synthetic.hpp"
#include "app/stentboost.hpp"

using namespace tc;

namespace {

img::ImageF32 random_image(i32 size, u64 seed) {
  img::ImageF32 im(size, size);
  Pcg32 rng(seed);
  for (usize i = 0; i < im.size(); ++i) {
    im.data()[i] = static_cast<f32>(rng.uniform(0.0, 40000.0));
  }
  return im;
}

void BM_GaussianBlur(benchmark::State& state) {
  const i32 size = static_cast<i32>(state.range(0));
  img::ImageF32 im = random_image(size, 1);
  for (auto _ : state) {
    img::ImageF32 out = img::gaussian_blur(im, 2.0);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_GaussianBlur)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

void BM_RidgeDetect(benchmark::State& state) {
  const i32 size = static_cast<i32>(state.range(0));
  img::ImageF32 im = random_image(size, 2);
  img::RidgeParams params;
  for (auto _ : state) {
    img::RidgeResult r = img::ridge_detect(im, im.full_rect(), params);
    benchmark::DoNotOptimize(r.dominant_pixels);
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_RidgeDetect)->Arg(128)->Arg(256);

/// Full-frame ridge detection (RDG_FULL) on a rendered frame inside the
/// contrast bolus: random pixels would make nearly every pixel a sub-stage D
/// candidate, which real frames do not.
void BM_RidgeDetectFrame(benchmark::State& state) {
  const i32 size = static_cast<i32>(state.range(0));
  const app::StentBoostConfig c = app::StentBoostConfig::make(size, size, 100, 7);
  const img::ImageF32 im = img::to_f32(img::AngioSequence(c.sequence).render(60));
  for (auto _ : state) {
    img::RidgeResult r = img::ridge_detect(im, im.full_rect(), c.ridge);
    benchmark::DoNotOptimize(r.dominant_pixels);
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_RidgeDetectFrame)->Arg(1024);

void BM_ExtractMarkers(benchmark::State& state) {
  const i32 size = static_cast<i32>(state.range(0));
  img::ImageF32 im = random_image(size, 3);
  img::MarkerParams params;
  for (auto _ : state) {
    img::MarkerResult r =
        img::extract_markers(im, im.full_rect(), params, nullptr);
    benchmark::DoNotOptimize(r.candidates.data());
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_ExtractMarkers)->Arg(256);

void BM_TranslateBilinear(benchmark::State& state) {
  const i32 size = static_cast<i32>(state.range(0));
  img::ImageF32 im = random_image(size, 4);
  for (auto _ : state) {
    img::ImageF32 out = img::translate_bilinear(im, 0.7, -1.3);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_TranslateBilinear)->Arg(256);

/// ZOOM of an ROI of side range(0) to a display of side range(1).
void BM_Zoom(benchmark::State& state) {
  img::ImageF32 roi = random_image(static_cast<i32>(state.range(0)), 5);
  const i32 out = static_cast<i32>(state.range(1));
  img::ZoomParams params;
  params.output_width = out;
  params.output_height = out;
  for (auto _ : state) {
    img::ZoomResult r = img::zoom(roi, params);
    benchmark::DoNotOptimize(r.output.data());
  }
  state.SetItemsProcessed(state.iterations() * out * out);
}
BENCHMARK(BM_Zoom)->Args({128, 512})->Args({400, 1024});

/// ENH's steady state: a rigid warp blended into a same-size accumulator,
/// which is moved in and out as the application does.
void BM_Enhance(benchmark::State& state) {
  const i32 size = static_cast<i32>(state.range(0));
  const img::ImageF32 frame = random_image(size, 6);
  img::ImageF32 acc = random_image(size, 7);
  const Rect roi{size / 4, size / 4, size / 2, size / 2};
  for (auto _ : state) {
    img::EnhanceResult r = img::enhance(frame, roi, std::move(acc), 1.5,
                                        -0.75, img::EnhanceParams{});
    acc = std::move(r.accumulator);
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_Enhance)->Arg(1024);

void BM_SyntheticRender(benchmark::State& state) {
  const i32 size = static_cast<i32>(state.range(0));
  img::SequenceParams p;
  p.width = size;
  p.height = size;
  p.frames = 1000;
  img::AngioSequence seq(p);
  i32 t = 0;
  for (auto _ : state) {
    img::ImageU16 frame = seq.render(t++ % 1000);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetItemsProcessed(state.iterations() * size * size);
}
BENCHMARK(BM_SyntheticRender)->Arg(256);

void BM_FullPipelineFrame(benchmark::State& state) {
  app::StentBoostConfig c = app::StentBoostConfig::make(256, 256, 100000, 6);
  c.sequence.contrast_in_frame = 0;
  app::StentBoostApp app(c);
  i32 t = 0;
  for (auto _ : state) {
    graph::FrameRecord r = app.process_frame(t++);
    benchmark::DoNotOptimize(r.latency_ms);
  }
}
BENCHMARK(BM_FullPipelineFrame);

}  // namespace

BENCHMARK_MAIN();
