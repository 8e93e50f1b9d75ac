// Inference-time comparison (Section IV text): per-frame CPU time of
// Tiny-VBF vs Tiny-CNN vs FCNN vs DAS vs MVDR. The paper quotes, at
// 368 x 128 on a Xeon 2vCPU: Tiny-VBF 0.230 s, Tiny-CNN 0.520 s, CNN[8] 4 s,
// MVDR 240 s. Shape target: Tiny-VBF < Tiny-CNN << MVDR.
//
// google-benchmark binary; paper-scale cases run a single iteration each
// (MVDR at full scale is deliberately expensive — that is the point).
// The Tiny-VBF lanes time TinyVbf::infer, the tape-free forward (no
// autograd graph); Tiny-CNN and FCNN still infer through autograd.
#include <benchmark/benchmark.h>

#include "beamform/das.hpp"
#include "beamform/mvdr.hpp"
#include "common/rng.hpp"
#include "models/fcnn.hpp"
#include "models/tiny_cnn.hpp"
#include "models/tiny_vbf.hpp"
#include "us/tof.hpp"

namespace {

using namespace tvbf;

Tensor random_cube(std::int64_t nz, std::int64_t nx, std::int64_t nch,
                   std::uint64_t seed) {
  Rng rng(seed);
  Tensor t({nz, nx, nch});
  for (auto& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

us::TofCube random_tof_cube(std::int64_t nz, std::int64_t nx, std::int64_t nch,
                            bool analytic) {
  us::TofCube cube;
  cube.grid = us::ImagingGrid::reduced(us::Probe::test_probe(nch), nz, nx);
  cube.real = random_cube(nz, nx, nch, 1);
  if (analytic) cube.imag = random_cube(nz, nx, nch, 2);
  return cube;
}

// ---- paper scale (368 x 128, 128 channels), one iteration each ------------

// Tape-free float forward of one paper-scale frame.
void BM_TinyVbf_PaperScale(benchmark::State& state) {
  Rng rng(1);
  const models::TinyVbf model(models::TinyVbfConfig::paper(), rng);
  const Tensor input = random_cube(368, 128, 128, 3);
  for (auto _ : state) benchmark::DoNotOptimize(model.infer(input));
  state.counters["GOPs/frame"] =
      static_cast<double>(model.ops_per_frame(368)) / 1e9;
}
BENCHMARK(BM_TinyVbf_PaperScale)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_TinyCnn_PaperScale(benchmark::State& state) {
  Rng rng(1);
  const models::TinyCnn model(models::TinyCnnConfig::paper(), rng);
  const Tensor input = random_cube(368, 128, 128, 3);
  for (auto _ : state) benchmark::DoNotOptimize(model.infer(input));
  state.counters["GOPs/frame"] =
      static_cast<double>(model.ops_per_frame(368, 128)) / 1e9;
}
BENCHMARK(BM_TinyCnn_PaperScale)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fcnn_PaperScale(benchmark::State& state) {
  Rng rng(1);
  const models::Fcnn model(models::FcnnConfig::paper(), rng);
  const Tensor input = random_cube(368, 128, 128, 3);
  for (auto _ : state) benchmark::DoNotOptimize(model.infer(input));
  state.counters["GOPs/frame"] =
      static_cast<double>(model.ops_per_frame(368, 128)) / 1e9;
}
BENCHMARK(BM_Fcnn_PaperScale)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Das_PaperScale(benchmark::State& state) {
  const us::Probe probe = us::Probe::l11_5v();
  const bf::DasBeamformer das(probe);
  us::TofCube cube = random_tof_cube(368, 128, 128, false);
  cube.grid = us::ImagingGrid::paper(probe);
  for (auto _ : state) benchmark::DoNotOptimize(das.beamform(cube));
}
BENCHMARK(BM_Das_PaperScale)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_Mvdr_PaperScale(benchmark::State& state) {
  // Paper quotes 240 s/frame for MVDR on CPU; ours is threaded, but the
  // O(L^3) per-pixel cost still dominates the whole comparison.
  bf::MvdrParams params;
  params.subaperture = 64;
  const bf::MvdrBeamformer mvdr(params);
  const us::TofCube cube = random_tof_cube(368, 128, 128, true);
  for (auto _ : state) benchmark::DoNotOptimize(mvdr.beamform(cube));
}
BENCHMARK(BM_Mvdr_PaperScale)->Unit(benchmark::kMillisecond)->Iterations(1);

// ---- reduced scale (192 x 64, 32 channels), statistically sampled ----------

// Tape-free float forward at reduced scale.
void BM_TinyVbf_Reduced(benchmark::State& state) {
  Rng rng(1);
  models::TinyVbfConfig cfg;
  cfg.in_channels = 32;
  cfg.num_lateral = 64;
  const models::TinyVbf model(cfg, rng);
  const Tensor input = random_cube(192, 64, 32, 3);
  for (auto _ : state) benchmark::DoNotOptimize(model.infer(input));
}
BENCHMARK(BM_TinyVbf_Reduced)->Unit(benchmark::kMillisecond);

void BM_Mvdr_Reduced(benchmark::State& state) {
  bf::MvdrParams params;
  params.subaperture = 12;
  const bf::MvdrBeamformer mvdr(params);
  const us::TofCube cube = random_tof_cube(192, 64, 32, true);
  for (auto _ : state) benchmark::DoNotOptimize(mvdr.beamform(cube));
}
BENCHMARK(BM_Mvdr_Reduced)->Unit(benchmark::kMillisecond);

void BM_Das_Reduced(benchmark::State& state) {
  const bf::DasBeamformer das(us::Probe::test_probe(32));
  const us::TofCube cube = random_tof_cube(192, 64, 32, false);
  for (auto _ : state) benchmark::DoNotOptimize(das.beamform(cube));
}
BENCHMARK(BM_Das_Reduced)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
