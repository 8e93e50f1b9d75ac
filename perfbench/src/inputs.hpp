// Seeded inputs: the acquisitions a workload replays, the Tiny-VBF weights
// and the one-shot reference images every delivered frame is checked
// against. Everything here is load generation and runs before timing.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "beamform/beamformer.hpp"
#include "models/tiny_vbf.hpp"
#include "tensor/tensor.hpp"
#include "us/grid.hpp"
#include "us/probe.hpp"
#include "us/simulator.hpp"

namespace perfbench {

/// Distinct acquisitions a workload replays round-robin.
inline constexpr int kNumAcquisitions = 3;

/// Probe, grid and the simulated single-angle acquisitions of one seed.
struct Scene {
  tvbf::us::Probe probe;
  tvbf::us::ImagingGrid grid;
  std::vector<tvbf::us::Acquisition> acquisitions;
};

/// Paper scale: Probe::l11_5v, ImagingGrid::paper, single 0-degree angle.
Scene make_scene(std::uint64_t seed, int num_acquisitions = kNumAcquisitions);

/// Same, on a caller-chosen probe and grid (the helper tests use a small
/// one). Acquisition k simulates its own speckle phantom and noise, both
/// derived from (seed, k), so the same seed gives identical RF.
Scene make_scene(std::uint64_t seed, int num_acquisitions,
                 const tvbf::us::Probe& probe,
                 const tvbf::us::ImagingGrid& grid);

/// Tiny-VBF with seed-derived random weights. Frame cost does not depend on
/// the weight values, so no trained model is needed.
std::shared_ptr<tvbf::models::TinyVbf> make_weights(
    std::uint64_t seed, const tvbf::models::TinyVbfConfig& config =
                            tvbf::models::TinyVbfConfig::paper());

/// One-shot B-mode of `acq`: tof_correct -> beamform -> envelope_iq ->
/// log_compress(60 dB), the path the streamed frames must reproduce.
tvbf::Tensor one_shot_bmode(const tvbf::us::Acquisition& acq,
                            const tvbf::us::ImagingGrid& grid,
                            const tvbf::bf::Beamformer& beamformer);

/// Tolerance of a streamed frame against its one-shot reference [dB] (the
/// streamed-vs-one-shot parity bound of bench_pipeline).
inline constexpr float kReferenceToleranceDb = 1e-4f;

/// Largest |a - b| over two same-shaped tensors (infinity on shape
/// mismatch).
float max_abs_diff(const tvbf::Tensor& a, const tvbf::Tensor& b);

/// True when both tensors have the same shape and identical bits.
bool bit_equal(const tvbf::Tensor& a, const tvbf::Tensor& b);

}  // namespace perfbench
