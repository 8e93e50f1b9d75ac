#include "models/neural_beamformer.hpp"

#include <algorithm>
#include <cmath>

#include "common/parallel.hpp"
#include "dsp/hilbert.hpp"
#include "tensor/tensor_ops.hpp"

namespace tvbf::models {

Tensor normalized_input(const us::TofCube& cube) {
  TVBF_REQUIRE(cube.real.rank() == 3, "cube holds no data");
  const float* src = cube.real.raw();
  const auto n = static_cast<std::size_t>(cube.real.size());
  // Chunked max_abs over the pool: max is exact, so combining the chunk
  // maxima gives the serial max_abs bit for bit, in any order.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::vector<float> chunk_max((n + kChunk - 1) / kChunk, 0.0f);
  parallel_for_each(0, chunk_max.size(), [&](std::size_t c) {
    float m = 0.0f;
    for (std::size_t i = c * kChunk; i < std::min(n, (c + 1) * kChunk); ++i)
      m = std::max(m, std::fabs(src[i]));
    chunk_max[c] = m;
  }, 1);
  float m = 0.0f;
  for (const float cm : chunk_max) m = std::max(m, cm);
  // One fused copy-and-scale pass; an all-zero cube is copied as is.
  const float inv = m > 0.0f ? 1.0f / m : 1.0f;
  Tensor in(cube.real.shape());
  float* dst = in.raw();
  parallel_for(0, n, [&](std::size_t b, std::size_t e) {
    if (m > 0.0f)
      for (std::size_t i = b; i < e; ++i) dst[i] = src[i] * inv;
    else
      std::copy(src + b, src + e, dst + b);
  }, kChunk);
  return in;
}

Tensor rf_image_to_iq(const Tensor& rf) {
  return dsp::analytic_columns(rf);
}

TinyCnnBeamformer::TinyCnnBeamformer(std::shared_ptr<const TinyCnn> model)
    : model_(std::move(model)) {
  TVBF_REQUIRE(model_ != nullptr, "TinyCnnBeamformer needs a model");
}

Tensor TinyCnnBeamformer::beamform(const us::TofCube& cube) const {
  return rf_image_to_iq(model_->infer(normalized_input(cube)));
}

FcnnBeamformer::FcnnBeamformer(std::shared_ptr<const Fcnn> model)
    : model_(std::move(model)) {
  TVBF_REQUIRE(model_ != nullptr, "FcnnBeamformer needs a model");
}

Tensor FcnnBeamformer::beamform(const us::TofCube& cube) const {
  return rf_image_to_iq(model_->infer(normalized_input(cube)));
}

}  // namespace tvbf::models
