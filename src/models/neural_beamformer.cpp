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

std::vector<Tensor> stacked_forward(
    const std::vector<const Tensor*>& inputs,
    const std::function<Tensor(Tensor)>& infer) {
  TVBF_REQUIRE(!inputs.empty(), "infer_batch needs at least one frame");
  TVBF_REQUIRE(inputs.front() != nullptr, "infer_batch got a null frame");
  if (inputs.size() == 1) return {infer(*inputs.front())};
  const Tensor out = infer(concat0_all(inputs));
  std::vector<Tensor> results;
  results.reserve(inputs.size());
  std::int64_t row = 0;
  for (const Tensor* in : inputs) {
    const std::int64_t nz = in->dim(0);
    results.push_back(slice0(out, row, row + nz));
    row += nz;
  }
  return results;
}

void encode_tiny_vbf_probe(const TinyVbfConfig& config, std::int64_t nz_total,
                           device::CommandEncoder& encoder) {
  TVBF_REQUIRE(nz_total > 0, "cost probe needs a positive row count");
  const std::int64_t nz = nz_total;
  const std::int64_t np = config.num_patches();
  const std::int64_t d = config.d_model;
  const std::int64_t dk = d / config.num_heads;
  const std::int64_t pin = config.patch_size * config.in_channels;
  // The matmul schedule of one stacked forward pass (mirrors
  // accel::AcceleratorSim::run_tiny_vbf, which prices the same network):
  // embed, per block Q/K/V + scores + head outputs + output projection +
  // the two MLP matmuls, then the two decoder matmuls. Elementwise /
  // softmax / layer-norm stages are negligible against these and omitted.
  encoder.batched_gemm(nullptr, nullptr, nullptr, nz, np, pin, d);
  for (std::int64_t b = 0; b < config.num_blocks; ++b) {
    for (int proj = 0; proj < 3; ++proj)  // wq, wk, wv
      encoder.batched_gemm(nullptr, nullptr, nullptr, nz, np, d, d);
    encoder.batched_gemm(nullptr, nullptr, nullptr, nz * config.num_heads,
                         np, dk, np, /*transpose_b=*/true);  // scores
    encoder.batched_gemm(nullptr, nullptr, nullptr, nz * config.num_heads,
                         np, np, dk);  // attn . V
    encoder.batched_gemm(nullptr, nullptr, nullptr, nz, np, d, d);  // wo
    encoder.batched_gemm(nullptr, nullptr, nullptr, nz, np, d,
                         config.mlp_hidden);  // fc1
    encoder.batched_gemm(nullptr, nullptr, nullptr, nz, np,
                         config.mlp_hidden, d);  // fc2
  }
  encoder.batched_gemm(nullptr, nullptr, nullptr, nz, np, d,
                       config.decoder_hidden);  // dec1
  encoder.batched_gemm(nullptr, nullptr, nullptr, nz, np,
                       config.decoder_hidden, config.patch_size * 2);  // dec2
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
