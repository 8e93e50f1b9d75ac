#include "quant/quantized_tiny_vbf.hpp"

#include <cmath>
#include <utility>

#include "common/parallel.hpp"
#include "models/neural_beamformer.hpp"
#include "tensor/tensor_ops.hpp"

namespace tvbf::quant {
namespace {

// Rows per task for the row-parallel layer norm and softmax: each row is
// independent and ~d_model wide, so a few hundred rows per task amortize
// dispatch while a paper-scale frame (~12k rows) still spreads over the pool.
constexpr std::size_t kRowGrain = 256;

Tensor maybe_quant_weights(const Tensor& w, const QuantScheme& s) {
  if (s.is_float) return w;
  Tensor q = w;
  quantize_weights_per_channel_inplace(q, s.weight_bits);
  return q;
}

/// Biases and layer-norm parameters are stored at the op (accumulator)
/// width, as in standard integer inference stacks (e.g. int8 weights with
/// int32 biases): they are few, but their error feeds every activation.
Tensor maybe_quant_affine(const Tensor& p, const QuantScheme& s) {
  if (s.is_float) return p;
  return quantized(p, weight_format_for(p, s.op_bits));
}

}  // namespace

QuantizedTinyVbf::QuantizedTinyVbf(const models::TinyVbf& model,
                                   QuantScheme scheme)
    : config_(model.config()), scheme_(std::move(scheme)) {
  auto grab = [&](const nn::Dense& d) {
    DenseW out;
    out.w = maybe_quant_weights(d.weight().value(), scheme_);
    out.b = maybe_quant_affine(d.bias().value(), scheme_);
    param_count_ += out.w.size() + out.b.size();
    return out;
  };
  embed_ = grab(model.embed());
  pos_ = maybe_quant_weights(model.positional().value(), scheme_);
  param_count_ += pos_.size();
  for (const auto& b : model.blocks()) {
    BlockW blk;
    blk.ln1_gamma = maybe_quant_affine(b->norm1().gamma().value(), scheme_);
    blk.ln1_beta = maybe_quant_affine(b->norm1().beta().value(), scheme_);
    blk.wq = grab(b->attention().wq());
    blk.wk = grab(b->attention().wk());
    blk.wv = grab(b->attention().wv());
    blk.wo = grab(b->attention().wo());
    blk.ln2_gamma = maybe_quant_affine(b->norm2().gamma().value(), scheme_);
    blk.ln2_beta = maybe_quant_affine(b->norm2().beta().value(), scheme_);
    blk.fc1 = grab(b->mlp_in());
    blk.fc2 = grab(b->mlp_out());
    param_count_ += blk.ln1_gamma.size() + blk.ln1_beta.size() +
                    blk.ln2_gamma.size() + blk.ln2_beta.size();
    blocks_.push_back(std::move(blk));
  }
  dec1_ = grab(model.decoder_in());
  dec2_ = grab(model.decoder_out());
}

Tensor QuantizedTinyVbf::q_op(Tensor t) const {
  if (!scheme_.is_float) quantize_tensor_inplace(t, scheme_.op_format());
  return t;
}

Tensor QuantizedTinyVbf::q_inter(Tensor t) const {
  if (!scheme_.is_float) quantize_tensor_inplace(t, scheme_.inter_format());
  return t;
}

Tensor QuantizedTinyVbf::dense(const Tensor& x, const DenseW& d) const {
  Tensor y = q_op(batched_matmul(x, d.w));
  return q_op(add_bias(y, d.b));
}

Tensor QuantizedTinyVbf::layer_norm(const Tensor& x, const Tensor& gamma,
                                    const Tensor& beta) const {
  // Mean/variance/rsqrt run at full precision (the accelerator computes the
  // non-linear ops — division, sqrt — in a dedicated wide unit); the
  // normalized output is rounded to the op width.
  const std::int64_t w = x.shape().back();
  const auto rows = static_cast<std::size_t>(x.size() / w);
  Tensor out(x.shape());
  parallel_for_each(0, rows, [&](std::size_t r) {
    const float* xr = x.raw() + static_cast<std::int64_t>(r) * w;
    float* yr = out.raw() + static_cast<std::int64_t>(r) * w;
    double mu = 0.0;
    for (std::int64_t j = 0; j < w; ++j) mu += xr[j];
    mu /= static_cast<double>(w);
    double var = 0.0;
    for (std::int64_t j = 0; j < w; ++j) {
      const double d = xr[j] - mu;
      var += d * d;
    }
    var /= static_cast<double>(w);
    const double istd = 1.0 / std::sqrt(var + 1e-5);
    for (std::int64_t j = 0; j < w; ++j)
      yr[j] = static_cast<float>(
          gamma.raw()[j] * (xr[j] - mu) * istd + beta.raw()[j]);
  }, kRowGrain);
  return q_op(std::move(out));
}

Tensor QuantizedTinyVbf::softmax_last(const Tensor& x) const {
  const std::int64_t w = x.shape().back();
  const auto rows = static_cast<std::size_t>(x.size() / w);
  Tensor out(x.shape());
  parallel_for_each(0, rows, [&](std::size_t r) {
    const float* xr = x.raw() + static_cast<std::int64_t>(r) * w;
    float* yr = out.raw() + static_cast<std::int64_t>(r) * w;
    float m = xr[0];
    for (std::int64_t j = 1; j < w; ++j) m = std::max(m, xr[j]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < w; ++j) {
      yr[j] = std::exp(xr[j] - m);
      denom += yr[j];
    }
    const auto inv = static_cast<float>(1.0 / denom);
    for (std::int64_t j = 0; j < w; ++j) yr[j] *= inv;
  }, kRowGrain);
  if (!scheme_.is_float)
    quantize_tensor_inplace(out, scheme_.softmax_format());
  return out;
}

Tensor QuantizedTinyVbf::attention(const Tensor& x, const BlockW& blk) const {
  const std::int64_t nz = x.dim(0), np = x.dim(1), d = x.dim(2);
  const std::int64_t heads = config_.num_heads;
  const std::int64_t dk = d / heads;
  const Tensor q = dense(x, blk.wq);
  const Tensor k = dense(x, blk.wk);
  const Tensor v = dense(x, blk.wv);
  const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(dk));
  Tensor heads_out({nz, np, d});
  // Per-head slices are contiguous bands of the trailing axis.
  Tensor qh({nz, np, dk}), kh({nz, np, dk}), vh({nz, np, dk});
  for (std::int64_t h = 0; h < heads; ++h) {
    for (std::int64_t r = 0; r < nz * np; ++r)
      for (std::int64_t j = 0; j < dk; ++j) {
        qh.raw()[r * dk + j] = q.raw()[r * d + h * dk + j];
        kh.raw()[r * dk + j] = k.raw()[r * d + h * dk + j];
        vh.raw()[r * dk + j] = v.raw()[r * d + h * dk + j];
      }
    // Q.K^T through the blocked NT kernel: no materialized transpose.
    Tensor scores = q_op(batched_matmul_nt(qh, kh));
    scores = q_op(scale(scores, inv_sqrt_dk));
    const Tensor attn = softmax_last(scores);
    const Tensor oh = q_op(batched_matmul(attn, vh));  // (nz, np, dk)
    for (std::int64_t r = 0; r < nz * np; ++r)
      for (std::int64_t j = 0; j < dk; ++j)
        heads_out.raw()[r * d + h * dk + j] = oh.raw()[r * dk + j];
  }
  return dense(heads_out, blk.wo);
}

Tensor QuantizedTinyVbf::infer(const Tensor& input) const {
  return infer(Tensor(input));
}

Tensor QuantizedTinyVbf::infer(Tensor&& input) const {
  const auto& s = input.shape();
  TVBF_REQUIRE(s.size() == 3 && s[1] == config_.num_lateral &&
                   s[2] == config_.in_channels,
               "QuantizedTinyVbf expects (nz, " +
                   std::to_string(config_.num_lateral) + ", " +
                   std::to_string(config_.in_channels) + "); got " +
                   to_string(s));
  const std::int64_t nz = s[0];
  const std::int64_t np = config_.num_patches();
  const std::int64_t d = config_.d_model;

  // Input samples arrive through the same ADC-width path as intermediates.
  Tensor h = q_inter(std::move(input));
  h.reshape({nz, np, config_.patch_size * config_.in_channels});
  h = q_inter(dense(h, embed_));
  {  // positional embedding
    Tensor flat = h.reshaped({nz, np * d});
    flat = q_inter(add_bias(flat, pos_));
    h = flat.reshaped({nz, np, d});
  }
  for (const auto& blk : blocks_) {
    const Tensor n1 = layer_norm(h, blk.ln1_gamma, blk.ln1_beta);
    h = q_inter(add(h, attention(n1, blk)));
    const Tensor n2 = layer_norm(h, blk.ln2_gamma, blk.ln2_beta);
    Tensor m = q_op(relu(dense(n2, blk.fc1)));
    m = dense(m, blk.fc2);
    h = q_inter(add(h, m));
  }
  h = q_op(relu(dense(h, dec1_)));
  h = q_inter(dense(h, dec2_));
  return h.reshaped({nz, config_.num_lateral, 2});
}

std::vector<Tensor> QuantizedTinyVbf::infer_batch(
    const std::vector<const Tensor*>& inputs) const {
  // Same depth-axis stacking as TinyVbf::infer_batch: every fixed-point
  // stage is per depth row, so batched results match solo infer() exactly.
  return models::stacked_forward(
      inputs, [this](const Tensor& stacked) { return infer(stacked); });
}

QuantizedVbfBeamformer::QuantizedVbfBeamformer(
    std::shared_ptr<const QuantizedTinyVbf> model)
    : model_(std::move(model)) {
  TVBF_REQUIRE(model_ != nullptr, "QuantizedVbfBeamformer needs a model");
}

std::string QuantizedVbfBeamformer::name() const {
  return "Tiny-VBF[" + model_->scheme().name + "]";
}

Tensor QuantizedVbfBeamformer::beamform(const us::TofCube& cube) const {
  return model_->infer(models::normalized_input(cube));
}

std::vector<Tensor> QuantizedVbfBeamformer::beamform_batch(
    const std::vector<const us::TofCube*>& cubes) const {
  return models::beamform_batch_normalized(
      cubes, [this](const std::vector<const Tensor*>& inputs) {
        return model_->infer_batch(inputs);
      });
}

bool QuantizedVbfBeamformer::encode_cost_probe(
    device::CommandEncoder& encoder, std::int64_t nz_total) const {
  models::encode_tiny_vbf_probe(model_->config(), nz_total, encoder);
  return true;
}

std::int64_t QuantizedTinyVbf::weight_storage_bits() const {
  const std::int64_t bits_per =
      scheme_.is_float ? 32 : scheme_.weight_bits;
  return param_count_ * bits_per;
}

}  // namespace tvbf::quant
