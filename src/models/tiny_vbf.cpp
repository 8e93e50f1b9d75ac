#include "models/tiny_vbf.hpp"

#include <cmath>

#include "common/parallel.hpp"
#include "tensor/tensor_ops.hpp"

namespace tvbf::models {
namespace {

// Rows per task for the row-parallel layer norm: each row is independent
// and d_model wide, so a few hundred rows per task amortize dispatch while
// a paper-scale frame (~12k rows) still spreads over the pool.
constexpr std::size_t kRowGrain = 256;

Tensor rounded(const std::function<void(Tensor&)>& hook, Tensor t) {
  if (hook) hook(t);
  return t;
}

Tensor dense(const Tensor& x, const DenseW& d, const ForwardRounding& r) {
  Tensor y = rounded(r.op, batched_matmul(x, *d.w));
  return rounded(r.op, add_bias(y, *d.b));
}

Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  const ForwardRounding& r) {
  // Mean/variance/rsqrt run at full precision (the accelerator computes the
  // non-linear ops — division, sqrt — in a dedicated wide unit); the
  // normalized output is rounded to the op width.
  const std::int64_t w = x.shape().back();
  Tensor out(x.shape());
  parallel_for_each(0, static_cast<std::size_t>(x.size() / w),
                    [&](std::size_t row) {
    const float* xr = x.raw() + static_cast<std::int64_t>(row) * w;
    float* yr = out.raw() + static_cast<std::int64_t>(row) * w;
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
  return rounded(r.op, std::move(out));
}

Tensor attention(const Tensor& x, const BlockW& blk, std::int64_t heads,
                 const ForwardRounding& r) {
  const std::int64_t nz = x.dim(0), np = x.dim(1), d = x.dim(2);
  const std::int64_t dk = d / heads;
  const Tensor q = dense(x, blk.wq, r);
  const Tensor k = dense(x, blk.wk, r);
  const Tensor v = dense(x, blk.wv, r);
  const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(dk));
  Tensor heads_out({nz, np, d});
  // Per-head slices are contiguous bands of the trailing axis.
  Tensor qh({nz, np, dk}), kh({nz, np, dk}), vh({nz, np, dk});
  for (std::int64_t h = 0; h < heads; ++h) {
    for (std::int64_t i = 0; i < nz * np; ++i)
      for (std::int64_t j = 0; j < dk; ++j) {
        qh.raw()[i * dk + j] = q.raw()[i * d + h * dk + j];
        kh.raw()[i * dk + j] = k.raw()[i * d + h * dk + j];
        vh.raw()[i * dk + j] = v.raw()[i * d + h * dk + j];
      }
    // Q.K^T through the blocked NT kernel: no materialized transpose.
    Tensor scores = rounded(r.op, batched_matmul_nt(qh, kh));
    scores = rounded(r.op, scale(scores, inv_sqrt_dk));
    const Tensor attn = rounded(r.softmax, softmax_last(scores));
    const Tensor oh = rounded(r.op, batched_matmul(attn, vh));  // (nz,np,dk)
    for (std::int64_t i = 0; i < nz * np; ++i)
      for (std::int64_t j = 0; j < dk; ++j)
        heads_out.raw()[i * d + h * dk + j] = oh.raw()[i * dk + j];
  }
  return dense(heads_out, blk.wo, r);
}

}  // namespace

Tensor tape_free_forward(const TinyVbfConfig& config,
                         const TinyVbfWeights& weights,
                         const ForwardRounding& r, Tensor input) {
  const auto& s = input.shape();
  TVBF_REQUIRE(s.size() == 3 && s[1] == config.num_lateral &&
                   s[2] == config.in_channels,
               "TinyVbf expects (nz, " + std::to_string(config.num_lateral) +
                   ", " + std::to_string(config.in_channels) + "); got " +
                   to_string(s));
  const std::int64_t nz = s[0];
  const std::int64_t np = config.num_patches();
  const std::int64_t d = config.d_model;

  // Input samples arrive through the same ADC-width path as intermediates.
  Tensor h = rounded(r.inter, std::move(input));
  // (nz, nx, nch) -> (nz, np, patch * nch): lateral patches are contiguous.
  h.reshape({nz, np, config.patch_size * config.in_channels});
  h = rounded(r.inter, dense(h, weights.embed, r));
  // Positional embedding added to every depth row via the flat view.
  h.reshape({nz, np * d});
  h = rounded(r.inter, add_bias(h, *weights.pos));
  h.reshape({nz, np, d});
  for (const BlockW& blk : weights.blocks) {
    const Tensor n1 = layer_norm(h, *blk.ln1_gamma, *blk.ln1_beta, r);
    h = rounded(r.inter, add(h, attention(n1, blk, config.num_heads, r)));
    const Tensor n2 = layer_norm(h, *blk.ln2_gamma, *blk.ln2_beta, r);
    const Tensor m = rounded(r.op, relu(dense(n2, blk.fc1, r)));
    h = rounded(r.inter, add(h, dense(m, blk.fc2, r)));
  }
  h = rounded(r.op, relu(dense(h, weights.dec1, r)));
  h = rounded(r.inter, dense(h, weights.dec2, r));
  h.reshape({nz, config.num_lateral, 2});
  return h;
}

void TinyVbfConfig::validate() const {
  TVBF_REQUIRE(in_channels > 0, "in_channels must be positive");
  TVBF_REQUIRE(num_lateral > 0, "num_lateral must be positive");
  TVBF_REQUIRE(patch_size > 0 && num_lateral % patch_size == 0,
               "num_lateral must be divisible by patch_size");
  TVBF_REQUIRE(d_model > 0 && num_heads > 0 && d_model % num_heads == 0,
               "d_model must be divisible by num_heads");
  TVBF_REQUIRE(mlp_hidden > 0 && decoder_hidden > 0 && num_blocks > 0,
               "hidden sizes and block count must be positive");
}

TinyVbfConfig TinyVbfConfig::paper() {
  return TinyVbfConfig{};  // defaults are the paper-scale values
}

TinyVbfConfig TinyVbfConfig::test(std::int64_t channels, std::int64_t lateral) {
  TinyVbfConfig c;
  c.in_channels = channels;
  c.num_lateral = lateral;
  c.patch_size = 4;
  c.d_model = 16;
  c.num_heads = 2;
  c.mlp_hidden = 32;
  c.num_blocks = 2;
  c.decoder_hidden = 32;
  return c;
}

TinyVbf::TinyVbf(TinyVbfConfig config, Rng& rng) : config_(config) {
  config_.validate();
  const std::int64_t patch_in = config_.patch_size * config_.in_channels;
  embed_ = std::make_unique<nn::Dense>(patch_in, config_.d_model, rng);
  // Positional embedding, stored flat so it can be added via add_bias on the
  // (nz, np * d_model) view of the sequence.
  Tensor pos({config_.num_patches() * config_.d_model});
  for (auto& v : pos.data()) v = static_cast<float>(rng.normal(0.0, 0.02));
  pos_ = nn::parameter(std::move(pos));
  for (std::int64_t b = 0; b < config_.num_blocks; ++b)
    blocks_.push_back(std::make_unique<nn::TransformerBlock>(
        config_.d_model, config_.num_heads, config_.mlp_hidden, rng));
  dec1_ = std::make_unique<nn::Dense>(config_.d_model, config_.decoder_hidden,
                                      rng);
  dec2_ = std::make_unique<nn::Dense>(config_.decoder_hidden,
                                      config_.patch_size * 2, rng);
}

nn::Variable TinyVbf::forward(const nn::Variable& x) const {
  const auto& s = x.shape();
  TVBF_REQUIRE(s.size() == 3, "TinyVbf expects (nz, nx, nch) input");
  TVBF_REQUIRE(s[1] == config_.num_lateral && s[2] == config_.in_channels,
               "TinyVbf configured for nx=" + std::to_string(config_.num_lateral) +
                   ", nch=" + std::to_string(config_.in_channels) + "; got " +
                   to_string(s));
  const std::int64_t nz = s[0];
  const std::int64_t np = config_.num_patches();
  const std::int64_t d = config_.d_model;

  // (nz, nx, nch) -> (nz, np, patch * nch): lateral patches are contiguous.
  nn::Variable h = nn::reshape(
      x, {nz, np, config_.patch_size * config_.in_channels});
  h = embed_->forward(h);  // (nz, np, d)
  // Positional embedding added to every depth row.
  h = nn::reshape(h, {nz, np * d});
  h = nn::add_bias(h, pos_);
  h = nn::reshape(h, {nz, np, d});
  for (const auto& block : blocks_) h = block->forward(h);
  h = nn::relu(dec1_->forward(h));            // (nz, np, dec)
  h = dec2_->forward(h);                      // (nz, np, patch * 2)
  return nn::reshape(h, {nz, config_.num_lateral, 2});
}

Tensor TinyVbf::infer(Tensor input) const {
  return tape_free_forward(config_, weights(), ForwardRounding{},
                           std::move(input));
}

TinyVbfWeights TinyVbf::weights() const {
  TinyVbfWeights w;
  w.blocks.resize(blocks_.size());
  const std::vector<nn::Variable> params = parameters();
  std::size_t i = 0;
  w.for_each([&](const Tensor*& slot, bool) { slot = &params[i++].value(); });
  return w;
}

std::vector<nn::Variable> TinyVbf::parameters() const {
  std::vector<nn::Variable> out = embed_->parameters();
  out.push_back(pos_);
  for (const auto& b : blocks_) {
    const auto p = b->parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  for (const auto* d : {dec1_.get(), dec2_.get()}) {
    const auto p = d->parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

std::int64_t TinyVbf::ops_per_frame(std::int64_t nz) const {
  TVBF_REQUIRE(nz > 0, "ops_per_frame needs nz > 0");
  const std::int64_t np = config_.num_patches();
  const std::int64_t d = config_.d_model;
  const std::int64_t dk = d / config_.num_heads;
  const std::int64_t patch_in = config_.patch_size * config_.in_channels;
  // 2 ops (mul + add) per MAC, per depth row.
  std::int64_t per_row = 0;
  per_row += 2 * np * patch_in * d;                       // patch embedding
  per_row += np * d;                                      // positional add
  std::int64_t block = 0;
  block += 4 * 2 * np * d * d;                            // Q, K, V, O proj
  block += config_.num_heads * 2 * np * np * dk * 2;      // scores + attn*V
  block += 5 * np * np * config_.num_heads;               // softmax (approx)
  block += 2 * (2 * np * d * config_.mlp_hidden);         // MLP dense pair
  block += 2 * (8 * np * d);                              // two layer norms
  per_row += config_.num_blocks * block;
  per_row += 2 * np * d * config_.decoder_hidden;         // decoder hidden
  per_row += 2 * np * config_.decoder_hidden * (config_.patch_size * 2);
  return per_row * nz;
}

}  // namespace tvbf::models
