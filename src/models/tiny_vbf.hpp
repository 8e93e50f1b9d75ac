// Tiny-VBF: the paper's vision-transformer beamformer.
//
// ToF-corrected RF channel data (nz, nx, nch), normalized to [-1, 1], is
// split per depth row into np = nx / patch_size lateral patches. Each patch
// (patch_size * nch values) is embedded by a dense layer, a learned
// positional embedding is added, two transformer encoder blocks attend
// across the lateral patches, and a dense decoder reconstructs the
// IQ-demodulated beamformed image (nz, nx, 2).
//
// The paper does not publish layer dimensions; TinyVbfConfig::paper() is
// tuned so the op count lands at the reported ~0.34 GOPs/frame for a
// 368 x 128 frame with 128 channels (see EXPERIMENTS.md for measured
// values). All dimensions are configurable.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/modules.hpp"

namespace tvbf::models {

/// Architecture hyper-parameters of Tiny-VBF.
struct TinyVbfConfig {
  std::int64_t in_channels = 128;   ///< transducer channels (nch)
  std::int64_t num_lateral = 128;   ///< image columns (nx)
  std::int64_t patch_size = 4;      ///< lateral pixels per patch
  std::int64_t d_model = 16;        ///< embedding width
  std::int64_t num_heads = 2;       ///< attention heads
  std::int64_t mlp_hidden = 32;     ///< transformer MLP hidden width
  std::int64_t num_blocks = 2;      ///< encoder transformer blocks (paper: 2)
  std::int64_t decoder_hidden = 32; ///< decoder hidden width

  std::int64_t num_patches() const { return num_lateral / patch_size; }

  void validate() const;

  /// Paper-scale configuration (128 channels, 128 lateral pixels).
  static TinyVbfConfig paper();
  /// Reduced configuration for tests and fast benches.
  static TinyVbfConfig test(std::int64_t channels = 16,
                            std::int64_t lateral = 32);
};

/// One dense layer's parameters as the tape-free forward reads them.
struct DenseW {
  const Tensor* w = nullptr;  ///< (in, out)
  const Tensor* b = nullptr;  ///< (out)
};

/// One pre-norm encoder block's parameters.
struct BlockW {
  const Tensor* ln1_gamma = nullptr;
  const Tensor* ln1_beta = nullptr;
  DenseW wq, wk, wv, wo;
  const Tensor* ln2_gamma = nullptr;
  const Tensor* ln2_beta = nullptr;
  DenseW fc1, fc2;
};

/// Every parameter of a Tiny-VBF, by pointer: TinyVbf::weights() points at
/// the live parameter values, QuantizedTinyVbf at its quantized copies.
struct TinyVbfWeights {
  DenseW embed;
  const Tensor* pos = nullptr;
  std::vector<BlockW> blocks;
  DenseW dec1, dec2;

  /// Calls fn(slot, is_matrix) on every slot in TinyVbf::parameters()
  /// order; is_matrix marks the dense weight matrices and the positional
  /// table, as against biases and layer-norm parameters.
  template <class Fn>
  void for_each(Fn&& fn) {
    const auto dense = [&](DenseW& d) {
      fn(d.w, true);
      fn(d.b, false);
    };
    dense(embed);
    fn(pos, true);
    for (BlockW& b : blocks) {
      fn(b.ln1_gamma, false);
      fn(b.ln1_beta, false);
      for (DenseW* d : {&b.wq, &b.wk, &b.wv, &b.wo}) dense(*d);
      fn(b.ln2_gamma, false);
      fn(b.ln2_beta, false);
      dense(b.fc1);
      dense(b.fc2);
    }
    dense(dec1);
    dense(dec2);
  }
};

/// The three rounding points of the tape-free forward. Each hook rounds a
/// tensor in place; an empty hook is the identity, so the float forward
/// leaves all three empty.
struct ForwardRounding {
  std::function<void(Tensor&)> op;       ///< every multiply/add result
  std::function<void(Tensor&)> inter;    ///< layer output buffers
  std::function<void(Tensor&)> softmax;  ///< attention probabilities
};

/// Tape-free Tiny-VBF forward, (nz, nx, nch) -> IQ (nz, nx, 2): plain
/// tensor kernels, row-parallel layer norm and softmax, no autograd graph.
/// Layer norm accumulates in double and Q.K^T runs the NT GEMM, so it
/// agrees with TinyVbf::forward() to within float rounding, not bit for
/// bit. Every op is per depth row, so stacked frames give per-frame bits.
Tensor tape_free_forward(const TinyVbfConfig& config,
                         const TinyVbfWeights& weights,
                         const ForwardRounding& rounding, Tensor input);

/// The Tiny-VBF network.
class TinyVbf : public nn::Module {
 public:
  TinyVbf(TinyVbfConfig config, Rng& rng);

  /// Differentiable forward pass: x is a constant/leaf Variable of shape
  /// (nz, nx, nch); returns the IQ image (nz, nx, 2). The training path.
  nn::Variable forward(const nn::Variable& x) const;

  /// Inference: tape_free_forward() over the current parameter values.
  /// Pass an rvalue to let the forward reuse the input buffer.
  Tensor infer(Tensor input) const;

  std::vector<nn::Variable> parameters() const override;
  const TinyVbfConfig& config() const { return config_; }
  std::string name() const { return "Tiny-VBF"; }

  /// Multiply+add operation count for one frame of `nz` depth rows,
  /// counted as 2 ops per MAC (the GOPs/frame convention of the paper).
  std::int64_t ops_per_frame(std::int64_t nz) const;

  /// Pointers to the live parameter values; training updates them in
  /// place, so a view taken per call never goes stale.
  TinyVbfWeights weights() const;

 private:
  TinyVbfConfig config_;
  std::unique_ptr<nn::Dense> embed_;
  nn::Variable pos_;  // (np * d_model) learned positional embedding
  std::vector<std::unique_ptr<nn::TransformerBlock>> blocks_;
  std::unique_ptr<nn::Dense> dec1_, dec2_;
};

}  // namespace tvbf::models
