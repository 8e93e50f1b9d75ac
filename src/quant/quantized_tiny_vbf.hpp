// Fixed-point inference of a trained Tiny-VBF under a QuantScheme.
//
// Runs the tape-free forward of models::tape_free_forward with a
// fake-quantization step at each of its rounding points, mirroring the
// datapath of the accelerator (Figs 5-8): weights are stored quantized,
// every multiply/add result is rounded to the op width, softmax runs at its
// own (wider) width, and each layer writes its output BRAM buffer at the
// intermediate width. With QuantScheme::float_reference() the output is
// bit-identical to TinyVbf::infer.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "models/neural_beamformer.hpp"
#include "quant/scheme.hpp"

namespace tvbf::quant {

/// Quantized view over a trained Tiny-VBF model.
class QuantizedTinyVbf {
 public:
  /// Captures (and quantizes) the model's weights; the model must outlive
  /// nothing — weights are copied.
  QuantizedTinyVbf(const models::TinyVbf& model, QuantScheme scheme);
  // weights_ points into storage_.
  QuantizedTinyVbf(const QuantizedTinyVbf&) = delete;
  QuantizedTinyVbf& operator=(const QuantizedTinyVbf&) = delete;

  /// Fixed-point forward pass: (nz, nx, nch) -> IQ (nz, nx, 2). An rvalue
  /// input is quantised in place instead of copied first.
  Tensor infer(Tensor input) const;

  const QuantScheme& scheme() const { return scheme_; }
  const models::TinyVbfConfig& config() const { return config_; }
  /// "Tiny-VBF[<scheme>]", e.g. "Tiny-VBF[Hybrid-2]".
  std::string name() const { return "Tiny-VBF[" + scheme_.name + "]"; }

  /// Total bits of quantized parameter storage (BRAM budget input).
  std::int64_t weight_storage_bits() const;

 private:
  models::TinyVbfConfig config_;
  QuantScheme scheme_;
  std::deque<Tensor> storage_;  ///< the (quantized) weight copies
  models::TinyVbfWeights weights_;
  models::ForwardRounding rounding_;
  std::int64_t param_count_ = 0;
};

/// QuantizedTinyVbf through the common Beamformer interface: the same
/// [-1, 1] cube normalization as models::TinyVbfBeamformer.
using QuantizedVbfBeamformer = models::VbfBeamformer<QuantizedTinyVbf>;

}  // namespace tvbf::quant
