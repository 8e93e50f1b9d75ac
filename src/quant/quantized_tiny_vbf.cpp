#include "quant/quantized_tiny_vbf.hpp"

#include <utility>

#include "models/neural_beamformer.hpp"

namespace tvbf::quant {

QuantizedTinyVbf::QuantizedTinyVbf(const models::TinyVbf& model,
                                   QuantScheme scheme)
    : config_(model.config()),
      scheme_(std::move(scheme)),
      weights_(model.weights()) {
  weights_.for_each([&](const Tensor*& slot, bool is_matrix) {
    Tensor& t = storage_.emplace_back(*slot);
    slot = &t;
    param_count_ += t.size();
    if (scheme_.is_float) return;
    // Matrices are quantized per output channel at the weight width.
    // Biases and layer-norm parameters are stored at the op (accumulator)
    // width, as in standard integer inference stacks (e.g. int8 weights
    // with int32 biases): they are few, but their error feeds every
    // activation.
    if (is_matrix)
      quantize_weights_per_channel_inplace(t, scheme_.weight_bits);
    else
      quantize_tensor_inplace(t, weight_format_for(t, scheme_.op_bits));
  });
  if (scheme_.is_float) return;
  const auto hook = [](FixedFormat fmt) {
    return [fmt](Tensor& t) { quantize_tensor_inplace(t, fmt); };
  };
  rounding_ = {hook(scheme_.op_format()), hook(scheme_.inter_format()),
               hook(scheme_.softmax_format())};
}

Tensor QuantizedTinyVbf::infer(Tensor input) const {
  return models::tape_free_forward(config_, weights_, rounding_,
                                   std::move(input));
}

std::int64_t QuantizedTinyVbf::weight_storage_bits() const {
  const std::int64_t bits_per =
      scheme_.is_float ? 32 : scheme_.weight_bits;
  return param_count_ * bits_per;
}

}  // namespace tvbf::quant
