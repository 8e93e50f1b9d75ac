// Adapters exposing the learned models through the common Beamformer
// interface, so the metric/benchmark pipeline treats DAS, MVDR and the
// networks identically.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "beamform/beamformer.hpp"
#include "models/fcnn.hpp"
#include "models/tiny_cnn.hpp"
#include "models/tiny_vbf.hpp"

namespace tvbf::models {

/// Tiny-CNN as a Beamformer: network emits beamformed RF; a per-column
/// Hilbert transform produces the IQ image (paper Section II).
class TinyCnnBeamformer : public bf::Beamformer {
 public:
  explicit TinyCnnBeamformer(std::shared_ptr<const TinyCnn> model);

  std::string name() const override { return "Tiny-CNN"; }
  Tensor beamform(const us::TofCube& cube) const override;

 private:
  std::shared_ptr<const TinyCnn> model_;
};

/// FCNN as a Beamformer (same RF -> IQ conversion as Tiny-CNN).
class FcnnBeamformer : public bf::Beamformer {
 public:
  explicit FcnnBeamformer(std::shared_ptr<const Fcnn> model);

  std::string name() const override { return "FCNN"; }
  Tensor beamform(const us::TofCube& cube) const override;

 private:
  std::shared_ptr<const Fcnn> model_;
};

/// Normalized copy of the cube's RF data, scaled by 1 / max|x| (shared by
/// the adapters; bit-identical to us::normalize_cube, which the training-set
/// builder runs). Max and copy-and-scale are threaded over the pool.
Tensor normalized_input(const us::TofCube& cube);

/// Shared plumbing of every batch-of-frames entry point: stacks the
/// per-frame inputs along the depth axis, runs `infer` once on the stacked
/// tensor, and splits the output back per frame. Single-frame batches skip
/// the stack/split copies.
std::vector<Tensor> stacked_forward(
    const std::vector<const Tensor*>& inputs,
    const std::function<Tensor(Tensor)>& infer);

/// Converts a beamformed RF image (nz, nx) to IQ (nz, nx, 2) via per-column
/// analytic signal.
Tensor rf_image_to_iq(const Tensor& rf);

/// Encodes the matmul schedule of one Tiny-VBF forward pass over nz_total
/// stacked depth rows as an estimate-only cost probe (null data pointers).
/// Shared by the float and quantized beamformer adapters so both report
/// the same command structure to the device cost models.
void encode_tiny_vbf_probe(const TinyVbfConfig& config, std::int64_t nz_total,
                           device::CommandEncoder& encoder);

/// Tiny-VBF as a Beamformer: normalizes the RF cube to [-1, 1] and runs the
/// network; the network output is already an IQ image. `Model` is TinyVbf,
/// or quant::QuantizedTinyVbf (quant::QuantizedVbfBeamformer); both run
/// the one tape-free forward, so they share the cost probe too. Batch-
/// capable: the per-depth-row transformer lets several frames stack into
/// one forward pass (cubes are normalized per frame first, so batched
/// outputs are bit-identical to solo beamform() calls).
template <class Model>
class VbfBeamformer : public bf::BatchedBeamformer {
 public:
  explicit VbfBeamformer(std::shared_ptr<const Model> model)
      : model_(std::move(model)) {
    TVBF_REQUIRE(model_ != nullptr, "Tiny-VBF beamformer needs a model");
  }

  std::string name() const override { return model_->name(); }
  Tensor beamform(const us::TofCube& cube) const override {
    return model_->infer(normalized_input(cube));
  }
  std::vector<Tensor> beamform_batch(
      const std::vector<const us::TofCube*>& cubes) const override {
    std::vector<Tensor> normalized;
    normalized.reserve(cubes.size());  // keeps the input pointers valid
    std::vector<const Tensor*> inputs;
    for (const us::TofCube* cube : cubes) {
      TVBF_REQUIRE(cube != nullptr, "beamform_batch got a null cube");
      inputs.push_back(&normalized.emplace_back(normalized_input(*cube)));
    }
    return model_->infer_batch(inputs);
  }
  bool encode_cost_probe(device::CommandEncoder& encoder,
                         std::int64_t nz_total) const override {
    encode_tiny_vbf_probe(model_->config(), nz_total, encoder);
    return true;
  }

 private:
  std::shared_ptr<const Model> model_;
};

using TinyVbfBeamformer = VbfBeamformer<TinyVbf>;

}  // namespace tvbf::models
