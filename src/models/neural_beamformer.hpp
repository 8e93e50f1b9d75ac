// Adapters exposing the learned models through the common Beamformer
// interface, so the metric/benchmark pipeline treats DAS, MVDR and the
// networks identically.
#pragma once

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
/// the adapters and the training-set builder, so a model trains on exactly
/// the input it serves). Max and copy-and-scale are threaded over the pool;
/// an all-zero cube is copied as is.
Tensor normalized_input(const us::TofCube& cube);

/// Converts a beamformed RF image (nz, nx) to IQ (nz, nx, 2) via per-column
/// analytic signal.
Tensor rf_image_to_iq(const Tensor& rf);

/// Tiny-VBF as a Beamformer: normalizes the RF cube to [-1, 1] and runs the
/// network; the network output is already an IQ image. `Model` is TinyVbf,
/// or quant::QuantizedTinyVbf (quant::QuantizedVbfBeamformer); both run
/// the one tape-free forward.
template <class Model>
class VbfBeamformer : public bf::Beamformer {
 public:
  explicit VbfBeamformer(std::shared_ptr<const Model> model)
      : model_(std::move(model)) {
    TVBF_REQUIRE(model_ != nullptr, "Tiny-VBF beamformer needs a model");
  }

  std::string name() const override { return model_->name(); }
  Tensor beamform(const us::TofCube& cube) const override {
    return model_->infer(normalized_input(cube));
  }

 private:
  std::shared_ptr<const Model> model_;
};

using TinyVbfBeamformer = VbfBeamformer<TinyVbf>;

}  // namespace tvbf::models
