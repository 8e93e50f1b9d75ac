// Common beamformer interface.
//
// Every image-formation method in the paper (DAS, MVDR, and the learned
// models via an adapter in src/models) maps a ToF-corrected cube to an
// IQ image of shape (nz, nx, 2). Envelope/log-compression happens downstream
// in src/metrics, identically for all methods, so comparisons are fair.
#pragma once

#include <string>

#include "tensor/tensor.hpp"
#include "us/tof.hpp"

namespace tvbf::bf {

/// Abstract image-formation method over ToF-corrected channel data.
class Beamformer {
 public:
  virtual ~Beamformer() = default;

  /// Human-readable method name ("DAS", "MVDR", ...).
  virtual std::string name() const = 0;

  /// Forms the IQ image, shape (nz, nx, 2). Implementations document which
  /// cube flavor (RF-only or analytic) they require.
  virtual Tensor beamform(const us::TofCube& cube) const = 0;
};

}  // namespace tvbf::bf
