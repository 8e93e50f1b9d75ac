// Coherence-factor weighted DAS (extension beyond the paper's baselines).
//
// CF(p) = |sum_ch y_ch|^2 / (N * sum_ch |y_ch|^2) in [0, 1] measures the
// coherent fraction of the received energy; multiplying the DAS output by
// CF^gamma suppresses off-axis clutter adaptively at negligible cost. Used
// by the ablation bench as a cheap adaptive comparison point between DAS
// and MVDR.
#pragma once

#include "us/apodization.hpp"
#include "beamform/beamformer.hpp"

namespace tvbf::bf {

/// Coherence-factor weighted delay-and-sum.
class CoherenceFactorBeamformer : public Beamformer {
 public:
  /// gamma: CF exponent (1 = classic CF; <1 softer, >1 more aggressive).
  explicit CoherenceFactorBeamformer(const us::Probe& probe,
                                     double gamma = 1.0,
                                     us::ApodizationParams apod = {});

  std::string name() const override { return "CF-DAS"; }

  /// Requires an analytic cube (coherence is a complex-field property).
  Tensor beamform(const us::TofCube& cube) const override;

 private:
  us::Probe probe_;
  double gamma_;
  us::ApodizationParams apod_params_;
};

}  // namespace tvbf::bf
