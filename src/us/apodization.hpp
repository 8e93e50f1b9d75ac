// Receive apodization with dynamic (depth-growing) aperture.
//
// DAS with a fixed data-independent window is exactly the baseline the paper
// criticizes; the f-number controlled expanding aperture is the standard
// PICMUS receive apodization. The weights are pure probe and grid geometry,
// which is why they live in us/: the baked DAS plan (us/das_plan.hpp)
// evaluates them once per plan instead of once per frame.
#pragma once

#include <cstdint>
#include <vector>

#include "dsp/window.hpp"
#include "us/grid.hpp"
#include "us/probe.hpp"

namespace tvbf::us {

/// Apodization configuration. The default (boxcar, f/1.75) is the PICMUS
/// DAS baseline — the data-independent apodization the paper's Section I
/// criticizes; Hann/Hamming/Tukey windows are available for ablations.
struct ApodizationParams {
  dsp::WindowKind window = dsp::WindowKind::kBoxcar;
  /// Receive f-number: aperture half-width at depth z is z / (2 * f_number).
  /// 0 disables dynamic aperture (all elements, full window).
  double f_number = 1.75;

  bool operator==(const ApodizationParams&) const = default;
};

/// Per-pixel receive apodization weights.
class Apodization {
 public:
  Apodization(const Probe& probe, const ApodizationParams& params);

  /// Weights for all channels at pixel (x, z); length == num_elements.
  /// Weights are normalized to sum to 1 (unbiased amplitude estimate).
  std::vector<float> weights(double x, double z) const;

  /// Writes weights into `out` (size num_elements); avoids allocation in
  /// per-pixel loops.
  void weights_into(double x, double z, std::vector<float>& out) const;

 private:
  std::vector<double> element_x_;
  dsp::WindowKind window_;
  double f_number_;
};

}  // namespace tvbf::us
