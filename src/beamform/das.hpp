// Delay-and-Sum beamformer (the paper's classical baseline).
#pragma once

#include <memory>
#include <span>

#include "beamform/beamformer.hpp"
#include "us/apodization.hpp"
#include "us/das_plan.hpp"

namespace tvbf::bf {

/// DAS: per pixel, the apodized sum across channels. On RF input the
/// summed RF image is converted to IQ via a per-column Hilbert transform;
/// on analytic input the complex sum is the IQ image directly.
///
/// Streams run DAS fused (ToF gather, apodization and channel sum in one
/// pass over the channel lines, never materialising a ToF cube) through
/// plan_for() and das_beamform_lines(); beamform(cube) is the reference
/// gather-then-sum path, bit-identical to the fused one.
class DasBeamformer : public Beamformer {
 public:
  DasBeamformer(const us::Probe& probe, us::ApodizationParams apod = {});

  std::string name() const override { return "DAS"; }
  Tensor beamform(const us::TofCube& cube) const override;

  /// The baked DAS plan for `acq` on `grid`: from us::PlanCache when
  /// `cached`, else built for this call. The acquisition's probe must
  /// have this beamformer's element layout.
  std::shared_ptr<const us::DasPlan> plan_for(const us::Acquisition& acq,
                                              const us::ImagingGrid& grid,
                                              dsp::Interp interp,
                                              bool cached = true) const;

 private:
  us::Probe probe_;
  us::ApodizationParams apod_params_;
};

/// Fused DAS of one frame: plan i summed over the channel lines it loaded
/// into lines[i], for every steering angle. Compounded frames (more than
/// one angle) add the per-angle planes in angle order, then scale by 1/n;
/// RF planes then go to IQ by the per-column Hilbert transform once.
Tensor das_beamform_lines(
    std::span<const std::shared_ptr<const us::DasPlan>> plans,
    std::span<const us::ChannelWorkspace> lines, bool analytic);

}  // namespace tvbf::bf
