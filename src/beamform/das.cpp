#include "beamform/das.hpp"

#include "dsp/hilbert.hpp"
#include "tensor/tensor_ops.hpp"
#include "us/plan_cache.hpp"

namespace tvbf::bf {

DasBeamformer::DasBeamformer(const us::Probe& probe,
                             us::ApodizationParams apod)
    : probe_(probe), apod_params_(apod) {
  probe_.validate();
}

Tensor DasBeamformer::beamform(const us::TofCube& cube) const {
  TVBF_REQUIRE(cube.real.rank() == 3, "DAS expects a (nz, nx, nch) cube");
  TVBF_REQUIRE(cube.channels() == probe_.num_elements,
               "cube channel count does not match the probe");
  // The cube's geometry is unknown here, so the table holds weights only.
  const us::DasPlan plan =
      us::DasPlan::build_weights(probe_, cube.grid, apod_params_);
  Tensor out;
  plan.apply(cube, out);
  // Beamformed RF -> analytic signal per image column (paper: "processed
  // with the Hilbert Transform to obtain the final B-mode image").
  return cube.is_analytic() ? out : dsp::analytic_columns(out);
}

std::shared_ptr<const us::DasPlan> DasBeamformer::plan_for(
    const us::Acquisition& acq, const us::ImagingGrid& grid,
    dsp::Interp interp, bool cached) const {
  // The plan's weights come from the acquisition's probe; the reference
  // path weighs with this beamformer's. Same layout, same weights.
  TVBF_REQUIRE(acq.probe.num_elements == probe_.num_elements &&
                   acq.probe.pitch == probe_.pitch,
               "acquisition probe does not match the DAS beamformer");
  if (cached)
    return us::PlanCache::instance().get_das_for(acq, grid, interp,
                                                 apod_params_);
  TVBF_REQUIRE(acq.rf.rank() == 2 && acq.num_samples() > 1,
               "acquisition holds no RF data");
  return std::make_shared<const us::DasPlan>(us::DasPlan::build(
      acq.probe, grid, acq.steering_angle_rad, acq.t0, acq.num_samples(),
      interp, apod_params_));
}

Tensor das_beamform_lines(
    std::span<const std::shared_ptr<const us::DasPlan>> plans,
    std::span<const us::ChannelWorkspace> lines, bool analytic) {
  TVBF_REQUIRE(!plans.empty() && plans.size() == lines.size(),
               "fused DAS needs one plan per loaded acquisition");
  Tensor sum, plane;
  plans[0]->apply(lines[0], analytic, sum);
  for (std::size_t i = 1; i < plans.size(); ++i) {
    plans[i]->apply(lines[i], analytic, plane);
    add_inplace(sum, plane);
  }
  if (plans.size() > 1)
    sum = scale(sum, 1.0f / static_cast<float>(plans.size()));
  return analytic ? sum : dsp::analytic_columns(sum);
}

}  // namespace tvbf::bf
