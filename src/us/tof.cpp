#include "us/tof.hpp"

#include <algorithm>
#include <cmath>

#include "us/tof_plan.hpp"

namespace tvbf::us {

std::int64_t ImagingGrid::column_of(double x) const {
  const auto ix = static_cast<std::int64_t>(std::llround((x - x0) / dx));
  return std::clamp<std::int64_t>(ix, 0, nx - 1);
}

std::int64_t ImagingGrid::row_of(double z) const {
  const auto iz = static_cast<std::int64_t>(std::llround((z - z0) / dz));
  return std::clamp<std::int64_t>(iz, 0, nz - 1);
}

void ImagingGrid::validate() const {
  TVBF_REQUIRE(nx >= 1 && nz >= 1, "grid must have at least one pixel");
  TVBF_REQUIRE(dx > 0.0 && dz > 0.0, "grid spacings must be positive");
  TVBF_REQUIRE(z0 > 0.0, "grid must start below the array (z0 > 0)");
}

ImagingGrid ImagingGrid::paper(const Probe& probe) {
  ImagingGrid g;
  g.nx = 128;
  g.nz = 368;
  g.x0 = probe.element_x(0);
  g.dx = probe.aperture() / static_cast<double>(g.nx - 1);
  g.z0 = 5e-3;
  g.dz = (42e-3 - 5e-3) / static_cast<double>(g.nz - 1);
  return g;
}

ImagingGrid ImagingGrid::reduced(const Probe& probe, std::int64_t nz,
                                 std::int64_t nx, double z_min, double z_max) {
  TVBF_REQUIRE(nz >= 2 && nx >= 2, "reduced grid needs nz, nx >= 2");
  TVBF_REQUIRE(z_max > z_min && z_min > 0.0, "invalid depth range");
  ImagingGrid g;
  g.nx = nx;
  g.nz = nz;
  g.x0 = probe.element_x(0);
  g.dx = probe.aperture() / static_cast<double>(nx - 1);
  g.z0 = z_min;
  g.dz = (z_max - z_min) / static_cast<double>(nz - 1);
  return g;
}

double two_way_delay(double x, double z, double xe, double sin_theta,
                     double cos_theta, double tx_offset, double sound_speed) {
  const double t_tx = (z * cos_theta + x * sin_theta - tx_offset) / sound_speed;
  const double dx = x - xe;
  const double t_rx = std::sqrt(dx * dx + z * z) / sound_speed;
  return t_tx + t_rx;
}

TofCube tof_correct(const Acquisition& acq, const ImagingGrid& grid,
                    const TofParams& params) {
  grid.validate();
  // One-shot path: build the geometric plan and apply it to this frame.
  // Streaming callers (runtime pipeline, compounding, dataset generation)
  // fetch the same plan from us::PlanCache instead and amortize the build
  // across frames; results are identical either way.
  const us::TofPlan plan = us::TofPlan::build_for(acq, grid, params.interp);
  return plan.apply(acq, params.analytic);
}

}  // namespace tvbf::us
