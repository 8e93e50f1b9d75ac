#include "beamform/compounding.hpp"

#include <cmath>

#include "common/parallel.hpp"
#include "us/simulator.hpp"

namespace tvbf::bf {

std::vector<double> CompoundingParams::angles() const {
  validate();
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(num_angles));
  if (num_angles == 1) {
    out.push_back(0.0);
    return out;
  }
  for (std::int64_t i = 0; i < num_angles; ++i)
    out.push_back(-max_angle_rad +
                  2.0 * max_angle_rad * static_cast<double>(i) /
                      static_cast<double>(num_angles - 1));
  return out;
}

void CompoundingParams::validate() const {
  TVBF_REQUIRE(num_angles >= 1, "compounding needs >= 1 angle");
  TVBF_REQUIRE(max_angle_rad >= 0.0 && max_angle_rad < M_PI / 3.0,
               "steering span must be in [0, 60) degrees");
}

Tensor compound_acquisitions(const std::vector<us::Acquisition>& acqs,
                             const us::ImagingGrid& grid,
                             const CompoundingParams& params) {
  params.validate();
  TVBF_REQUIRE(!acqs.empty(), "no acquisitions to compound");
  // Fused DAS per angle: each steering angle's baked plan comes from the
  // global cache (built at most once per process), and the Hilbert
  // transform of RF frames runs once on the compounded plane.
  std::vector<std::shared_ptr<const us::DasPlan>> plans;
  std::vector<us::ChannelWorkspace> lines(acqs.size());
  plans.reserve(acqs.size());
  for (std::size_t i = 0; i < acqs.size(); ++i) {
    const us::Acquisition& acq = acqs[i];
    TVBF_REQUIRE(acq.probe.num_elements == acqs.front().probe.num_elements,
                 "acquisitions use different probes");
    const DasBeamformer das(acq.probe, params.apodization);
    plans.push_back(das.plan_for(acq, grid, params.tof.interp));
    plans.back()->load(acq, params.tof.analytic, lines[i]);
  }
  return das_beamform_lines(plans, lines, params.tof.analytic);
}

void compound_cubes(const std::vector<const us::TofCube*>& cubes,
                    us::TofCube& out) {
  TVBF_REQUIRE(!cubes.empty(), "no cubes to compound");
  const us::TofCube& first = *cubes.front();
  const bool analytic = first.is_analytic();
  for (const us::TofCube* c : cubes) {
    TVBF_REQUIRE(c != nullptr, "null cube in compound list");
    TVBF_REQUIRE(same_shape(c->real.shape(), first.real.shape()) &&
                     c->is_analytic() == analytic,
                 "compounded cubes must share shape and analytic flavor");
  }
  if (!same_shape(out.real.shape(), first.real.shape()))
    out.real = Tensor(first.real.shape());
  if (analytic) {
    if (!same_shape(out.imag.shape(), first.imag.shape()))
      out.imag = Tensor(first.imag.shape());
  } else {
    out.imag = Tensor();
  }
  out.grid = first.grid;

  const float inv = 1.0f / static_cast<float>(cubes.size());
  const std::size_t n = static_cast<std::size_t>(first.real.size());
  auto fold = [&](float* dst, auto plane) {
    parallel_for(0, n, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        // Sum in angle order so the result is independent of chunking.
        float acc = 0.0f;
        for (const us::TofCube* c : cubes) acc += plane(*c)[i];
        dst[i] = acc * inv;
      }
    });
  };
  fold(out.real.raw(), [](const us::TofCube& c) { return c.real.raw(); });
  if (analytic)
    fold(out.imag.raw(), [](const us::TofCube& c) { return c.imag.raw(); });
}

Tensor compound_plane_waves(const us::Probe& probe, const us::Phantom& phantom,
                            const us::ImagingGrid& grid,
                            const us::SimParams& sim,
                            const CompoundingParams& params) {
  std::vector<us::Acquisition> acqs;
  const auto angle_list = params.angles();
  acqs.reserve(angle_list.size());
  us::SimParams per_angle = sim;
  for (double a : angle_list) {
    // Decorrelate the noise across transmits (independent receive events).
    per_angle.seed = sim.seed + static_cast<std::uint64_t>(
                                    std::llround(a * 1e6)) * 7919u;
    acqs.push_back(us::simulate_plane_wave(probe, phantom, a, per_angle));
  }
  return compound_acquisitions(acqs, grid, params);
}

}  // namespace tvbf::bf
