#include "inputs.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.hpp"
#include "dsp/hilbert.hpp"
#include "us/phantom.hpp"
#include "us/tof.hpp"

namespace perfbench {

namespace tv = tvbf;

namespace {

// Stream selectors mixed into the seed so phantom, noise and weights draw
// from unrelated streams.
constexpr std::uint64_t kPhantomStream = 0x70686e74ULL;
constexpr std::uint64_t kNoiseStream = 0x6e6f6973ULL;
constexpr std::uint64_t kWeightStream = 0x77676874ULL;

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream, int k) {
  return seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
         static_cast<std::uint64_t>(k);
}

}  // namespace

Scene make_scene(std::uint64_t seed, int num_acquisitions) {
  const tv::us::Probe probe = tv::us::Probe::l11_5v();
  return make_scene(seed, num_acquisitions, probe,
                    tv::us::ImagingGrid::paper(probe));
}

Scene make_scene(std::uint64_t seed, int num_acquisitions,
                 const tv::us::Probe& probe,
                 const tv::us::ImagingGrid& grid) {
  Scene scene{probe, grid, {}};
  const tv::us::Region region{grid.x0, grid.x_end(), grid.z0, grid.z_end()};
  tv::us::SpeckleOptions speckle;
  speckle.density_per_mm2 = 0.5;  // sparse: cheap to simulate; frame cost
                                  // does not depend on the scatterers
  for (int k = 0; k < num_acquisitions; ++k) {
    tv::Rng rng(derive(seed, kPhantomStream, k));
    const double cyst_z = grid.z0 + rng.uniform(0.3, 0.7) *
                                        (grid.z_end() - grid.z0);
    const tv::us::Phantom phantom = tv::us::make_contrast_phantom(
        rng, {cyst_z}, 2.5e-3, region, speckle);
    tv::us::SimParams sim = tv::us::SimParams::in_silico();
    sim.max_depth = grid.z_end() + 3e-3;
    sim.seed = derive(seed, kNoiseStream, k);
    scene.acquisitions.push_back(
        tv::us::simulate_plane_wave(probe, phantom, 0.0, sim));
  }
  return scene;
}

std::shared_ptr<tv::models::TinyVbf> make_weights(
    std::uint64_t seed, const tv::models::TinyVbfConfig& config) {
  tv::Rng rng(derive(seed, kWeightStream, 0));
  return std::make_shared<tv::models::TinyVbf>(config, rng);
}

tv::Tensor one_shot_bmode(const tv::us::Acquisition& acq,
                          const tv::us::ImagingGrid& grid,
                          const tv::bf::Beamformer& beamformer) {
  return tv::dsp::log_compress(
      tv::dsp::envelope_iq(beamformer.beamform(tv::us::tof_correct(acq, grid, {}))),
      60.0);
}

float max_abs_diff(const tv::Tensor& a, const tv::Tensor& b) {
  if (a.shape() != b.shape()) return std::numeric_limits<float>::infinity();
  float worst = 0.0f;
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    const float d = std::fabs(da[i] - db[i]);
    if (!(d <= worst)) worst = d;  // NaN propagates as a failure
  }
  return worst;
}

bool bit_equal(const tv::Tensor& a, const tv::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

}  // namespace perfbench
