#include "models/dataset.hpp"

#include "dsp/hilbert.hpp"
#include "models/neural_beamformer.hpp"
#include "us/plan_cache.hpp"
#include "tensor/tensor_ops.hpp"
#include "us/tof.hpp"

namespace tvbf::models {

TrainingFrame make_frame(const us::Probe& probe, const us::ImagingGrid& grid,
                         const us::Phantom& phantom,
                         const DatasetParams& params) {
  const us::Acquisition acq = us::simulate_plane_wave(
      probe, phantom, params.steering_angle_rad, params.sim);

  // One cached ToF plan serves both cubes of this frame and — because
  // every frame of a training set shares (probe, grid, angle, RF length) —
  // the whole corpus; only the per-frame sampling work remains.
  const auto plan = us::PlanCache::instance().get_for(acq, grid);

  // Network input: RF-only ToF cube, normalized exactly as at inference.
  const us::TofCube rf_cube = plan->apply(acq, /*analytic=*/false);

  // Label: MVDR on the analytic cube.
  const us::TofCube iq_cube = plan->apply(acq, /*analytic=*/true);
  const bf::MvdrBeamformer mvdr(params.mvdr);
  Tensor target = mvdr.beamform(iq_cube);
  // Normalize the label to unit peak magnitude so the MSE scale is frame
  // independent (the paper normalizes data to [-1, 1]).
  const float m = max_abs(target);
  if (m > 0.0f) {
    const float inv = 1.0f / m;
    for (auto& v : target.data()) v *= inv;
  }

  TrainingFrame frame;
  frame.input = normalized_input(rf_cube);
  const std::int64_t nz = grid.nz, nx = grid.nx;
  frame.target_rf = Tensor({nz, nx});
  for (std::int64_t p = 0; p < nz * nx; ++p)
    frame.target_rf.raw()[p] = target.raw()[2 * p];
  frame.target_iq = std::move(target);
  return frame;
}

std::vector<TrainingFrame> make_training_set(const us::Probe& probe,
                                             const us::ImagingGrid& grid,
                                             std::int64_t count,
                                             const DatasetParams& params) {
  TVBF_REQUIRE(count > 0, "training set needs count > 0");
  std::vector<TrainingFrame> frames;
  frames.reserve(static_cast<std::size_t>(count));
  Rng rng(params.seed);
  us::Region region;
  region.x_min = probe.element_x(0);
  region.x_max = probe.element_x(probe.num_elements - 1);
  region.z_min = grid.z0;
  region.z_max = grid.z_end();
  for (std::int64_t i = 0; i < count; ++i) {
    Rng phantom_rng = rng.split();
    const us::Phantom ph = us::make_random_training_phantom(phantom_rng, region);
    DatasetParams p = params;
    if (params.alternate_in_vitro && (i % 2 == 1)) {
      const double depth = p.sim.max_depth;
      p.sim = us::SimParams::in_vitro();
      p.sim.max_depth = depth;
    }
    p.sim.seed = rng.next_u64();
    frames.push_back(make_frame(probe, grid, ph, p));
  }
  return frames;
}

}  // namespace tvbf::models
