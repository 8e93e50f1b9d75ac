// Coherent plane-wave compounding (CPWC, Montaldo et al.) — the multi-angle
// quality/frame-rate trade-off the paper's introduction motivates, and the
// acquisition mode of its CUBDL fine-tuning data.
//
// Each steered plane wave is ToF-corrected and beamformed on the common
// grid; the complex images are averaged coherently. Quality approaches
// focused imaging as the angle count grows, at 1/n_angles the frame rate —
// exactly the trade-off single-angle Tiny-VBF is designed to escape.
#pragma once

#include <cmath>
#include <functional>
#include <vector>

#include "beamform/das.hpp"
#include "us/tof.hpp"

namespace tvbf::bf {

/// CPWC configuration.
struct CompoundingParams {
  std::int64_t num_angles = 11;       ///< steered transmits per frame
  double max_angle_rad = 16.0 * M_PI / 180.0;  ///< +/- span of steering
  us::ApodizationParams apodization;
  us::TofParams tof;

  /// Evenly spaced steering angles in [-max_angle, +max_angle].
  std::vector<double> angles() const;

  void validate() const;
};

/// Simulates `params.num_angles` steered transmits of `phantom` and returns
/// the coherently compounded DAS IQ image. The single-angle (num_angles=1)
/// case reduces to plain DAS at 0 degrees.
Tensor compound_plane_waves(
    const us::Probe& probe, const us::Phantom& phantom,
    const us::ImagingGrid& grid, const us::SimParams& sim,
    const CompoundingParams& params);

/// Compounds pre-acquired steered acquisitions (for callers that manage
/// their own acquisition loop) with fused DAS: the per-angle beamformed
/// planes are summed in angle order, then scaled. All acquisitions must
/// share the probe.
Tensor compound_acquisitions(const std::vector<us::Acquisition>& acqs,
                             const us::ImagingGrid& grid,
                             const CompoundingParams& params);

/// Coherently compounds per-angle ToF cubes into `out`: the elementwise
/// mean over the cubes, summed in list order (deterministic regardless of
/// thread count). All cubes must share shape and analytic flavor. The
/// streaming frame graph uses this to fold N parallel ToF nodes into the
/// single cube a cube-consuming beamformer (MVDR, the learned models)
/// reads: the compound-then-beamform architecture. DAS frames compound
/// their beamformed planes instead (compound_acquisitions).
void compound_cubes(const std::vector<const us::TofCube*>& cubes,
                    us::TofCube& out);

}  // namespace tvbf::bf
