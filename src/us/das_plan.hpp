// Baked DAS plans: ToF correction, receive apodization and the channel sum
// fused into one sparse table.
//
// Delay-and-sum is a fixed linear map from channel data to an image: per
// pixel, a weighted sum of each channel sampled at its two-way delay. Both
// the delays (us::TofPlan) and the apodization weights (us::Apodization)
// are pure geometry, so a DasPlan bakes them together once: per pixel it
// keeps only the channels whose weight is non-zero — on the paper grid at
// f/1.75 about a third of the (pixel, channel) pairs — each as one
// (channel, idx, frac, weight) entry. A frame is then one
// device::DasApplyCmd that gathers, weights and sums in a single pass over
// the channel lines, and no ToF cube is ever materialised. Skipping the
// zero-weight terms is exact for finite RF: each would add a +-0 to an
// accumulator that starts at +0.0 (which can never become -0.0), so the
// result is bit-identical to gathering the full cube and summing it.
// Entries whose sample falls outside the RF window stay in the table; they
// gather to 0 exactly as in the cube.
#pragma once

#include <cstdint>
#include <vector>

#include "device/command.hpp"
#include "tensor/tensor.hpp"
#include "us/apodization.hpp"
#include "us/tof_plan.hpp"

namespace tvbf::us {

class DasPlan {
 public:
  /// Bakes the fused plan for one (probe, grid, angle, t0, RF length,
  /// interp, apodization) tuple, built in parallel over grid rows.
  static DasPlan build(const us::Probe& probe, const us::ImagingGrid& grid,
                       double steering_angle_rad, double t0,
                       std::int64_t n_samples, dsp::Interp interp,
                       const ApodizationParams& apod);

  /// An apodization-only plan for summing ToF cubes of unknown geometry:
  /// every channel with a non-zero weight, no ToF entries. Only the cube
  /// form of apply() accepts it.
  static DasPlan build_weights(const us::Probe& probe,
                               const us::ImagingGrid& grid,
                               const ApodizationParams& apod);

  /// Checks `acq` against the plan key, then loads its channel lines (and
  /// the analytic signal when `analytic`) into `ws` for apply().
  void load(const us::Acquisition& acq, bool analytic,
            ChannelWorkspace& ws) const;

  /// Fused gather-weight-sum over lines loaded by load(): `out` becomes
  /// the (nz, nx) beamformed RF plane, or the interleaved (nz, nx, 2) IQ
  /// image when `analytic` (reused when already that shape).
  void apply(const ChannelWorkspace& ws, bool analytic, Tensor& out) const;

  /// The same weighted sum over a (nz, nx, nch) ToF cube on this plan's
  /// grid. Exact for a cube gathered with this plan's geometry, and for
  /// any cube when the plan came from build_weights().
  void apply(const us::TofCube& cube, Tensor& out) const;

  const ApodizationParams& apodization() const { return apod_; }
  std::int64_t num_entries() const {
    return static_cast<std::int64_t>(entries_.size());
  }

  /// Table footprint in bytes (what the plan cache budget counts).
  std::size_t bytes() const {
    return offsets_.capacity() * sizeof(std::int64_t) +
           entries_.capacity() * sizeof(device::DasEntry);
  }

 private:
  DasPlan() = default;

  template <class Encode>
  static DasPlan bake(const us::Probe& probe, const us::ImagingGrid& grid,
                      const ApodizationParams& apod, Encode encode);
  void submit(device::DasApplyCmd cmd, const float* re, const float* im,
              Tensor& out) const;

  TofPlanKey key_;  ///< n_samples is 0 for build_weights() plans
  ApodizationParams apod_;
  // Pixel p's entries are entries_[offsets_[p], offsets_[p + 1]), pixel-
  // major over (nz, nx), channels ascending within a pixel.
  std::vector<std::int64_t> offsets_;
  std::vector<device::DasEntry> entries_;
};

}  // namespace tvbf::us
