// Cached time-of-flight plans: the geometric half of ToF correction,
// precomputed once and replayed against any number of RF frames.
//
// us::tof_correct does two separable things per frame: (1) evaluate the
// purely geometric per-pixel/per-channel two-way delay and turn it into a
// fractional sample index, and (2) sample each channel there. In a streaming
// scanner (1) depends only on (probe, grid, steering angle, t0, sample
// count, interpolation flavor) — never on the RF — so a TofPlan bakes it
// into a flat table of sample indices + interpolation fractions that
// apply() gathers through. One plan serves every frame of a cine sequence,
// every frame of a training corpus, and (per angle) every compounded frame.
#pragma once

#include <cstdint>
#include <vector>

#include "dsp/interpolate.hpp"
#include "us/simulator.hpp"
#include "us/tof.hpp"

namespace tvbf::us {


/// Everything a plan's table depends on. Two acquisitions with equal keys
/// can share one plan; the cache hashes and compares this struct directly.
struct TofPlanKey {
  std::int64_t num_elements = 0;
  double pitch = 0.0;
  double sampling_frequency = 0.0;
  double sound_speed = 0.0;
  double steering_angle_rad = 0.0;
  double t0 = 0.0;
  std::int64_t n_samples = 0;
  us::ImagingGrid grid;
  dsp::Interp interp = dsp::Interp::kLinear;

  bool operator==(const TofPlanKey& o) const;

  /// Throws InvalidArgument unless `acq` has the probe geometry, steering
  /// angle, t0 and RF shape this key was built for.
  void require_matches(const us::Acquisition& acq) const;
};

/// Hash for unordered containers keyed on TofPlanKey.
std::size_t hash_key(const TofPlanKey& key);

/// Reusable per-frame scratch for TofPlan::apply (channel re-layout and,
/// for analytic cubes, the per-channel analytic signal). Passing the same
/// workspace across frames avoids reallocating ~n_ch * n_samples floats
/// per frame.
struct ChannelWorkspace {
  std::vector<float> re;  ///< (n_ch, n_samples) row-major channel data
  std::vector<float> im;  ///< same layout; filled only for analytic frames
};

/// Re-lays out `acq`'s RF as (n_ch, n_samples) channel lines in `ws.re`
/// and, when `analytic`, the per-channel analytic signal (real part in
/// `ws.re`, imaginary in `ws.im`): the per-frame input of every plan.
void load_channels(const us::Acquisition& acq, bool analytic,
                   ChannelWorkspace& ws);

namespace detail {
/// Plan-entry sentinels shared by the encode (build) and gather (apply)
/// sides — see the idx_ encoding comment on TofPlan.
inline constexpr std::int32_t kTofOutOfRange = -1;
inline constexpr std::int32_t kTofLinearBias = -2;

/// The plan key for explicit geometry.
TofPlanKey make_key(const us::Probe& probe, const us::ImagingGrid& grid,
                    double steering_angle_rad, double t0,
                    std::int64_t n_samples, dsp::Interp interp);

/// The per-plan constants of us::two_way_delay for one steered transmit.
struct PlaneWave {
  PlaneWave(const us::Probe& probe, double steering_angle_rad);
  /// Two-way delay [s] from the transmit to pixel (x, z) and back to
  /// element e.
  double delay(double x, double z, std::int64_t e) const {
    return us::two_way_delay(x, z, xs[static_cast<std::size_t>(e)], sin_th,
                             cos_th, tx_offset, sound_speed);
  }

  std::vector<double> xs;
  double sin_th, cos_th, tx_offset, sound_speed;
};

/// Encodes the fractional sample position `t` (of `n` samples) into one
/// plan entry, following the idx_ encoding documented on TofPlan.
void encode_entry(double t, std::int64_t n, dsp::Interp interp,
                  std::int32_t& idx, float& frac);
}  // namespace detail

/// Precomputed ToF gather table for one (probe, grid, angle, interp) tuple.
class TofPlan {
 public:
  /// Builds the plan from explicit geometry. `n_samples` is the RF length
  /// the plan will be applied to (boundary handling depends on it).
  static TofPlan build(const us::Probe& probe, const us::ImagingGrid& grid,
                       double steering_angle_rad, double t0,
                       std::int64_t n_samples,
                       dsp::Interp interp = dsp::Interp::kLinear);

  /// Convenience: derives the geometry from an acquisition.
  static TofPlan build_for(const us::Acquisition& acq,
                           const us::ImagingGrid& grid,
                           dsp::Interp interp = dsp::Interp::kLinear);

  /// Applies the plan to one frame, writing into `out` (buffers are reused
  /// when already correctly shaped — no allocation in the steady state).
  /// The acquisition must match the plan key (probe geometry, angle, t0,
  /// sample count); mismatches throw InvalidArgument. Results are
  /// numerically identical to us::tof_correct with the same parameters.
  void apply(const us::Acquisition& acq, bool analytic, us::TofCube& out,
             ChannelWorkspace* workspace = nullptr) const;

  /// Applies into a freshly allocated cube.
  us::TofCube apply(const us::Acquisition& acq, bool analytic) const;

  const TofPlanKey& key() const { return key_; }

  /// Table footprint in bytes (what the cache budget counts).
  std::size_t bytes() const {
    return idx_.capacity() * sizeof(std::int32_t) +
           frac_.capacity() * sizeof(float);
  }

 private:
  TofPlan() = default;

  TofPlanKey key_;
  // One entry per (pixel, channel), laid out (nz, nx, nch) to match the
  // cube. idx_ encodes both the base sample and the interpolation mode:
  //   idx == detail::kTofOutOfRange -> sample is 0 (outside the RF window)
  //   idx >= 0                      -> plan-kind interpolation at base idx
  //   idx <= detail::kTofLinearBias -> linear fallback at base
  //                                    (kTofLinearBias - idx); used by
  //                                    cubic plans near the edges
  // frac_ holds the fractional offset in [0, 1].
  std::vector<std::int32_t> idx_;
  std::vector<float> frac_;
};

}  // namespace tvbf::us
