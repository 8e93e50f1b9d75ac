#include "us/tof_plan.hpp"

#include <bit>
#include <cmath>
#include <cstddef>
#include <span>

#include "common/parallel.hpp"
#include "device/device.hpp"
#include "dsp/hilbert.hpp"

namespace tvbf::us {

namespace {

using detail::kTofLinearBias;
using detail::kTofOutOfRange;

// The plan tables are consumed by device::TofGatherCmd; the encoding here
// and the gather in the device backends share one sentinel contract.
static_assert(kTofOutOfRange == device::TofGatherCmd::kOutOfRange);
static_assert(kTofLinearBias == device::TofGatherCmd::kLinearBias);

std::size_t hash_combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

std::size_t hash_double(double v) {
  // Normalize -0.0 so equal keys hash equally.
  if (v == 0.0) v = 0.0;
  return std::hash<std::uint64_t>{}(std::bit_cast<std::uint64_t>(v));
}

}  // namespace

namespace detail {

// Mirrors the boundary conventions of dsp::interp_linear / dsp::interp_cubic
// exactly: outside [0, n-1] the sample is zero; cubic falls back to linear
// near the edges; t landing on the last sample reads it via frac == 1 so
// the gather never touches x[n] (n >= 2 is guaranteed by build()).
void encode_entry(double t, std::int64_t n, dsp::Interp interp,
                  std::int32_t& idx, float& frac) {
  if (!(t >= 0.0) || t > static_cast<double>(n - 1)) {
    idx = kTofOutOfRange;
    frac = 0.0f;
    return;
  }
  const auto i0 = static_cast<std::int64_t>(t);
  const bool last = i0 + 1 >= n;
  const std::int64_t base = last ? n - 2 : i0;
  const float f = last ? 1.0f
                       : static_cast<float>(t - static_cast<double>(i0));
  if (interp == dsp::Interp::kCubic && !last && i0 != 0 && i0 + 2 < n) {
    idx = static_cast<std::int32_t>(i0);  // interior Catmull-Rom
    frac = f;
    return;
  }
  // Linear entry: in linear plans this is the only non-zero kind (idx >= 0
  // means linear there); cubic plans mark edge fallbacks with the bias.
  idx = interp == dsp::Interp::kCubic
            ? kTofLinearBias - static_cast<std::int32_t>(base)
            : static_cast<std::int32_t>(base);
  frac = f;
}

PlaneWave::PlaneWave(const us::Probe& probe, double steering_angle_rad)
    : xs(probe.element_positions()),
      sin_th(std::sin(steering_angle_rad)),
      cos_th(std::cos(steering_angle_rad)),
      tx_offset(sin_th >= 0.0 ? xs.front() * sin_th : xs.back() * sin_th),
      sound_speed(probe.sound_speed) {}

TofPlanKey make_key(const us::Probe& probe, const us::ImagingGrid& grid,
                    double steering_angle_rad, double t0,
                    std::int64_t n_samples, dsp::Interp interp) {
  TofPlanKey key;
  key.num_elements = probe.num_elements;
  key.pitch = probe.pitch;
  key.sampling_frequency = probe.sampling_frequency;
  key.sound_speed = probe.sound_speed;
  key.steering_angle_rad = steering_angle_rad;
  key.t0 = t0;
  key.n_samples = n_samples;
  key.grid = grid;
  key.interp = interp;
  return key;
}

}  // namespace detail

bool TofPlanKey::operator==(const TofPlanKey& o) const {
  return num_elements == o.num_elements && pitch == o.pitch &&
         sampling_frequency == o.sampling_frequency &&
         sound_speed == o.sound_speed &&
         steering_angle_rad == o.steering_angle_rad && t0 == o.t0 &&
         n_samples == o.n_samples && interp == o.interp &&
         grid.x0 == o.grid.x0 && grid.z0 == o.grid.z0 &&
         grid.dx == o.grid.dx && grid.dz == o.grid.dz &&
         grid.nx == o.grid.nx && grid.nz == o.grid.nz;
}

std::size_t hash_key(const TofPlanKey& key) {
  std::size_t h = std::hash<std::int64_t>{}(key.num_elements);
  h = hash_combine(h, hash_double(key.pitch));
  h = hash_combine(h, hash_double(key.sampling_frequency));
  h = hash_combine(h, hash_double(key.sound_speed));
  h = hash_combine(h, hash_double(key.steering_angle_rad));
  h = hash_combine(h, hash_double(key.t0));
  h = hash_combine(h, std::hash<std::int64_t>{}(key.n_samples));
  h = hash_combine(h, hash_double(key.grid.x0));
  h = hash_combine(h, hash_double(key.grid.z0));
  h = hash_combine(h, hash_double(key.grid.dx));
  h = hash_combine(h, hash_double(key.grid.dz));
  h = hash_combine(h, std::hash<std::int64_t>{}(key.grid.nx));
  h = hash_combine(h, std::hash<std::int64_t>{}(key.grid.nz));
  return hash_combine(h, static_cast<std::size_t>(key.interp));
}

void TofPlanKey::require_matches(const us::Acquisition& acq) const {
  TVBF_REQUIRE(acq.rf.rank() == 2, "acquisition holds no RF data");
  TVBF_REQUIRE(acq.num_samples() == n_samples &&
                   acq.num_channels() == num_elements,
               "acquisition shape does not match the plan");
  TVBF_REQUIRE(acq.probe.num_elements == num_elements &&
                   acq.probe.pitch == pitch &&
                   acq.probe.sampling_frequency == sampling_frequency &&
                   acq.probe.sound_speed == sound_speed,
               "acquisition probe does not match the plan");
  TVBF_REQUIRE(acq.steering_angle_rad == steering_angle_rad && acq.t0 == t0,
               "acquisition steering/t0 does not match the plan");
}

void load_channels(const us::Acquisition& acq, bool analytic,
                   ChannelWorkspace& ws) {
  TVBF_REQUIRE(acq.rf.rank() == 2, "acquisition holds no RF data");
  const std::int64_t n = acq.num_samples();
  const std::int64_t n_ch = acq.num_channels();
  ws.re.resize(static_cast<std::size_t>(n_ch * n));
  if (analytic) ws.im.resize(static_cast<std::size_t>(n_ch * n));

  // Re-layout channel data as (nch, nsamples) so the gather reads each
  // channel contiguously; optionally build the analytic signal per channel.
  parallel_for_each(0, static_cast<std::size_t>(n_ch), [&](std::size_t e) {
    float* re = ws.re.data() + e * static_cast<std::size_t>(n);
    for (std::int64_t i = 0; i < n; ++i)
      re[i] = acq.rf.raw()[i * n_ch + static_cast<std::int64_t>(e)];
    if (analytic) {
      float* im = ws.im.data() + e * static_cast<std::size_t>(n);
      const auto a = dsp::analytic_signal(
          std::span<const float>(re, static_cast<std::size_t>(n)));
      for (std::int64_t i = 0; i < n; ++i) {
        re[i] = static_cast<float>(a[static_cast<std::size_t>(i)].real());
        im[i] = static_cast<float>(a[static_cast<std::size_t>(i)].imag());
      }
    }
  }, /*min_grain=*/1);
}

TofPlan TofPlan::build(const us::Probe& probe, const us::ImagingGrid& grid,
                       double steering_angle_rad, double t0,
                       std::int64_t n_samples, dsp::Interp interp) {
  probe.validate();
  grid.validate();
  TVBF_REQUIRE(n_samples > 1, "ToF plan needs more than one RF sample");

  TofPlan plan;
  plan.key_ = detail::make_key(probe, grid, steering_angle_rad, t0,
                               n_samples, interp);
  const std::int64_t n_ch = probe.num_elements;
  const double fs = probe.sampling_frequency;
  const detail::PlaneWave wave(probe, steering_angle_rad);

  plan.idx_.resize(static_cast<std::size_t>(grid.num_pixels() * n_ch));
  plan.frac_.resize(plan.idx_.size());

  parallel_for_each(0, static_cast<std::size_t>(grid.nz), [&](std::size_t zi) {
    const auto iz = static_cast<std::int64_t>(zi);
    const double z = grid.z_at(iz);
    for (std::int64_t ix = 0; ix < grid.nx; ++ix) {
      const double x = grid.x_at(ix);
      const std::size_t row =
          static_cast<std::size_t>((iz * grid.nx + ix) * n_ch);
      for (std::int64_t e = 0; e < n_ch; ++e) {
        detail::encode_entry((wave.delay(x, z, e) - t0) * fs, n_samples,
                             interp,
                             plan.idx_[row + static_cast<std::size_t>(e)],
                             plan.frac_[row + static_cast<std::size_t>(e)]);
      }
    }
  }, /*min_grain=*/1);
  return plan;
}

TofPlan TofPlan::build_for(const us::Acquisition& acq,
                           const us::ImagingGrid& grid, dsp::Interp interp) {
  TVBF_REQUIRE(acq.rf.rank() == 2 && acq.num_samples() > 1,
               "acquisition holds no RF data");
  TVBF_REQUIRE(acq.num_channels() == acq.probe.num_elements,
               "RF channel count does not match the probe");
  return build(acq.probe, grid, acq.steering_angle_rad, acq.t0,
               acq.num_samples(), interp);
}

void TofPlan::apply(const us::Acquisition& acq, bool analytic,
                    us::TofCube& out, ChannelWorkspace* workspace) const {
  key_.require_matches(acq);
  const std::int64_t n = key_.n_samples;
  const std::int64_t n_ch = key_.num_elements;
  const us::ImagingGrid& grid = key_.grid;

  ChannelWorkspace local;
  ChannelWorkspace& ws = workspace != nullptr ? *workspace : local;
  load_channels(acq, analytic, ws);

  out.grid = grid;
  const Shape cube_shape{grid.nz, grid.nx, n_ch};
  if (out.real.shape() != cube_shape) out.real = Tensor(cube_shape);
  if (analytic) {
    if (out.imag.shape() != cube_shape) out.imag = Tensor(cube_shape);
  } else if (!out.imag.empty()) {
    out.imag = Tensor();
  }

  device::current().submit(
      device::CommandEncoder()
          .encode(device::TofGatherCmd{
              .idx = idx_.data(),
              .frac = frac_.data(),
              .lines_re = ws.re.data(),
              .lines_im = analytic ? ws.im.data() : nullptr,
              .out_re = out.real.raw(),
              .out_im = analytic ? out.imag.raw() : nullptr,
              .nz = grid.nz,
              .nx = grid.nx,
              .nch = n_ch,
              .nsamples = n,
              .interp = key_.interp})
          .finish());
}

us::TofCube TofPlan::apply(const us::Acquisition& acq, bool analytic) const {
  us::TofCube cube;
  apply(acq, analytic, cube);
  return cube;
}

}  // namespace tvbf::us
