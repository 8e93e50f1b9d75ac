#include "us/das_plan.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "device/device.hpp"

namespace tvbf::us {

template <class Encode>
DasPlan DasPlan::bake(const us::Probe& probe, const us::ImagingGrid& grid,
                      const ApodizationParams& apod, Encode encode) {
  probe.validate();
  grid.validate();
  const Apodization apodization(probe, apod);
  const std::int64_t nx = grid.nx;
  const std::int64_t n_ch = probe.num_elements;
  // Two passes over the rows, both parallel: count each pixel's non-zero
  // weights, then (after a prefix sum over the counts) fill the entries in
  // place. Evaluating the weights twice is cheaper than staging ~n_active
  // entries per row and copying them into one table.
  const auto for_each_pixel = [&](auto&& body) {
    parallel_for_each(0, static_cast<std::size_t>(grid.nz),
                      [&](std::size_t zi) {
      const auto iz = static_cast<std::int64_t>(zi);
      const double z = grid.z_at(iz);
      std::vector<float> w;
      for (std::int64_t ix = 0; ix < nx; ++ix) {
        const double x = grid.x_at(ix);
        apodization.weights_into(x, z, w);
        body(iz * nx + ix, x, z, w);
      }
    }, /*min_grain=*/1);
  };

  DasPlan plan;
  plan.apod_ = apod;
  plan.offsets_.assign(static_cast<std::size_t>(grid.num_pixels() + 1), 0);
  for_each_pixel([&](std::int64_t p, double, double,
                     const std::vector<float>& w) {
    plan.offsets_[static_cast<std::size_t>(p + 1)] =
        std::count_if(w.begin(), w.end(), [](float v) { return v != 0.0f; });
  });
  for (std::size_t p = 1; p < plan.offsets_.size(); ++p)
    plan.offsets_[p] += plan.offsets_[p - 1];
  plan.entries_.resize(static_cast<std::size_t>(plan.offsets_.back()));
  for_each_pixel([&](std::int64_t p, double x, double z,
                     const std::vector<float>& w) {
    device::DasEntry* out =
        plan.entries_.data() + plan.offsets_[static_cast<std::size_t>(p)];
    for (std::int64_t e = 0; e < n_ch; ++e) {
      const float weight = w[static_cast<std::size_t>(e)];
      if (weight == 0.0f) continue;
      *out = device::DasEntry{.channel = static_cast<std::int32_t>(e),
                              .weight = weight};
      encode(x, z, e, *out++);
    }
  });
  return plan;
}

DasPlan DasPlan::build(const us::Probe& probe, const us::ImagingGrid& grid,
                       double steering_angle_rad, double t0,
                       std::int64_t n_samples, dsp::Interp interp,
                       const ApodizationParams& apod) {
  TVBF_REQUIRE(n_samples > 1, "DAS plan needs more than one RF sample");
  const double fs = probe.sampling_frequency;
  const detail::PlaneWave wave(probe, steering_angle_rad);
  DasPlan plan = bake(
      probe, grid, apod,
      [&](double x, double z, std::int64_t e, device::DasEntry& entry) {
        detail::encode_entry((wave.delay(x, z, e) - t0) * fs, n_samples,
                             interp, entry.idx, entry.frac);
      });
  plan.key_ = detail::make_key(probe, grid, steering_angle_rad, t0,
                               n_samples, interp);
  return plan;
}

DasPlan DasPlan::build_weights(const us::Probe& probe,
                               const us::ImagingGrid& grid,
                               const ApodizationParams& apod) {
  DasPlan plan = bake(probe, grid, apod,
                      [](double, double, std::int64_t, device::DasEntry&) {});
  plan.key_ = detail::make_key(probe, grid, 0.0, 0.0, 0, dsp::Interp::kLinear);
  return plan;
}

void DasPlan::load(const us::Acquisition& acq, bool analytic,
                   ChannelWorkspace& ws) const {
  TVBF_REQUIRE(key_.n_samples > 1, "a weights-only DAS plan cannot gather");
  key_.require_matches(acq);
  load_channels(acq, analytic, ws);
}

void DasPlan::apply(const ChannelWorkspace& ws, bool analytic,
                    Tensor& out) const {
  TVBF_REQUIRE(key_.n_samples > 1, "a weights-only DAS plan cannot gather");
  const auto lines = static_cast<std::size_t>(key_.num_elements *
                                              key_.n_samples);
  TVBF_REQUIRE(ws.re.size() == lines && (!analytic || ws.im.size() == lines),
               "channel lines do not match the DAS plan");
  submit(device::DasApplyCmd{.input = device::DasApplyCmd::Input::kLines,
                             .nsamples = key_.n_samples,
                             .interp = key_.interp},
         ws.re.data(), analytic ? ws.im.data() : nullptr, out);
}

void DasPlan::apply(const us::TofCube& cube, Tensor& out) const {
  TVBF_REQUIRE(cube.real.rank() == 3, "DAS expects a (nz, nx, nch) cube");
  TVBF_REQUIRE(cube.channels() == key_.num_elements,
               "cube channel count does not match the probe");
  TVBF_REQUIRE(cube.nz() == key_.grid.nz && cube.nx() == key_.grid.nx,
               "cube grid does not match the DAS plan");
  submit(device::DasApplyCmd{.input = device::DasApplyCmd::Input::kCube},
         cube.real.raw(), cube.is_analytic() ? cube.imag.raw() : nullptr,
         out);
}

void DasPlan::submit(device::DasApplyCmd cmd, const float* re,
                     const float* im, Tensor& out) const {
  const us::ImagingGrid& grid = key_.grid;
  const Shape shape = im != nullptr ? Shape{grid.nz, grid.nx, 2}
                                    : Shape{grid.nz, grid.nx};
  if (out.shape() != shape) out = Tensor(shape);
  cmd.offsets = offsets_.data();
  cmd.entries = entries_.data();
  cmd.re = re;
  cmd.im = im;
  cmd.out = out.raw();
  cmd.nz = grid.nz;
  cmd.nx = grid.nx;
  cmd.nch = key_.num_elements;
  cmd.num_entries = num_entries();
  device::current().submit(device::CommandEncoder().encode(cmd).finish());
}

}  // namespace tvbf::us
