#include "beamform/coherence_factor.hpp"

#include <cmath>
#include <vector>

#include "common/parallel.hpp"

namespace tvbf::bf {

CoherenceFactorBeamformer::CoherenceFactorBeamformer(const us::Probe& probe,
                                                     double gamma,
                                                     us::ApodizationParams apod)
    : probe_(probe), gamma_(gamma), apod_params_(apod) {
  probe_.validate();
  TVBF_REQUIRE(gamma > 0.0, "coherence-factor exponent must be positive");
}

Tensor CoherenceFactorBeamformer::beamform(const us::TofCube& cube) const {
  TVBF_REQUIRE(cube.is_analytic(),
               "CF-DAS requires an analytic cube (TofParams{.analytic=true})");
  TVBF_REQUIRE(cube.channels() == probe_.num_elements,
               "cube channel count does not match the probe");
  const std::int64_t nz = cube.nz(), nx = cube.nx(), nch = cube.channels();
  const us::Apodization apod(probe_, apod_params_);
  Tensor iq({nz, nx, 2});
  parallel_for_each(0, static_cast<std::size_t>(nz), [&](std::size_t zi) {
    const auto iz = static_cast<std::int64_t>(zi);
    const double z = cube.grid.z_at(iz);
    std::vector<float> w;
    for (std::int64_t ix = 0; ix < nx; ++ix) {
      apod.weights_into(cube.grid.x_at(ix), z, w);
      const float* re = cube.real.raw() + (iz * nx + ix) * nch;
      const float* im = cube.imag.raw() + (iz * nx + ix) * nch;
      double sum_re = 0.0, sum_im = 0.0, inc = 0.0;
      std::int64_t active = 0;
      for (std::int64_t e = 0; e < nch; ++e) {
        const double we = w[static_cast<std::size_t>(e)];
        if (we == 0.0) continue;
        // CF uses the unweighted field for coherence, weighted for output.
        sum_re += we * re[e];
        sum_im += we * im[e];
        inc += static_cast<double>(re[e]) * re[e] +
               static_cast<double>(im[e]) * im[e];
        ++active;
      }
      double cf = 0.0;
      if (inc > 0.0 && active > 0) {
        // Coherent power of the (weight-normalized) sum over incoherent sum.
        double csum_re = 0.0, csum_im = 0.0;
        for (std::int64_t e = 0; e < nch; ++e) {
          if (w[static_cast<std::size_t>(e)] == 0.0f) continue;
          csum_re += re[e];
          csum_im += im[e];
        }
        cf = (csum_re * csum_re + csum_im * csum_im) /
             (static_cast<double>(active) * inc);
        cf = std::pow(std::clamp(cf, 0.0, 1.0), gamma_);
      }
      iq.raw()[(iz * nx + ix) * 2] = static_cast<float>(sum_re * cf);
      iq.raw()[(iz * nx + ix) * 2 + 1] = static_cast<float>(sum_im * cf);
    }
  }, /*min_grain=*/1);
  return iq;
}

}  // namespace tvbf::bf
