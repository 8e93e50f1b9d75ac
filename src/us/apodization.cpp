#include "us/apodization.hpp"

#include <cmath>

#include "common/error.hpp"

namespace tvbf::us {

Apodization::Apodization(const Probe& probe,
                         const ApodizationParams& params)
    : element_x_(probe.element_positions()),
      window_(params.window),
      f_number_(params.f_number) {
  TVBF_REQUIRE(params.f_number >= 0.0, "f-number must be non-negative");
}

void Apodization::weights_into(double x, double z,
                               std::vector<float>& out) const {
  out.assign(element_x_.size(), 0.0f);
  TVBF_REQUIRE(z > 0.0, "apodization needs z > 0");
  double sum = 0.0;
  if (f_number_ <= 0.0) {
    // Static full aperture.
    for (std::size_t e = 0; e < element_x_.size(); ++e) {
      const double u = element_x_.size() > 1
                           ? static_cast<double>(e) /
                                 static_cast<double>(element_x_.size() - 1)
                           : 0.5;
      out[e] = dsp::window_at(window_, u);
      sum += out[e];
    }
  } else {
    const double half_ap = z / (2.0 * f_number_);
    for (std::size_t e = 0; e < element_x_.size(); ++e) {
      const double d = element_x_[e] - x;
      if (std::fabs(d) > half_ap) continue;
      // Map element offset to [0, 1] across the active aperture.
      const double u = (d + half_ap) / (2.0 * half_ap);
      out[e] = dsp::window_at(window_, u);
      sum += out[e];
    }
  }
  if (sum > 0.0) {
    const auto inv = static_cast<float>(1.0 / sum);
    for (auto& w : out) w *= inv;
  }
}

std::vector<float> Apodization::weights(double x, double z) const {
  std::vector<float> out;
  weights_into(x, z, out);
  return out;
}

}  // namespace tvbf::us
