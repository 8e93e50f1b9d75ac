#include "kernels/quantize.hpp"

#ifdef __AVX2__
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstring>

namespace tvbf::kernels {

#ifdef __AVX2__

namespace {

/// Four lanes of quantize_value: widen, scale, round, clamp, NaN -> lo,
/// unscale, narrow. Clamping before the NaN blend saturates +-inf.
inline __m128 quantize4(__m128 v, __m256d scale, __m256d step, __m256d lo,
                        __m256d hi) {
  const __m256d d = _mm256_cvtps_pd(v);
  __m256d r = _mm256_round_pd(_mm256_mul_pd(d, scale),
                              _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  r = _mm256_min_pd(_mm256_max_pd(r, lo), hi);
  r = _mm256_blendv_pd(r, lo, _mm256_cmp_pd(d, d, _CMP_UNORD_Q));
  return _mm256_cvtpd_ps(_mm256_mul_pd(r, step));
}

}  // namespace

void quantize_fixed_inplace(float* x, std::int64_t n, int frac_bits, double lo,
                            double hi) {
  const __m256d scale = _mm256_set1_pd(std::ldexp(1.0, frac_bits));
  const __m256d step = _mm256_set1_pd(std::ldexp(1.0, -frac_bits));
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128 a = quantize4(_mm_loadu_ps(x + i), scale, step, vlo, vhi);
    const __m128 b = quantize4(_mm_loadu_ps(x + i + 4), scale, step, vlo, vhi);
    _mm_storeu_ps(x + i, a);
    _mm_storeu_ps(x + i + 4, b);
  }
  for (; i + 4 <= n; i += 4)
    _mm_storeu_ps(x + i,
                  quantize4(_mm_loadu_ps(x + i), scale, step, vlo, vhi));
  if (i < n) {
    // Tail through a zero-padded vector: same lanes, same bits.
    float buf[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    const auto bytes = static_cast<std::size_t>(n - i) * sizeof(float);
    std::memcpy(buf, x + i, bytes);
    _mm_storeu_ps(buf, quantize4(_mm_loadu_ps(buf), scale, step, vlo, vhi));
    std::memcpy(x + i, buf, bytes);
  }
}

#else

void quantize_fixed_inplace(float* x, std::int64_t n, int frac_bits, double lo,
                            double hi) {
  const double scale = std::ldexp(1.0, frac_bits);
  const double step = std::ldexp(1.0, -frac_bits);
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = x[i];
    const double r =
        std::isnan(d) ? lo : std::clamp(std::nearbyint(d * scale), lo, hi);
    x[i] = static_cast<float>(r * step);
  }
}

#endif

}  // namespace tvbf::kernels
