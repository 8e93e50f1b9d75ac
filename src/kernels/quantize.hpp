// Fixed-point fake-quantisation kernel.
//
// Snaps float values onto a signed fixed-point grid with step 2^-frac_bits:
//   x = clamp(nearbyint(x * 2^frac_bits), lo, hi) * 2^-frac_bits
// computed in double and rounded to float once at the end, which is exactly
// quant::quantize_value (the scalar definition) element by element. The
// scaling is exact because the step is a power of two; rounding is
// nearest-even; non-finite inputs saturate like quantize_value does: +inf
// to hi, -inf and NaN to lo.
//
// Built for AVX2 under TVBF_KERNEL_SIMD (four doubles per vector, never
// rounding in float); otherwise a hoisted scalar loop with the same
// arithmetic takes its place.
#pragma once

#include <cstdint>

namespace tvbf::kernels {

/// Serial in-place fake quantisation of x[0, n). lo and hi bound the integer
/// code (e.g. -2^(bits-1) and 2^(bits-1) - 1). Callers thread it over
/// disjoint ranges.
void quantize_fixed_inplace(float* x, std::int64_t n, int frac_bits, double lo,
                            double hi);

}  // namespace tvbf::kernels
