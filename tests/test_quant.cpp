// Tests for fixed-point quantization: formats, fake-quant vs integer
// arithmetic equivalence, schemes, and the quantized Tiny-VBF kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "kernels/gemm.hpp"
#include "quant/fixed_point.hpp"
#include "quant/quantized_tiny_vbf.hpp"
#include "quant/scheme.hpp"
#include "tensor/tensor_ops.hpp"

namespace tvbf::quant {
namespace {

TEST(FixedFormat, RangesAndStep) {
  FixedFormat f{16, 11};
  EXPECT_DOUBLE_EQ(f.step(), 1.0 / 2048.0);
  EXPECT_DOUBLE_EQ(f.max_value(), (32768.0 - 1.0) / 2048.0);
  EXPECT_DOUBLE_EQ(f.min_value(), -16.0);
  EXPECT_NO_THROW(f.validate());
  EXPECT_THROW((FixedFormat{1, 0}).validate(), InvalidArgument);
  EXPECT_THROW((FixedFormat{16, 16}).validate(), InvalidArgument);
}

TEST(Quantize, RoundsToNearestStep) {
  const FixedFormat f{8, 4};  // step 1/16
  EXPECT_FLOAT_EQ(quantize_value(0.5f, f), 0.5f);
  EXPECT_FLOAT_EQ(quantize_value(0.51f, f), 0.5f);
  EXPECT_FLOAT_EQ(quantize_value(0.54f, f), 0.5625f);
  EXPECT_FLOAT_EQ(quantize_value(-0.51f, f), -0.5f);
}

TEST(Quantize, Saturates) {
  const FixedFormat f{8, 4};  // range [-8, 7.9375]
  EXPECT_FLOAT_EQ(quantize_value(100.0f, f), 7.9375f);
  EXPECT_FLOAT_EQ(quantize_value(-100.0f, f), -8.0f);
  EXPECT_FLOAT_EQ(quantize_value(std::numeric_limits<float>::infinity(), f),
                  7.9375f);
}

class QuantBits : public ::testing::TestWithParam<int> {};

TEST_P(QuantBits, ErrorBoundedByHalfStep) {
  // Property: |q(x) - x| <= step/2 inside the representable range.
  const FixedFormat f = activation_format(GetParam(), 4);
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>(rng.uniform(-15.0, 15.0));
    const float q = quantize_value(x, f);
    EXPECT_LE(std::fabs(q - x), f.step() / 2.0 + 1e-9) << "x=" << x;
  }
}

TEST_P(QuantBits, MoreBitsNeverWorse) {
  const FixedFormat coarse = activation_format(GetParam(), 4);
  const FixedFormat fine = activation_format(GetParam() + 4, 4);
  Rng rng(GetParam() + 100);
  double err_coarse = 0.0, err_fine = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>(rng.uniform(-10.0, 10.0));
    err_coarse += std::fabs(quantize_value(x, coarse) - x);
    err_fine += std::fabs(quantize_value(x, fine) - x);
  }
  EXPECT_LE(err_fine, err_coarse);
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantBits,
                         ::testing::Values(8, 12, 16, 20, 24));

TEST(Quantize, TensorInplaceAndCopy) {
  Tensor t({3}, std::vector<float>{0.51f, -0.49f, 100.0f});
  const FixedFormat f{8, 4};
  const Tensor q = quantized(t, f);
  EXPECT_FLOAT_EQ(q.at(0), 0.5f);
  EXPECT_FLOAT_EQ(q.at(2), 7.9375f);
  EXPECT_FLOAT_EQ(t.at(0), 0.51f);  // original untouched
  quantize_tensor_inplace(t, f);
  EXPECT_FLOAT_EQ(t.at(0), 0.5f);
}

TEST(FormatFactories, ActivationAndWeightFormats) {
  const FixedFormat a = activation_format(16, 4);
  EXPECT_EQ(a.bits, 16);
  EXPECT_EQ(a.frac_bits, 11);
  EXPECT_THROW(activation_format(8, 8), InvalidArgument);
  Tensor w({2}, std::vector<float>{0.3f, -0.7f});  // max < 1 -> 0 int bits
  const FixedFormat wf = weight_format_for(w, 8);
  EXPECT_EQ(wf.frac_bits, 7);
  Tensor w2({2}, std::vector<float>{3.5f, -0.7f});  // needs 2 int bits
  EXPECT_EQ(weight_format_for(w2, 8).frac_bits, 5);
}

TEST(Fixed, IntegerMatchesFakeQuant) {
  // The Fixed value type and quantize_value must agree on construction.
  const FixedFormat f{12, 8};
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const float x = static_cast<float>(rng.uniform(-7.0, 7.0));
    EXPECT_FLOAT_EQ(Fixed(x, f).to_float(), quantize_value(x, f));
  }
}

TEST(Fixed, SaturatesLikeFakeQuant) {
  // Out-of-range and non-finite inputs clamp in double before the integer
  // conversion: +inf and huge values to max, -inf and NaN to min.
  using lim = std::numeric_limits<float>;
  for (const FixedFormat f : {FixedFormat{16, 8}, FixedFormat{8, 4},
                              FixedFormat{24, 15}}) {
    const auto step = static_cast<float>(f.step());
    const float past_hi = static_cast<float>(f.max_value()) + step;
    const float past_lo = static_cast<float>(f.min_value()) - step;
    for (const float v : {1e30f, -1e30f, lim::infinity(), -lim::infinity(),
                          lim::quiet_NaN(), past_hi, past_lo}) {
      EXPECT_EQ(Fixed(v, f).to_float(), quantize_value(v, f))
          << "v=" << v << " format {" << f.bits << ", " << f.frac_bits << "}";
    }
  }
  EXPECT_FLOAT_EQ(Fixed(1e30f, FixedFormat{16, 8}).to_float(), 127.99609375f);
  EXPECT_FLOAT_EQ(Fixed(lim::infinity(), FixedFormat{16, 8}).to_float(),
                  127.99609375f);
  EXPECT_FLOAT_EQ(Fixed(lim::quiet_NaN(), FixedFormat{16, 8}).to_float(),
                  -128.0f);
}

TEST(Fixed, AdditionAndSaturation) {
  const FixedFormat f{8, 4};
  const Fixed a(3.0f, f), b(4.0f, f);
  EXPECT_FLOAT_EQ((a + b).to_float(), 7.0f);
  const Fixed c(7.0f, f), d(5.0f, f);
  EXPECT_FLOAT_EQ((c + d).to_float(), 7.9375f);  // saturated
}

TEST(Fixed, MultiplicationRequantizes) {
  const FixedFormat f{16, 8};
  const Fixed a(1.5f, f), b(2.25f, f);
  EXPECT_NEAR((a * b).to_float(), 3.375f, f.step());
  // Product of small values rounds toward the grid.
  const Fixed s1(0.00390625f, f), s2(0.5f, f);
  EXPECT_NEAR((s1 * s2).to_float(), 0.00390625f * 0.5f, f.step());
}

TEST(Fixed, MultiplicationMatchesNearbyintExhaustively) {
  // Regression: the old negative-tie handling (`wide + half - 1 >> shift`)
  // rounded -0.5-step products toward -inf while quantize_value rounds ties
  // to even, so the integer accelerator path disagreed with tensor
  // quantization on exactly those products. Sweep every representable pair
  // for several small widths; products of these magnitudes are exact in
  // float, so quantize_value of the real product is the ground truth.
  for (const auto& f : {FixedFormat{4, 2}, FixedFormat{5, 3}, FixedFormat{6, 3},
                        FixedFormat{6, 5}}) {
    const std::int64_t lo = -(std::int64_t{1} << (f.bits - 1));
    const std::int64_t hi = (std::int64_t{1} << (f.bits - 1)) - 1;
    for (std::int64_t ra = lo; ra <= hi; ++ra) {
      for (std::int64_t rb = lo; rb <= hi; ++rb) {
        const float av = static_cast<float>(static_cast<double>(ra) * f.step());
        const float bv = static_cast<float>(static_cast<double>(rb) * f.step());
        const Fixed a(av, f), b(bv, f);
        ASSERT_EQ(a.raw(), ra);
        ASSERT_EQ(b.raw(), rb);
        const float product = av * bv;  // exact: few mantissa bits
        EXPECT_FLOAT_EQ((a * b).to_float(), quantize_value(product, f))
            << "bits=" << f.bits << " frac=" << f.frac_bits << " a=" << av
            << " b=" << bv;
      }
    }
  }
}

TEST(Fixed, MultiplicationNegativeTieRoundsToEven) {
  // The smallest concrete disagreement case: with 2 fractional bits,
  // (-0.25) * 0.5 = -0.125 = -0.5 steps, a tie, which must round to the
  // even raw value 0, not to -1 (-0.25).
  const FixedFormat f{4, 2};
  const Fixed a(-0.25f, f), b(0.5f, f);
  EXPECT_EQ((a * b).raw(), 0);
  EXPECT_FLOAT_EQ((a * b).to_float(), quantize_value(-0.125f, f));
}

TEST(Fixed, MixedFormatAddThrows) {
  const Fixed a(1.0f, FixedFormat{8, 4});
  const Fixed b(1.0f, FixedFormat{8, 5});
  EXPECT_THROW(a + b, InvalidArgument);
}

TEST(Scheme, PaperLevels) {
  const auto levels = QuantScheme::paper_levels();
  ASSERT_EQ(levels.size(), 6u);
  EXPECT_TRUE(levels[0].is_float);
  EXPECT_EQ(levels[1].op_bits, 24);
  EXPECT_EQ(levels[3].op_bits, 16);
  // Table III: hybrids keep weights at 8 bits and softmax at 24.
  EXPECT_EQ(levels[4].weight_bits, 8);
  EXPECT_EQ(levels[4].softmax_bits, 24);
  EXPECT_EQ(levels[4].op_bits, 20);
  EXPECT_EQ(levels[5].op_bits, 16);
  EXPECT_THROW(QuantScheme::uniform(4), InvalidArgument);
}

TEST(RelativeQuantError, ZeroForIdentical) {
  Tensor a({4}, std::vector<float>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(relative_quant_error(a, a), 0.0);
  Tensor b = a;
  b.at(0) = 1.1f;
  EXPECT_NEAR(relative_quant_error(a, b), 0.1 / 4.0, 1e-6);
}

class QuantizedModel : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(42);
    model_ = std::make_unique<models::TinyVbf>(
        models::TinyVbfConfig::test(8, 16), rng);
    Rng drng(43);
    input_ = Tensor({10, 16, 8});
    for (auto& v : input_.data())
      v = static_cast<float>(drng.uniform(-1.0, 1.0));
    reference_ = model_->infer(input_);
  }

  std::unique_ptr<models::TinyVbf> model_;
  Tensor input_;
  Tensor reference_;
};

TEST_F(QuantizedModel, FloatSchemeIsExact) {
  // Both run the one tape-free forward; the float scheme's rounding hooks
  // are empty, so the bits agree exactly.
  const QuantizedTinyVbf q(*model_, QuantScheme::float_reference());
  EXPECT_EQ(max_abs_diff(q.infer(input_), reference_), 0.0f);
}

TEST_F(QuantizedModel, ErrorShrinksWithWiderDatapath) {
  // The mechanism behind Tables IV/V: 24/20-bit ~ float, 16-bit degraded.
  double prev_err = 1e9;
  for (int bits : {12, 16, 20, 24}) {
    const QuantizedTinyVbf q(*model_, QuantScheme::uniform(bits));
    const double err = relative_quant_error(reference_, q.infer(input_));
    EXPECT_LT(err, prev_err * 1.5) << bits << " bits";
    prev_err = err;
  }
  const QuantizedTinyVbf q24(*model_, QuantScheme::uniform(24));
  EXPECT_LT(relative_quant_error(reference_, q24.infer(input_)), 5e-3);
  const QuantizedTinyVbf q12(*model_, QuantScheme::uniform(12));
  EXPECT_GT(relative_quant_error(reference_, q12.infer(input_)), 1e-3);
}

TEST_F(QuantizedModel, HybridsTrackTheirOpWidth) {
  const QuantizedTinyVbf h1(*model_, QuantScheme::hybrid1());
  const QuantizedTinyVbf h2(*model_, QuantScheme::hybrid2());
  const double e1 = relative_quant_error(reference_, h1.infer(input_));
  const double e2 = relative_quant_error(reference_, h2.infer(input_));
  EXPECT_LT(e1, 0.2);
  EXPECT_LE(e1, e2 * 1.5);  // hybrid-1 (20-bit ops) at least as good
}

TEST_F(QuantizedModel, WeightStorageShrinksWithHybrid) {
  const QuantizedTinyVbf f(*model_, QuantScheme::float_reference());
  const QuantizedTinyVbf h2(*model_, QuantScheme::hybrid2());
  EXPECT_EQ(h2.weight_storage_bits() * 4, f.weight_storage_bits());
}

TEST_F(QuantizedModel, RejectsWrongShape) {
  const QuantizedTinyVbf q(*model_, QuantScheme::hybrid1());
  EXPECT_THROW(q.infer(Tensor({10, 16, 4})), InvalidArgument);
}

/// FNV-1a over the raw output bytes.
std::uint64_t fnv1a(const Tensor& t) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = reinterpret_cast<const unsigned char*>(t.raw());
  for (std::size_t i = 0; i < static_cast<std::size_t>(t.size()) * 4; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Golden regression of the fixed-point forward: QuantizedTinyVbf::infer at
/// TinyVbfConfig::test() over a fixed (40, 32, 16) input, hashed per paper
/// level. The hashes pin the output bits of the serial scalar quantiser
/// that preceded the vector kernel and the row-parallel layer norm and
/// softmax; any change to them is a change of semantics.
class QuantizedGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(42);
    model_ = std::make_unique<models::TinyVbf>(models::TinyVbfConfig::test(),
                                               rng);
    Rng drng(43);
    input_ = Tensor({40, 32, 16});
    for (auto& v : input_.data())
      v = static_cast<float>(drng.uniform(-1.0, 1.0));
  }
  void TearDown() override { set_thread_count(0); }

  std::unique_ptr<models::TinyVbf> model_;
  Tensor input_;
};

TEST_F(QuantizedGolden, HashesMatchRecordedAtPoolSizes) {
#if defined(__GNUC__) && !defined(__clang__) && defined(__OPTIMIZE__)
  // Recorded with GCC, Release. The float GEMMs round differently in the
  // AVX2 and portable kernel builds, which moves the levels whose op width
  // keeps those bits (Float, 24, 20); the 16-bit and hybrid levels agree.
  const std::uint64_t avx2[6] = {
      0x7e0c004d90f58a7eull, 0xf37c64d77011bce7ull, 0x841e51634f718f71ull,
      0xaf32cebb6fae4cc6ull, 0x262b991d5878d0c4ull, 0x3d6f48bddb5ea2e5ull};
  const std::uint64_t portable[6] = {
      0x4bb85cd4dfaa43adull, 0x309428cdaf77ff9eull, 0x40d3e0d4da68ac42ull,
      0xaf32cebb6fae4cc6ull, 0x262b991d5878d0c4ull, 0x3d6f48bddb5ea2e5ull};
  const std::uint64_t* want = kernels::gemm_uses_avx2() ? avx2 : portable;
  const auto levels = QuantScheme::paper_levels();
  ASSERT_EQ(levels.size(), 6u);
  for (const std::size_t threads : {1u, 4u}) {
    set_thread_count(threads);
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const QuantizedTinyVbf q(*model_, levels[i]);
      EXPECT_EQ(fnv1a(q.infer(input_)), want[i])
          << levels[i].name << " at pool size " << threads;
    }
  }
#else
  // Unoptimised builds (Debug, and the sanitizer presets built on it) and
  // other compilers give different float bits at the Float, 24- and 20-bit
  // levels, so the recorded table does not apply to them.
  GTEST_SKIP() << "golden hashes are recorded for optimised GCC builds "
                  "only; unoptimised and non-GCC builds round floats "
                  "differently";
#endif
}

TEST_F(QuantizedGolden, PoolSizeDoesNotChangeBits) {
  // Compiler- and build-independent half of the golden check: pool size 1
  // vs 4 gives the same bits on every level.
  for (const auto& level : QuantScheme::paper_levels()) {
    const QuantizedTinyVbf q(*model_, level);
    set_thread_count(1);
    const std::uint64_t serial = fnv1a(q.infer(input_));
    set_thread_count(4);
    EXPECT_EQ(fnv1a(q.infer(input_)), serial) << level.name;
  }
}

}  // namespace
}  // namespace tvbf::quant
